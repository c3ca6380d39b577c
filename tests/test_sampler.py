"""Determinism, stream addressing, and distributional checks for the
generators. Statistical assertions use 5-standard-error tolerances."""

import numpy as np
import pytest

from mvcheb import (
    Covariance,
    DomainError,
    SamplerSpec,
    UsageError,
    draw,
    draw_range,
    example_covariance,
    gaussian_spec,
    invert_spd,
    mahalanobis_sq,
    paper_example_spec,
    spec_from_dict,
    spec_to_dict,
    tight_radial_spec,
    true_moments,
)
from mvcheb.sampler import blocks_per_sample


class TestSpecs:
    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="unknown sampler kind"):
            spec_from_dict({"kind": "cauchy", "seed": 0})

    def test_missing_fields(self):
        with pytest.raises(UsageError, match="missing required field"):
            spec_from_dict({"kind": "paper_example", "sigma": 1.0})

    def test_bad_seed(self):
        for seed in (-1, 2**64):
            with pytest.raises(UsageError, match="seed must be a 64-bit"):
                paper_example_spec(1.0, 25.0, seed=seed)
            with pytest.raises(UsageError, match="seed must be a 64-bit"):
                gaussian_spec([0.0], Covariance.from_matrix([[1.0]]), seed=seed)

    BAD_SCALAR_FIELDS = [
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "seed": 1.7}, "seed must be an integer"),
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "seed": "x"}, "seed must be an integer"),
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "seed": True}, "seed must be an integer"),
        ({"kind": "paper_example", "sigma": "abc", "k": 25.0}, "sigma must be a number"),
        ({"kind": "paper_example", "sigma": None, "k": 25.0}, "sigma must be a number"),
        ({"kind": "paper_example", "sigma": 1.0, "k": float("nan")}, "k must be finite"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": 2.5}, "dim must be an integer"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": -1}, "dim must be a positive integer"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": 0}, "dim must be a positive integer"),
        ({"kind": "paper_example", "sigma": 10**400, "k": 25.0}, "sigma must be a number"),
    ]

    @pytest.mark.parametrize(
        "data, match", BAD_SCALAR_FIELDS, ids=[f"data{i}" for i in range(len(BAD_SCALAR_FIELDS))]
    )
    def test_bad_scalar_fields(self, data, match):
        with pytest.raises(UsageError, match=match):
            spec_from_dict(data)

    def test_tight_radial_eps_floor(self):
        with pytest.raises(UsageError, match="needs eps >= dim"):
            tight_radial_spec(1.5, dim=2)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 1.79769313e308])
    def test_tight_radial_eps_finite(self, eps):
        with pytest.raises(UsageError, match="and eps finite"):
            tight_radial_spec(eps, dim=2)

    @pytest.mark.parametrize("dim", [-1, 0, 2.5, float("nan"), float("inf")])
    def test_tight_radial_dim_must_be_positive(self, dim):
        with pytest.raises(UsageError, match="dim must be a positive integer"):
            tight_radial_spec(8.0, dim=dim)

    EYE2 = Covariance.from_matrix(np.eye(2))
    BAD_FIELDS = {
        "unknown_kind": (dict(kind="cauchy"), "unknown sampler kind"),
        "gaussian_without_cov": (dict(kind="gaussian", mean=[0.0]), "needs mean and cov"),
        "zero_sigma": (dict(kind="paper_example", sigma=0.0, k=1.0), "sigma > 0 and k > 0"),
        "nan_k": (dict(kind="paper_example", sigma=1.0, k=float("nan")), "sigma > 0 and k > 0"),
        "inf_sigma": (dict(kind="paper_example", sigma=float("inf"), k=1.0), "sigma > 0 and k > 0"),
        "eps_below_dim": (dict(kind="tight_radial", mean=[0, 0], cov=EYE2, eps=1.5), "eps >= dim"),
        "negative_seed": (dict(kind="paper_example", sigma=1.0, k=1.0, seed=-1), "seed must be"),
        "cov_not_a_covariance": (dict(kind="gaussian", mean=[0, 0], cov=np.eye(2)), "a Covariance"),
    }

    @pytest.mark.parametrize("fields, match", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
    def test_direct_construction_is_checked(self, fields, match):
        with pytest.raises(UsageError, match=match):
            SamplerSpec(**fields)

    @pytest.mark.parametrize("sigma, k", [(1e200, 1.0), (1e150, 1e10)])
    def test_paper_example_beyond_float_range_refused_when_built(self, sigma, k):
        with pytest.raises(DomainError):
            paper_example_spec(sigma, k)

    def test_mean_is_a_read_only_copy(self):
        mean = np.array([1.0, 2.0])
        cov = Covariance.from_matrix(np.eye(2))
        for spec in (
            SamplerSpec(kind="gaussian", mean=mean, cov=cov),
            gaussian_spec(mean, cov),
            tight_radial_spec(8.0, mean=mean, cov=cov),
        ):
            with pytest.raises(ValueError):
                spec.mean[0] = 5.0
            mean[0] = 5.0  # the caller's array stays writable and the spec keeps its copy
            assert spec.mean[0] == 1.0
            mean[0] = 1.0

    def test_json_round_trip(self):
        specs = [
            paper_example_spec(1.0, 25.0, seed=42),
            gaussian_spec([1.0, -2.0], example_covariance(1.0, 25.0), seed=7),
            tight_radial_spec(8.0, dim=3, seed=9),
        ]
        for spec in specs:
            back = spec_from_dict(spec_to_dict(spec))
            assert np.array_equal(draw(spec, 16), draw(back, 16))

    def test_true_moments_paper_example(self):
        spec = paper_example_spec(2.0, 1.0)
        mean, cov = true_moments(spec)
        assert np.array_equal(mean, [0.0, 0.0])
        assert np.array_equal(cov.entries, [[4.0, 4.0], [4.0, 8.0]])
        # the spec holds its moments, checked when it was built
        assert cov is spec.cov and spec.dim == 2


class TestDraw:
    def test_bitwise_reproducible(self):
        spec = paper_example_spec(1.0, 25.0, seed=404)
        assert np.array_equal(draw(spec, 500), draw(spec, 500))

    def test_partition_invariance(self):
        # any split of the index range concatenates to the full draw
        for spec in (
            paper_example_spec(1.0, 25.0, seed=11),
            gaussian_spec(np.zeros(3), Covariance.from_matrix(np.eye(3)), seed=11),
            tight_radial_spec(8.0, dim=2, seed=11),
        ):
            full = draw(spec, 1000)
            for cuts in ([0, 1000], [0, 1, 1000], [0, 250, 500, 750, 1000], [0, 333, 998, 1000]):
                parts = [draw_range(spec, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
                assert np.array_equal(np.vstack(parts), full)

    def test_stream_index_changes_samples(self):
        spec = paper_example_spec(1.0, 25.0, seed=11)
        assert not np.array_equal(draw(spec, 100, stream_index=0), draw(spec, 100, stream_index=1))

    def test_blocks_per_sample(self):
        assert blocks_per_sample(paper_example_spec(1.0, 1.0)) == 1
        assert blocks_per_sample(tight_radial_spec(4.0, dim=2)) == 1
        five = gaussian_spec(np.zeros(5), Covariance.from_matrix(np.eye(5)), seed=0)
        assert blocks_per_sample(five) == 2  # 6 normal words -> 2 blocks


def standard_normal_spec(seed):
    return gaussian_spec([0.0], Covariance.from_matrix([[1.0]]), seed=seed)


class TestDistributions:
    def test_normal_moments(self):
        n = 1_000_000
        z = draw(standard_normal_spec(2718), n)[:, 0]
        assert abs(z.mean()) <= 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)
        assert abs((z <= 0).mean() - 0.5) <= 5.0 * 0.5 / np.sqrt(n)

    def test_stream_cross_correlation(self):
        n = 1_000_000
        spec = standard_normal_spec(31)
        a = draw(spec, n, stream_index=0)[:, 0]
        b = draw(spec, n, stream_index=1)[:, 0]
        r = float(np.corrcoef(a, b)[0, 1])
        assert abs(r) <= 5.0 / np.sqrt(n)

    def test_paper_example_moments(self):
        n = 100_000
        x = draw(paper_example_spec(1.0, 25.0, seed=1), n)
        target = np.array([[1.0, 1.0], [1.0, 26.0]])
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        emp = np.cov(x.T, ddof=1)
        assert np.all(np.abs(emp - target) <= 5.0 * se)

    def test_gaussian_matches_paper_example_distribution(self):
        # same moment checks pass for the explicit-covariance generator
        n = 100_000
        cov = example_covariance(1.0, 25.0)
        x = draw(gaussian_spec([0.0, 0.0], cov, seed=2), n)
        target = cov.entries
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        assert np.all(np.abs(np.cov(x.T, ddof=1) - target) <= 5.0 * se)
        assert np.all(np.abs(x.mean(axis=0)) <= 5.0 * np.sqrt(np.diag(target) / n))

    def test_gaussian_diagonal_uncorrelated(self):
        n = 100_000
        cov = Covariance.from_matrix(np.diag([2.0, 5.0]))
        x = draw(gaussian_spec([0.0, 0.0], cov, seed=3), n)
        r = float(np.corrcoef(x.T)[0, 1])
        assert abs(r) <= 5.0 / np.sqrt(n)

    def test_tight_radial_tail_equality(self):
        n = 100_000
        spec = tight_radial_spec(8.0, dim=2, seed=4)
        x = draw(spec, n)
        mean, cov = true_moments(spec)
        d2 = mahalanobis_sq(x, mean, invert_spd(cov))
        p = 2.0 / 8.0
        assert abs(float((d2 >= 8.0).mean()) - p) <= 5.0 * np.sqrt(p * (1 - p) / n)

    def test_tight_radial_covariance(self):
        n = 100_000
        spec = tight_radial_spec(8.0, dim=2, seed=5)
        x = draw(spec, n)
        emp = (x.T @ x) / n  # mean is exactly zero by construction
        # Var of an entry of (x x^T): bounded by E[d^4] = eps * n; use a
        # conservative 5-sigma envelope
        se = np.sqrt(8.0 * 2.0 / n)
        assert np.all(np.abs(emp - np.eye(2)) <= 5.0 * se)

    def test_tight_radial_atom_is_exact_mean(self):
        spec = tight_radial_spec(8.0, mean=[1.5, -0.5], cov=Covariance.from_matrix(np.eye(2)), seed=6)
        x = draw(spec, 2000)
        at_mean = np.all(x == np.array([1.5, -0.5]), axis=1)
        assert at_mean.mean() > 0.5  # R=0 atom carries probability 1 - 2/8
        assert np.any(~at_mean)
