"""Determinism, stream addressing, and distributional checks for the
generators. Statistical assertions use 5-standard-error tolerances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcheb import (
    Covariance,
    DomainError,
    SamplerSpec,
    UsageError,
    draw,
    draw_range,
    example_covariance,
    gaussian_spec,
    paper_example_spec,
    quad_form,
    spec_from_dict,
    spec_to_dict,
    tight_radial_spec,
    true_moments,
)
from mvcheb import sampler
from mvcheb.sampler import chunk_size


class TestSpecs:
    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="unknown sampler kind"):
            spec_from_dict({"kind": "cauchy", "seed": 0})

    def test_missing_fields(self):
        with pytest.raises(UsageError, match="paper_example spec needs sigma and k"):
            spec_from_dict({"kind": "paper_example", "sigma": 1.0})

    def test_bad_seed(self):
        for seed, match in [
            (-1, "seed must be a 64-bit"),
            (2**64, "seed must be a 64-bit"),
            (1.7, "seed must be an integer"),
            (True, "seed must be an integer"),
            ("3", "seed must be an integer"),
        ]:
            with pytest.raises(UsageError, match=match):
                paper_example_spec(1.0, 25.0, seed=seed)
            with pytest.raises(UsageError, match=match):
                gaussian_spec([0.0], Covariance.from_matrix([[1.0]]), seed=seed)

    BAD_SCALAR_FIELDS = [
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "seed": 1.7}, "seed must be an integer"),
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "seed": "x"}, "seed must be an integer"),
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "seed": True}, "seed must be an integer"),
        ({"kind": "paper_example", "sigma": "abc", "k": 25.0}, "sigma must be a number"),
        ({"kind": "paper_example", "sigma": None, "k": 25.0}, "paper_example spec needs sigma and k"),
        ({"kind": "paper_example", "sigma": 1.0, "k": float("nan")}, "finite sigma > 0 and k > 0"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": 2.5}, "dim must be a positive integer"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": -1}, "dim must be a positive integer"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": 0}, "dim must be a positive integer"),
        ({"kind": "paper_example", "sigma": 10**400, "k": 25.0}, "sigma must be a number"),
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "colour": "red"}, "unknown spec field colour"),
        ({"kind": "gaussian", "mean": [0.0], "cov": [[1.0]], "dim": 1}, "unknown spec field dim"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": True}, "dim must be a positive integer"),
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

    def test_tight_radial_dim_must_match_cov(self):
        with pytest.raises(DomainError, match="dim 3 does not match the 2-dimensional cov"):
            tight_radial_spec(8.0, dim=3, cov=Covariance(np.eye(2)))
        assert tight_radial_spec(8.0, dim=2, cov=Covariance(np.eye(2))).dim == 2

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
        "paper_example_with_mean": (
            dict(kind="paper_example", sigma=1.0, k=25.0, mean=[5.0, 5.0]),
            "paper_example spec does not read mean",
        ),
        "gaussian_with_eps": (
            dict(kind="gaussian", mean=[0, 0], cov=EYE2, eps=-5.0),
            "gaussian spec does not read eps",
        ),
        "tight_radial_with_sigma_and_k": (
            dict(kind="tight_radial", mean=[0, 0], cov=EYE2, eps=8.0, sigma=1.0, k=2.0),
            "tight_radial spec does not read sigma, k",
        ),
    }

    @pytest.mark.parametrize("fields, match", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
    def test_direct_construction_is_checked(self, fields, match):
        with pytest.raises(UsageError, match=match) as direct:
            SamplerSpec(**fields)
        if isinstance(fields.get("cov"), np.ndarray):
            return  # JSON cov is always read as a Covariance, so it cannot be a bare array
        # the same fields as JSON, cov given as a list, meet the same rule
        data = {k: v.entries.tolist() if k == "cov" else v for k, v in fields.items()}
        with pytest.raises(UsageError) as from_json:
            spec_from_dict(data)
        assert type(from_json.value) is type(direct.value)
        assert str(from_json.value) == str(direct.value)

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


# One spec of each kind, for the chunk edge and stream format 2 tests.
CHUNK_EDGE_SPECS = {
    "paper_example": paper_example_spec(1.0, 25.0, seed=0),
    "gaussian": gaussian_spec([1.0, -2.0, 0.5], Covariance(np.diag([4.0, 1.0, 0.25])), seed=0),
    "tight_radial": tight_radial_spec(4.0, dim=2, seed=0),
}


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

    @pytest.mark.parametrize("spec", [paper_example_spec(1.0, 25.0, seed=3)] + [
        make(n) for n in (1, 2, 3, 64) for make in (
            lambda n: gaussian_spec(np.zeros(n), Covariance(np.eye(n) + 0.5), seed=3),
            lambda n: tight_radial_spec(2.0 * n, dim=n, seed=3),
        )
    ], ids=lambda s: f"{s.kind}-{s.dim}")
    def test_draws_are_column_major(self, spec):
        # part lengths that are no multiple of 8: BLAS can round the last rows
        # of a column-major matrix product otherwise than the row-major one
        size = chunk_size(spec)
        assert draw_range(spec, 0, 1).T.flags.c_contiguous
        bounds = [0, size - 1, 2 * size + 7]
        parts = [draw_range(spec, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        assert all(part.T.flags.c_contiguous for part in parts)
        assert np.array_equal(np.vstack(parts), draw(spec, 2 * size + 7))

    def test_stream_index_changes_samples(self):
        spec = paper_example_spec(1.0, 25.0, seed=11)
        assert not np.array_equal(draw(spec, 100, stream_index=0), draw(spec, 100, stream_index=1))

    def test_chunk_size(self, monkeypatch):
        # about 2^17 normals per chunk, whole samples, at least one
        assert chunk_size(paper_example_spec(1.0, 1.0)) == 65_536
        assert chunk_size(tight_radial_spec(4.0, dim=2)) == 65_536
        five = gaussian_spec(np.zeros(5), Covariance.from_matrix(np.eye(5)), seed=0)
        assert chunk_size(five) == 26_214
        monkeypatch.setattr(sampler, "_CHUNK_NORMALS", 4)
        assert chunk_size(five) == 1

    def test_partition_invariance_across_real_chunk_edges(self):
        for spec in CHUNK_EDGE_SPECS.values():
            size = chunk_size(spec)
            total = 2 * size + 7
            full = draw(spec, total)
            cuts = [0, size // 2, size + 3, 2 * size + 1, total]
            parts = [draw_range(spec, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
            assert np.array_equal(np.vstack(parts), full)
            assert np.array_equal(draw_range(spec, size - 2, size + 2), full[size - 2 : size + 2])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(kind=st.sampled_from(sorted(CHUNK_EDGE_SPECS)), chunk_normals=st.integers(1, 24),
           tile_rows=st.integers(1, 5), data=st.data())
    def test_random_partitions_and_prefixes(self, kind, chunk_normals, tile_rows, data):
        # tiles of a few rows, so the fill blocks cut chunks and skipped rows
        spec = CHUNK_EDGE_SPECS[kind]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sampler, "_CHUNK_NORMALS", chunk_normals)
            m.setattr(sampler, "_TILE_ROWS", tile_rows)
            m.setattr(sampler, "_TILE_ENTRIES", 1)
            size = chunk_size(spec)
            total = data.draw(st.integers(1, 8 * size + 5), label="total")
            cuts = data.draw(st.lists(st.integers(0, total), max_size=6), label="cuts")
            bounds = [0, *sorted(cuts), total]
            full = draw(spec, total)
            parts = [draw_range(spec, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
            assert np.array_equal(np.vstack(parts), full)
            prefix = data.draw(st.integers(1, total), label="prefix")
            assert np.array_equal(draw(spec, prefix), full[:prefix])

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(kind=st.sampled_from(sampler.KINDS), n=st.integers(1, 6), data=st.data())
    def test_in_place_transform_matches_the_out_of_place_formula(self, kind, n, data):
        # the generators are stubbed to serve chosen normals (zero rows included)
        # and uniforms, which the former out-of-place formula turns into x
        rows = data.draw(st.integers(1, 12), label="rows")
        n = 2 if kind == "paper_example" else n
        entry = st.one_of(st.just(0.0), st.floats(-40.0, 40.0))
        z = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                        min_size=rows, max_size=rows), label="z"))
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                        min_size=rows, max_size=rows), label="u"))
        a = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n),
                               label="a")).reshape(n, n)
        cov = Covariance.from_matrix(a @ a.T + np.eye(n))
        mean = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        spec = {
            "paper_example": lambda: paper_example_spec(
                data.draw(st.floats(1e-3, 1e3)), data.draw(st.floats(1e-3, 1e3))),
            "gaussian": lambda: gaussian_spec(mean, cov),
            "tight_radial": lambda: tight_radial_spec(
                data.draw(st.floats(float(n), 1e3)), mean=mean, cov=cov),
        }[kind]()

        class Served:
            def __init__(self, bit_generator):
                pass

            def standard_normal(self, out):
                out[...] = z

            def random(self, out):
                out[...] = u

        with pytest.MonkeyPatch.context() as m:
            m.setattr(sampler, "Generator", Served)
            x = draw_range(spec, 0, rows)
        if kind == "paper_example":
            y = spec.sigma * z[:, 0]
            w = np.sqrt(spec.k) * spec.sigma * z[:, 1]
            expected = np.column_stack([y, y + w])
        elif kind == "gaussian":
            expected = spec.mean + z @ spec.cov.chol.T
        else:
            norms = np.linalg.norm(z, axis=1)
            direction = z / np.where(norms == 0.0, 1.0, norms)[:, None]
            direction[norms == 0.0] = np.eye(n)[0]
            radius = np.sqrt(spec.eps * sampler._SHELL_MARGIN) * (u < n / spec.eps)
            expected = spec.mean + radius[:, None] * (direction @ spec.cov.chol.T)
        assert x.tobytes() == expected.tobytes()

    def test_too_many_entries_refused_before_drawing(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(sampler, "Generator", no_generator)
        with pytest.raises(DomainError, match="more than one array can hold"):
            draw_range(paper_example_spec(1.0, 25.0), 0, 10**20)


# Stream format 2: the first rows of each kind at seed 0, streams 0 and 1.
# The gaussian's mean and power-of-two Cholesky factor and the elementwise
# paper_example transform are exact, so any change of the stream shows.
GOLDEN_ROWS = {
    ("paper_example", 0): [
        [0.15929546600623282, -8.711647138002375],
        [1.3265118818830892, 7.350557371629667],
        [-0.03910371209917862, -2.6362001971137965],
    ],
    ("paper_example", 1): [
        [-0.7440191742693708, -0.8161422229727711],
        [0.5053939916649247, -8.255736181875719],
        [0.9117518902728049, 1.726346129584309],
    ],
    ("gaussian", 0): [
        [1.3185909320124656, -3.7741885208017214, 1.1632559409415446],
        [3.409618195898631, -2.0391037120991786, 0.24029035149853822],
        [-1.226591818854557, -3.767380301540489, 0.5198838041819515],
    ],
    ("gaussian", 1): [
        [-0.4880383485387416, -2.01442460974068, 0.7526969958324623],
        [-2.5044520694162573, -1.088248109727195, 0.5814594239311505],
        [-0.6822336796252675, -3.0333976271933922, 0.9802368793284542],
    ],
    ("tight_radial", 0): [
        [0.0, 0.0],
        [1.4804970630878809, 1.3446666821886233],
        [-0.15014216482835344, -1.9943563799734125],
    ],
    ("tight_radial", 1): [
        [-1.999624243999655, -0.038767548398227915],
        [0.5542647839400318, -1.9216634953299991],
        [0.0, 0.0],
    ],
}


@pytest.mark.parametrize("kind, stream", GOLDEN_ROWS, ids=[f"{k}-{s}" for k, s in GOLDEN_ROWS])
def test_golden_rows(kind, stream):
    x = draw(CHUNK_EDGE_SPECS[kind], 3, stream_index=stream)
    # the tight_radial direction goes through a norm, whose summation order
    # may differ by the last ulp between builds
    np.testing.assert_allclose(x, GOLDEN_ROWS[kind, stream], rtol=1e-15, atol=0.0)


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
        d2 = quad_form(x - mean, cov.whitener)
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
