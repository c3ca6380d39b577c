"""Monte Carlo experiment operations: coverage, trace identity, tail
curves, figure export, and the chunked reducer behind them. The chi-square
law of d^2 for Gaussian draws gives independent expected values."""

import contextlib
import functools
import io
import json
import math
import operator
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from mvcheb import (
    Covariance,
    DomainError,
    Region,
    UsageError,
    contains,
    draw,
    ellipse_boundary,
    estimate_moments,
    example_covariance,
    export_figure,
    figure_csv_texts,
    gaussian_spec,
    make_ellipsoid,
    make_sphere,
    paper_example_spec,
    quad_form,
    run_coverage,
    run_coverage_estimated,
    run_tail_curve,
    spec_from_dict,
    spec_to_dict,
    tight_radial_spec,
    trace_identity_check,
    true_moments,
)
from mvcheb import cli, experiments, sampler
from mvcheb.sampler import chunk_size

PAPER = paper_example_spec(1.0, 25.0, seed=99)


class TestCoverage:
    def test_paper_example_figure_setting(self):
        ell, sph = run_coverage(PAPER, 0.1, 1000)
        # Gaussian d^2 ~ chi2(2): expected miss probability is tiny
        assert chi2.sf(20.0, 2) == pytest.approx(np.exp(-10.0), rel=1e-12)
        assert ell.empirical_coverage >= 0.9
        assert sph.empirical_coverage >= 0.9
        assert ell.kind == "ellipsoid" and sph.kind == "sphere"
        assert ell.hits + 0 <= ell.n_samples
        assert ell.guaranteed_coverage == pytest.approx(0.9)

    def test_tight_radial_attains_guarantee(self):
        spec = tight_radial_spec(20.0, dim=2, seed=12)
        ell, _ = run_coverage(spec, 0.1, 100_000)
        se = np.sqrt(0.9 * 0.1 / 100_000)
        assert abs(ell.empirical_coverage - 0.9) <= 5.0 * se

    def test_extreme_delta_still_reports(self):
        ell, sph = run_coverage(PAPER, 0.999999, 2000)
        assert 0.0 <= ell.empirical_coverage <= 1.0
        assert 0.0 <= sph.empirical_coverage <= 1.0

    def test_streams_do_not_change_counts(self):
        for streams in (2, 3, 4, 7):
            base = run_coverage(PAPER, 0.1, 10_000, streams=1)
            multi = run_coverage(PAPER, 0.1, 10_000, streams=streams)
            assert multi[0].hits == base[0].hits
            assert multi[1].hits == base[1].hits

    def test_streams_below_one_rejected(self):
        for streams in (0, -2):
            with pytest.raises(UsageError, match="streams must be a positive integer"):
                run_coverage(PAPER, 0.1, 100, streams=streams)

    def test_standard_error_formula(self):
        ell, _ = run_coverage(PAPER, 0.1, 1000)
        p = ell.empirical_coverage
        assert ell.standard_error == pytest.approx(np.sqrt(p * (1 - p) / 1000))
        if ell.hits == ell.n_samples:
            assert ell.standard_error == 0.0

    def test_report_dict_keys(self):
        ell, _ = run_coverage(PAPER, 0.1, 100)
        assert list(ell.to_dict()) == [
            "kind",
            "delta",
            "n_samples",
            "hits",
            "empirical_coverage",
            "guaranteed_coverage",
            "standard_error",
        ]

    def test_estimated_mode(self):
        out = run_coverage_estimated(PAPER, 0.1, 5000)
        assert set(out) == {"true", "estimated"}
        for pair in out.values():
            assert pair[0].kind == "ellipsoid" and pair[1].kind == "sphere"
        # estimated regions from 5000 draws should cover comparably
        assert out["estimated"][0].empirical_coverage >= 0.9

    def test_guarantee_holds_for_every_kind(self):
        # both regions, several deltas: coverage >= 1 - delta - 5*SE
        n = 50_000
        specs = [
            PAPER,
            gaussian_spec(np.zeros(3), Covariance.from_matrix(np.diag([1.0, 4.0, 9.0])), seed=23),
            tight_radial_spec(8.0, dim=2, seed=24),
            tight_radial_spec(40.0, dim=4, mean=np.ones(4),
                              cov=Covariance.from_matrix(np.eye(4) + 0.3), seed=25),
        ]
        for spec in specs:
            for delta in (0.05, 0.1, 0.5):
                for report in run_coverage(spec, delta, n):
                    floor = 1.0 - delta - 5.0 * report.standard_error
                    assert report.empirical_coverage >= floor, (spec.kind, delta, report)


class TestExactGaussianCoverage:
    """Hit counts against the exact coverage of a gaussian: the ellipsoid's is
    chi2.cdf(n/delta, n) for every Sigma, and for Sigma = c I the sphere's is the
    same, as ||x - mu||^2 <= n c/delta is ||z||^2 <= n/delta. delta puts it in
    [0.3, 0.99]. Each of the 8 checks allows 5 standard errors, a two-sided
    false-failure rate of 5.7e-7, so about 5e-6 for the family."""

    N = 1 << 17

    def _check(self, report, n, delta):
        exact = chi2.cdf(n / delta, n)
        assert 0.3 <= exact <= 0.99
        se = math.sqrt(exact * (1.0 - exact) / self.N)
        assert abs(report.hits / self.N - exact) <= 5.0 * se, (report.hits, exact * self.N)

    @pytest.mark.parametrize("n, p", [(1, 0.7), (2, 0.9), (5, 0.8), (16, 0.95), (64, 0.75)])
    def test_ellipsoid_of_a_random_covariance(self, n, p):
        rng = np.random.default_rng(200 + n)
        a = rng.standard_normal((n, n))
        cov = Covariance(a @ a.T / n + 0.5 * np.eye(n))
        delta = n / chi2.ppf(p, n)
        ell, _ = run_coverage(gaussian_spec(rng.standard_normal(n), cov, seed=n), delta, self.N)
        self._check(ell, n, delta)

    @pytest.mark.parametrize("n, c, p", [(2, 0.25, 0.85), (16, 7.0, 0.7), (64, 1e-3, 0.95)])
    def test_sphere_of_an_isotropic_covariance(self, n, c, p):
        delta = n / chi2.ppf(p, n)
        spec = gaussian_spec(np.ones(n), Covariance(c * np.eye(n)), seed=300 + n)
        _, sph = run_coverage(spec, delta, self.N)
        self._check(sph, n, delta)


class TestLargeMean:
    """The experiments measure offsets from the mean and never add the mean,
    so a mean far beyond the spread moves no count: samples that held it
    would round to a grid of ulp(|mu|)."""

    def test_tight_radial_tails_do_not_depend_on_the_mean(self):
        # at 1e9 the grid (ulp 1.2e-7) is coarser than the shell margin in
        # distance (2.2e-8), so a third of the atoms used to round inside
        def tails(m):
            spec = tight_radial_spec(20.0, mean=[m, m], cov=Covariance(np.eye(2)), seed=1)
            curve = run_tail_curve(spec, [20.0], 200_000)
            return curve.empirical_tail.tolist(), curve.classical_tail.tolist()

        reference = tails(0.0)
        assert reference[0] == [0.101245]
        for m in (1e6, 1e9, 1e12, 1e300):
            assert tails(m) == reference, m

    @pytest.mark.parametrize("m", [1e16, 1e300])
    def test_gaussian_coverage_at_a_large_mean(self, m):
        # chi^2_2 at n / delta = 4: 1 - e^-2; the mean once gave 0.89548 at 1e16
        spec = gaussian_spec([m, m], Covariance(np.eye(2)), seed=0)
        ell, sph = run_coverage(spec, 0.5, 200_000)
        assert ell.hits == sph.hits  # Sigma = I: the regions coincide
        assert abs(ell.empirical_coverage - (1.0 - np.exp(-2.0))) < 5 * ell.standard_error


class TestTraceIdentity:
    def test_gaussian_2d(self):
        # Var(chi2_2) = 4
        spec = gaussian_spec([0.0, 0.0], example_covariance(1.0, 25.0), seed=8)
        value = trace_identity_check(spec, 100_000)
        assert abs(value - 2.0) <= 5.0 * np.sqrt(4.0 / 100_000)

    def test_tight_radial(self):
        # Var(d^2) = n*eps - n^2 = 12 for n=2, eps=8
        spec = tight_radial_spec(8.0, dim=2, seed=9)
        value = trace_identity_check(spec, 100_000)
        assert abs(value - 2.0) <= 5.0 * np.sqrt(12.0 / 100_000)

    def test_gaussian_1d(self):
        spec = gaussian_spec([3.0], Covariance.from_matrix([[7.0]]), seed=10)
        value = trace_identity_check(spec, 100_000)
        assert abs(value - 1.0) <= 5.0 * np.sqrt(2.0 / 100_000)


class TestTailCurve:
    def test_gaussian_slack_at_20(self):
        spec = gaussian_spec([0.0, 0.0], example_covariance(1.0, 25.0), seed=13)
        curve = run_tail_curve(spec, [2.0, 4.0, 20.0], 100_000)
        i = 2
        assert curve.new_bound[i] == pytest.approx(0.1, rel=1e-12)
        # chi-square tail e^-10 ~ 4.5e-5: far below the bound
        assert curve.empirical_tail[i] <= 5e-4

    def test_tight_radial_equality_point(self):
        spec = tight_radial_spec(8.0, dim=2, seed=14)
        curve = run_tail_curve(spec, [4.0, 8.0], 100_000)
        p = 0.25
        se = np.sqrt(p * (1 - p) / 100_000)
        assert abs(curve.empirical_tail[1] - p) <= 5.0 * se
        assert curve.new_bound[1] == p

    def test_vacuous_region_clamped(self):
        spec = gaussian_spec([0.0, 0.0], example_covariance(1.0, 25.0), seed=15)
        curve = run_tail_curve(spec, [0.5, 2.0], 10_000)
        assert curve.new_bound[0] == 1.0
        assert curve.classical_bound[0] == 1.0

    def test_bounds_hold_everywhere(self):
        n = 100_000
        for spec in (
            PAPER,
            gaussian_spec(np.zeros(4), Covariance.from_matrix(np.diag([1.0, 2.0, 3.0, 4.0])), seed=16),
            tight_radial_spec(8.0, dim=2, seed=17),
        ):
            grid = [1.0, 2.0, 5.0, 10.0, 40.0]
            curve = run_tail_curve(spec, grid, n)
            for emp, bound in zip(curve.empirical_tail, curve.new_bound):
                se = np.sqrt(emp * (1 - emp) / n)
                assert emp <= bound + 5.0 * se
            for emp, bound in zip(curve.classical_tail, curve.classical_bound):
                se = np.sqrt(emp * (1 - emp) / n)
                assert emp <= bound + 5.0 * se
            assert np.all(np.diff(curve.empirical_tail) <= 0)
            assert np.all(np.diff(curve.classical_tail) <= 0)

    def test_scalar_case_curves_coincide(self):
        # for n=1 the Mahalanobis and scaled-Euclidean events are identical
        spec = gaussian_spec([0.0], Covariance.from_matrix([[5.0]]), seed=18)
        curve = run_tail_curve(spec, [0.5, 1.0, 3.0, 9.0], 50_000)
        assert np.array_equal(curve.empirical_tail, curve.classical_tail)
        assert np.array_equal(curve.new_bound, curve.classical_bound)

    def test_grid_validation(self):
        with pytest.raises(UsageError, match="at least one value"):
            run_tail_curve(PAPER, [], 100)
        with pytest.raises(UsageError, match="strictly ascending"):
            run_tail_curve(PAPER, [4.0, 2.0], 100)
        for bad in ([-1.0, 2.0], [0.0], [2.0, np.nan], [2.0, np.inf]):
            with pytest.raises(UsageError, match="strictly ascending"):
                run_tail_curve(PAPER, bad, 100)

    def test_classical_bound_is_exactly_min_one_over_eps(self):
        grid = np.concatenate([[0.25, 0.5], np.geomspace(1.0, 400.0, 200)])
        curve = run_tail_curve(PAPER, grid, 100)  # Var(X) = 27
        assert np.array_equal(curve.classical_bound, np.minimum(1, 1 / grid))

    def test_level_beyond_float_range_is_reached_by_no_sample(self):
        spec = gaussian_spec([0.0], Covariance([[25.0]]))
        eps = 7.190772539449264e306  # eps * Var(X) is beyond the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = run_tail_curve(spec, [eps], 1)
        assert curve.classical_tail.tolist() == [0.0]
        assert curve.classical_bound.tolist() == [1 / eps]

    def test_scalar_case_curves_coincide_where_eps_times_variance_overflows(self):
        # eps * Var(X) and ||x||^2 leave the float range from eps = 2 on here
        spec = gaussian_spec([0.0], Covariance([[1e308]]), seed=0)
        curve = run_tail_curve(spec, [1.0, 2.0, 4.0], 1 << 16)
        assert np.array_equal(curve.classical_tail, curve.empirical_tail)

    def test_euclidean_tail_at_eps_is_the_mahalanobis_tail_at_2_eps_near_overflow(self):
        # for c I in two dimensions ||x||^2 >= eps * 2c is d^2 >= 2 eps, and 2c = 1.2e308
        spec = gaussian_spec([0.0, 0.0], Covariance(6e307 * np.eye(2)), seed=1)
        curve = run_tail_curve(spec, [0.5, 1.0, 2.0, 4.0], 1 << 16)
        assert curve.classical_tail[:-1].tolist() == curve.empirical_tail[1:].tolist()

    def test_trace_beyond_float_range_refused(self):
        spec = gaussian_spec([0.0, 0.0], Covariance(1e308 * np.eye(2)))
        with pytest.raises(DomainError, match=r"tr\(Sigma\) is beyond the float range"):
            run_tail_curve(spec, [2.0], 10)

    def test_dict_keys(self):
        curve = run_tail_curve(PAPER, [2.0, 4.0], 1000)
        assert list(curve.to_dict()) == [
            "eps_grid",
            "empirical_tail",
            "new_bound",
            "classical_tail",
            "classical_bound",
        ]


N_SAMPLES_TAKERS = {
    "draw": lambda n: draw(PAPER, n),
    "run_coverage": lambda n: run_coverage(PAPER, 0.1, n),
    "run_coverage_estimated": lambda n: run_coverage_estimated(PAPER, 0.1, n),
    "run_tail_curve": lambda n: run_tail_curve(PAPER, [2.0], n),
    "trace_identity_check": lambda n: trace_identity_check(PAPER, n),
}


@pytest.mark.parametrize("n", [5.7, True, 0], ids=["float", "bool", "zero"])
@pytest.mark.parametrize("call", N_SAMPLES_TAKERS.values(), ids=N_SAMPLES_TAKERS.keys())
def test_n_samples_must_be_a_positive_integer(call, n):
    with pytest.raises(UsageError, match="n_samples must be a positive integer"):
        call(n)


STREAMS_TAKERS = {
    "run_coverage": lambda s: run_coverage(PAPER, 0.1, 100, streams=s),
    "run_coverage_estimated": lambda s: run_coverage_estimated(PAPER, 0.1, 100, streams=s),
    "run_tail_curve": lambda s: run_tail_curve(PAPER, [2.0], 100, streams=s),
}


@pytest.mark.parametrize("streams", [2.5, "2", True, None, 0], ids=["float", "str", "bool", "none", "zero"])
@pytest.mark.parametrize("call", STREAMS_TAKERS.values(), ids=STREAMS_TAKERS.keys())
def test_streams_must_be_a_positive_integer(call, streams):
    with pytest.raises(UsageError, match="streams must be a positive integer"):
        call(streams)


def test_numpy_integer_streams_accepted():
    assert run_coverage(PAPER, 0.1, 100, streams=np.int64(2)) == run_coverage(PAPER, 0.1, 100)
    tail = run_tail_curve(PAPER, [2.0], 100, streams=np.int32(2))
    assert tail.to_dict() == run_tail_curve(PAPER, [2.0], 100).to_dict()


def test_numpy_integer_n_samples_accepted():
    ell, _ = run_coverage(PAPER, 0.1, np.int64(10))
    assert type(ell.n_samples) is int and ell.n_samples == 10
    assert np.array_equal(draw(PAPER, np.int32(10)), draw(PAPER, 10))


SMALL_CHUNK = 128  # normals per chunk in TestReducer: N = 5000 spans many chunks
REDUCER_SPECS = [
    paper_example_spec(1.0, 25.0, seed=41),
    gaussian_spec(np.arange(9.0), Covariance.from_matrix(np.eye(9) + 0.5), seed=42),
    tight_radial_spec(8.0, dim=2, seed=43),
    # above the layout crossover, so on row-major tiles
    gaussian_spec(np.arange(40.0), Covariance.from_matrix(np.eye(40) + 0.5), seed=44),
    tight_radial_spec(80.0, mean=np.ones(40), cov=Covariance.from_matrix(np.eye(40) + 0.5), seed=45),
]
REDUCER_IDS = ["paper_example", "gaussian", "tight_radial", "gaussian-d40", "tight_radial-d40"]


def _hits(x, mean, cov, delta):
    regions = (make_ellipsoid(mean, cov, delta), make_sphere(mean, cov, delta))
    return [int(np.sum(contains(region, x))) for region in regions]


class TestReducer:
    """Fixed chunks combined in chunk order: same results for every worker
    count, equal to an in-memory computation on ``draw(spec, N)``."""

    N = 5000
    DELTA = 0.2
    GRID = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(sampler, "_CHUNK_NORMALS", SMALL_CHUNK)

    def _record_draws(self, monkeypatch) -> list:
        calls = []
        original = experiments.offset_tiles

        def recording(spec, start, stop, stream_index=0):
            calls.append((start, stop))
            return original(spec, start, stop, stream_index)

        monkeypatch.setattr(experiments, "offset_tiles", recording)
        return calls

    def _draws_per_index(self, calls) -> np.ndarray:
        per_index = np.zeros(self.N, dtype=int)
        for start, stop in calls:
            per_index[start:stop] += 1
        return per_index

    def _run_all(self, monkeypatch, spec, streams):
        """Every experiment, with ``streams`` workers in every reduction,
        plus the moments fitted by the estimated mode."""
        fits = []
        reduce, fit = experiments._reduce, experiments.moments_from_sums

        def reduce_with_streams(spec, n_samples, per_tile, streams_ignored=1):
            return reduce(spec, n_samples, per_tile, streams)

        def recording_fit(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(experiments, "_reduce", reduce_with_streams)
        monkeypatch.setattr(experiments, "moments_from_sums", recording_fit)
        both = run_coverage_estimated(spec, self.DELTA, self.N, streams=streams)
        tail = run_tail_curve(spec, self.GRID, self.N)
        return {
            "hits": [r.hits for r in run_coverage(spec, self.DELTA, self.N, streams=streams)],
            "true": [r.hits for r in both["true"]],
            "estimated": [r.hits for r in both["estimated"]],
            "tails": (tail.empirical_tail.tolist(), tail.classical_tail.tolist()),
            "trace": trace_identity_check(spec, self.N),
            "fit": fits[0],
        }

    @pytest.mark.parametrize("spec", REDUCER_SPECS, ids=REDUCER_IDS)
    def test_streams_and_in_memory_reference_agree(self, monkeypatch, spec):
        assert self.N > 10 * chunk_size(spec)
        runs = {}
        for streams in (1, 2, 3):
            with monkeypatch.context() as m:
                runs[streams] = self._run_all(m, spec, streams)
        fit = runs[1].pop("fit")
        for streams in (2, 3):
            other = runs[streams].pop("fit")
            assert np.array_equal(other.cov.entries, fit.cov.entries)
            assert runs[streams] == runs[1]

        x = draw(spec, self.N)
        mean, cov = true_moments(spec)
        ref = estimate_moments(x)
        scale = np.max(np.abs(ref.cov.entries))
        assert np.max(np.abs(fit.cov.entries - ref.cov.entries)) <= 1e-12 * scale
        # the reducer fits the offsets from the mean, so its mean is the fitted less the true
        assert np.allclose(fit.mean + mean, ref.mean, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref.mean)))
        assert runs[1]["hits"] == runs[1]["true"] == _hits(x, mean, cov, self.DELTA)
        assert runs[1]["estimated"] == _hits(x, ref.mean, ref.cov, self.DELTA)
        d = x - mean
        d2 = quad_form(x - mean, cov.whitener)
        sq = np.einsum("ij,ij->i", d, d)
        grid = np.array(self.GRID)
        assert runs[1]["tails"] == (
            (np.sum(d2[:, None] >= grid, axis=0) / self.N).tolist(),
            (np.sum(sq[:, None] >= grid * cov.trace, axis=0) / self.N).tolist(),
        )
        assert runs[1]["trace"] == pytest.approx(np.mean(d2), rel=1e-12)

    @pytest.mark.parametrize("spec", REDUCER_SPECS, ids=REDUCER_IDS)
    def test_tail_streams_give_identical_tails(self, spec):
        curves = [run_tail_curve(spec, self.GRID, self.N, streams=s).to_dict() for s in (1, 2, 3)]
        assert curves[0] == curves[1] == curves[2]

    @pytest.mark.parametrize("entries", [1, 24])
    @pytest.mark.parametrize("spec", REDUCER_SPECS, ids=REDUCER_IDS)
    def test_tiles_of_a_few_rows_change_no_count(self, monkeypatch, spec, entries):
        # the sampler draws and the reducer measures tile by tile, so tiles of a
        # few rows may move the samples' last bits (a product of a few rows can
        # round otherwise), but no count
        def counts():
            both = run_coverage_estimated(spec, self.DELTA, self.N, streams=2)
            tail = run_tail_curve(spec, self.GRID, self.N, streams=2)
            return {
                "hits": [r.hits for r in run_coverage(spec, self.DELTA, self.N, streams=2)],
                "true": [r.hits for r in both["true"]],
                "estimated": [r.hits for r in both["estimated"]],
                "tails": (tail.empirical_tail.tolist(), tail.classical_tail.tolist()),
            }

        def tile_rows():
            return [len(x) for x in sampler.offset_tiles(spec, 0, chunk_size(spec))]

        assert len(tile_rows()) == 1  # the default tile holds a small chunk whole
        default = counts()
        monkeypatch.setattr(sampler, "_TILE_ENTRIES", entries)
        monkeypatch.setattr(sampler, "_TILE_ROWS", 1)
        # a shorter remainder joins the last tile
        assert max(tile_rows()) < 2 * max(1, entries // spec.dim)
        assert len(tile_rows()) > 1
        assert counts() == default

    def test_tail_levels_hit_exactly_count_as_reached(self):
        # with unit variance in 1-D both distances are x^2, so a grid made of
        # drawn values puts samples exactly on its levels: the tail is d^2 >= eps
        spec = gaussian_spec([0.0], Covariance.from_matrix([[1.0]]), seed=44)
        d2 = draw(spec, self.N)[:, 0] ** 2
        grid = np.sort(d2[[3, 1000, 2500, 4999]])
        curve = run_tail_curve(spec, grid, self.N)
        reached = (np.sum(d2[:, None] >= grid, axis=0) / self.N).tolist()
        assert curve.empirical_tail.tolist() == curve.classical_tail.tolist() == reached
        assert reached != (np.sum(d2[:, None] > grid, axis=0) / self.N).tolist()

    @pytest.mark.parametrize("spec", REDUCER_SPECS, ids=REDUCER_IDS)
    def test_tail_counts_at_the_edges_of_the_drawn_range(self, spec):
        size = chunk_size(spec)
        assert self.N % size != 0  # the last chunk is partial
        cov = spec.cov
        # both distances tile by tile from the offsets the reducer draws, so they
        # round as its own do and levels set on them tie exactly
        d2, sq = map(np.concatenate, zip(*[
            (quad_form(x, cov.whitener), np.einsum("ij,ij->i", x, x))
            for start in range(0, self.N, size)
            for x in sampler.offset_tiles(spec, start, min(start + size, self.N))
        ]))
        levels = np.concatenate([d2, sq / cov.trace])
        levels = levels[levels > 0]
        outside = np.array([levels.min() / 2, levels.max() * 2])
        # tight_radial alone puts samples at d^2 = 0, which no positive level lies below
        below = float(np.mean(d2 > 0))
        assert below == 1.0 or spec.kind == "tight_radial"
        # quantiles that are drawn values put samples exactly on the levels;
        # tight_radial has only a few distinct d^2 > 0, so its grid is those few
        dense = np.unique(np.quantile(d2[d2 > 0], np.linspace(0, 1, 200), method="inverted_cdf"))
        assert len(dense) == 200 or spec.kind == "tight_radial"
        curves = [run_tail_curve(spec, grid, self.N) for grid in (outside, dense)]
        for grid, curve in zip((outside, dense), curves):
            assert curve.empirical_tail.tolist() == (
                np.sum(d2[:, None] >= grid, axis=0) / self.N
            ).tolist()
            assert curve.classical_tail.tolist() == (
                np.sum(sq[:, None] >= grid * cov.trace, axis=0) / self.N
            ).tolist()
        assert curves[0].empirical_tail.tolist() == curves[0].classical_tail.tolist() == [below, 0.0]

    def test_each_index_drawn_once_per_pass_one_chunk_at_a_time(self, monkeypatch):
        chunk = chunk_size(PAPER)
        calls = self._record_draws(monkeypatch)
        run_coverage(PAPER, self.DELTA, self.N, streams=2)
        assert np.all(self._draws_per_index(calls) == 1)
        assert max(b - a for a, b in calls) <= chunk

        calls.clear()
        run_coverage_estimated(PAPER, self.DELTA, self.N, streams=3)
        assert np.all(self._draws_per_index(calls) == 2)
        assert max(b - a for a, b in calls) <= chunk

        calls.clear()
        argv = ["coverage", "--spec", json.dumps(spec_to_dict(PAPER)), "--delta", "0.2",
                "--n", str(self.N), "--estimated", "--streams", "2"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert set(json.loads(out.getvalue())) == {"ellipsoid", "sphere", "estimated"}
        assert np.all(self._draws_per_index(calls) == 2)
        assert max(b - a for a, b in calls) <= chunk

    def test_at_most_two_chunks_per_stream_in_flight(self, monkeypatch):
        calls, drawn = [], []
        original = experiments.offset_tiles

        def recording(spec, start, stop, stream_index=0):
            calls.append((start, stop))
            if start == 0:
                time.sleep(0.05)  # ample time for idle workers to draw whatever was submitted
                drawn.append(len(calls))
            return original(spec, start, stop, stream_index)

        monkeypatch.setattr(experiments, "offset_tiles", recording)
        assert experiments._reduce(PAPER, self.N, len, 2) == self.N
        # four submitted up front, one more as the first result was summed
        assert drawn[0] <= 5

    def test_workers_are_bounded_by_the_chunks_and_the_cpus(self, monkeypatch):
        # a pool sized by streams alone starts one OS thread per chunk submitted
        sizes, pool = [], experiments.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", recording)
        n = 3 * chunk_size(PAPER)
        assert experiments._reduce(PAPER, n, len, 10 ** 6) == n
        assert experiments._reduce(PAPER, 10, len, 4) == 10
        assert 1 <= sizes[0] <= min(3, os.cpu_count()) and sizes[1] == 1

    @pytest.mark.parametrize("streams", [1, 2])
    def test_later_results_are_added_into_the_first_in_place(self, streams):
        # per_tile returns a fresh array each call, so the sum needs no array of
        # its own: the reducer returns the first tile's result, every other added in
        returned, n = [], 3 * chunk_size(PAPER) + 5

        def per_tile(x):
            returned.append(np.array([len(x)]))
            return returned[-1]

        total = experiments._reduce(PAPER, n, per_tile, streams)
        assert any(total is r for r in returned)
        assert total.tolist() == [n]

    @pytest.mark.parametrize("spec", REDUCER_SPECS, ids=REDUCER_IDS)
    def test_the_fold_keeps_tile_and_chunk_order(self, monkeypatch, spec):
        # two tiles a chunk, a + that does not commute (list concatenation),
        # and tiles that sleep by their first value, so chunks complete out of order
        monkeypatch.setattr(sampler, "_TILE_ENTRIES", 64)
        monkeypatch.setattr(sampler, "_TILE_ROWS", 1)

        def per_tile(x):
            if x[0, 0] > 0.5:
                time.sleep(0.001)
            return [float(x[0, 0]), len(x)]

        serial = functools.reduce(operator.add, map(per_tile, sampler.offset_tiles(spec, 0, self.N)))
        assert max(serial[1::2]) < chunk_size(spec)  # tiles are shorter than chunks
        for streams in (1, 2, 3):
            assert experiments._reduce(spec, self.N, per_tile, streams) == serial

    def test_peak_memory_is_flat_in_the_chunk_count(self):
        chunk = chunk_size(PAPER)

        def peak(n_chunks):
            tracemalloc.start()
            try:
                run_coverage(PAPER, self.DELTA, n_chunks * chunk, streams=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200), peak(2000)
        assert large <= 1.5 * small, (small, large)

    @pytest.mark.parametrize("spec", REDUCER_SPECS, ids=REDUCER_IDS)
    def test_fitted_moments_match_an_exact_sum_of_the_offsets(self, monkeypatch, spec):
        fits, fit = [], experiments.moments_from_sums

        def recording_fit(sums):
            fits.append(fit(sums))
            return fits[-1]

        monkeypatch.setattr(experiments, "moments_from_sums", recording_fit)
        run_coverage_estimated(spec, self.DELTA, self.N, streams=2)
        # the same offsets, copied as each tile is overwritten by the next
        x = np.concatenate([t.copy() for t in sampler.offset_tiles(spec, 0, self.N)])
        s = np.array([math.fsum(c) for c in x.T])
        cov = np.array([[math.fsum(x[:, i] * x[:, j]) for j in range(spec.dim)] for i in range(spec.dim)])
        cov = (cov - np.outer(s, s) / self.N) / (self.N - 1)
        scale = np.max(np.abs(cov))
        assert np.max(np.abs(fits[0].cov.entries - cov)) <= 1e-13 * scale
        assert np.max(np.abs(fits[0].mean - s / self.N)) <= 1e-13 * np.sqrt(scale)

    def test_merged_moments_beyond_float_range_exit_3_without_warning(self, capsys):
        # one chunk's scatter (about 64e306) is in range; the merge of many is not
        spec = {"kind": "gaussian", "mean": [0, 0], "cov": [[1e306, 0], [0, 1e306]]}
        argv = ["coverage", "--spec", json.dumps(spec), "--delta", "0.1",
                "--n", "1000", "--estimated"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err == "mvcheb: error: the sample moments are beyond the float range\n"


def test_summed_moments_beyond_float_range_exit_3_without_warning(capsys):
    # at the default chunk size each 4,096-row tile sums to about 4e307, in
    # range; the sum of the chunk's tiles is not
    spec = {"kind": "gaussian", "mean": [0, 0], "cov": [[1e304, 0], [0, 1e304]]}
    argv = ["coverage", "--spec", json.dumps(spec), "--delta", "0.1",
            "--n", "20000", "--estimated"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err == "mvcheb: error: the sample moments are beyond the float range\n"


@pytest.mark.parametrize("spec", [
    PAPER, gaussian_spec([1.0, -2.0, 0.5], Covariance(np.eye(3) + 0.5), seed=7),
], ids=lambda s: s.kind)
def test_hits_equal_contains_on_the_row_major_sample(spec):
    # the kernels run on tiles, column-major at these n; contains here on one
    # C-order array of the whole draw
    n = 2 * chunk_size(spec) + 1001
    x = np.ascontiguousarray(draw(spec, n))
    assert [r.hits for r in run_coverage(spec, 0.7, n, streams=2)] == _hits(x, *true_moments(spec), 0.7)


def test_coverage_peak_memory_is_flat_in_n():
    def peak(n):
        tracemalloc.start()
        try:
            run_coverage(PAPER, 0.1, n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1 << 18), peak(1 << 20)
    assert large <= 1.5 * small, (small, large)


# Peak traced memory per worker, in tiles of max(256, 2**13 // n) samples, at
# most a chunk: two tiles at once, the normals and the offsets while a tile is
# drawn and the offsets and W d while it is measured, plus the small arrays of
# the kernels. It measured 2.8 (coverage) to 3.2 (tail) tiles on paper_example
# and 3.0 in the estimated pass at n=64, while a whole chunk is 16 and 8 tiles
# there. At n=512 a tile is a whole chunk: README's bound of 2 tiles per
# worker plus L and W, n^2 8-byte entries each (L is built before the trace
# starts; W is derived inside it).
PEAK_TILES_PER_STREAM = {"": 6, "d64": 6, "d512": 3}


def _gaussian(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    return gaussian_spec(np.zeros(n), Covariance(a @ a.T / n + 0.01 * np.eye(n)), seed=1)


def test_estimated_peak_at_n64_is_below_four_tiles():
    # one worker holds two 128 KB tiles at once, not four: the normals are
    # released before a tile is yielded, the product is written into the
    # row-major tile, and the fitted centre is subtracted in place. The rest
    # is the fitted Covariance and W, n^2 entries each
    spec, tile_bytes = _gaussian(64), 256 * 64 * 8
    tracemalloc.start()
    try:
        run_coverage_estimated(spec, 0.1, 1 << 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * tile_bytes, peak / tile_bytes


@pytest.mark.parametrize("spec", REDUCER_SPECS, ids=REDUCER_IDS)
def test_a_per_tile_callable_owns_its_tile(monkeypatch, spec):
    # a callable that fills each tile with NaN once it has read it changes no
    # later tile and no count: the sampler rewrites every entry of the next
    n = 2 * chunk_size(spec) + 1001

    def run():
        tiles = experiments._reduce(spec, n, lambda x: [x.tobytes()], 2)
        both = run_coverage_estimated(spec, 0.1, n, streams=2)
        hits = [r.hits for r in (*run_coverage(spec, 0.1, n, streams=2), *both["true"], *both["estimated"])]
        tail = run_tail_curve(spec, [0.5, 2.0, 8.0, 60.0], n, streams=2).to_dict()
        return tiles, hits, tail, trace_identity_check(spec, n)

    untouched, reduce = run(), experiments._reduce

    def scribbling(spec, n_samples, per_tile, streams=1):
        def owner(x):
            result = per_tile(x)
            x.fill(np.nan)
            return result
        return reduce(spec, n_samples, owner, streams)

    monkeypatch.setattr(experiments, "_reduce", scribbling)
    assert run() == untouched


@pytest.mark.parametrize("streams", [1, 2])
@pytest.mark.parametrize(
    "experiment", ["coverage", "tail", "estimated_d64", "coverage_d512", "tail_d512"]
)
def test_peak_memory_is_one_chunk_per_stream(experiment, streams):
    kind, _, high = experiment.partition("_")
    spec = _gaussian(int(high[1:])) if high else PAPER
    size = chunk_size(spec)
    n = 4 * size
    run = {
        "coverage": lambda: run_coverage(spec, 0.1, n, streams=streams),
        "tail": lambda: run_tail_curve(spec, np.geomspace(1, 400, 200), n, streams=streams),
        "estimated": lambda: run_coverage_estimated(spec, 0.1, n, streams=streams),
    }[kind]
    tile_bytes = min(size, max(sampler._TILE_ROWS, sampler._TILE_ENTRIES // spec.dim)) * spec.dim * 8
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = streams * PEAK_TILES_PER_STREAM[high] * tile_bytes + 2 * spec.dim ** 2 * 8
    assert peak < bound, peak / tile_bytes


class TestFigureExport:
    def test_reference_parameters(self):
        fig = export_figure(seed=2024)
        assert fig.threshold == pytest.approx(20.0, rel=1e-15)
        assert fig.radius_sq == pytest.approx(270.0, rel=1e-15)
        assert fig.samples.shape == (1000, 2)
        assert fig.ellipse_boundary.shape == (256, 2)
        assert fig.circle_boundary.shape == (256, 2)
        assert fig.params == {
            "sigma": 1.0, "k": 25.0, "delta": 0.1, "seed": 2024, "N": 1000,
        }

    def test_boundaries_satisfy_region_equations(self):
        fig = export_figure(seed=1)
        cov = example_covariance(1.0, 25.0)
        d2 = quad_form(fig.ellipse_boundary, cov.whitener)
        assert np.max(np.abs(d2 - fig.threshold)) <= 1e-9
        sq = np.einsum("ij,ij->i", fig.circle_boundary, fig.circle_boundary)
        assert np.max(np.abs(sq - fig.radius_sq)) <= 1e-9

    def test_most_samples_inside_ellipse(self):
        fig = export_figure(seed=7)
        cov = example_covariance(1.0, 25.0)
        d2 = quad_form(fig.samples, cov.whitener)
        assert (d2 <= fig.threshold).mean() >= 0.9

    def test_deterministic(self):
        a = export_figure(seed=5)
        b = export_figure(seed=5)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.ellipse_boundary, b.ellipse_boundary)
        assert figure_csv_texts(a) == figure_csv_texts(b)

    def test_csv_texts_parse_back(self):
        fig = export_figure(n_samples=10, boundary_points=8, seed=3)
        texts = figure_csv_texts(fig)
        assert set(texts) == {"samples", "ellipse", "circle"}
        for name, arr in (
            ("samples", fig.samples),
            ("ellipse", fig.ellipse_boundary),
            ("circle", fig.circle_boundary),
        ):
            lines = texts[name].strip().splitlines()
            assert lines[0] == "x,y"
            parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
            assert np.array_equal(parsed, arr)

    def test_manifest(self, tmp_path):
        fig = export_figure(seed=4)
        assert cli.main(["figure", "--seed", "4", "--out-prefix", str(tmp_path / "f_")]) == 0
        man = json.loads((tmp_path / "f_manifest.json").read_text())
        assert man["threshold"] == fig.threshold
        assert man["radius_sq"] == fig.radius_sq
        assert man["params"]["k"] == 25.0
        assert man["files"] == {name: f"f_{name}.csv" for name in ("samples", "ellipse", "circle")}
        assert man["stream_format"] == 4  # the samples' stream, as sampler.STREAM_FORMAT names it

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(boundary_points=8.9), "boundary point count must be a positive integer"),
            (dict(boundary_points=True), "boundary point count must be a positive integer"),
            (dict(seed=1.7), "seed must be an integer"),
        ],
    )
    def test_non_integer_points_or_seed_refused(self, kwargs, match):
        with pytest.raises(UsageError, match=match):
            export_figure(n_samples=5, **kwargs)

    @pytest.mark.parametrize("points", [0, -5])
    def test_non_positive_points_refused_as_a_count(self, points):
        with pytest.raises(UsageError, match="boundary point count must be a positive integer"):
            export_figure(n_samples=5, boundary_points=points)

    def test_csv_texts_are_the_repr_of_each_value(self):
        fig = export_figure(n_samples=50, boundary_points=9, seed=6)
        texts = figure_csv_texts(fig)
        for name, arr in (
            ("samples", fig.samples),
            ("ellipse", fig.ellipse_boundary),
            ("circle", fig.circle_boundary),
        ):
            rows = "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in arr)
            assert texts[name] == "x,y\n" + rows

    def test_circle_is_the_sphere_boundary(self):
        fig = export_figure(boundary_points=33, seed=2)
        mean, cov = true_moments(paper_example_spec(1.0, 25.0, seed=2))
        sph = make_sphere(mean, cov, 0.1)
        assert np.array_equal(fig.circle_boundary, ellipse_boundary(sph, 33))


# A rotation of diag(1, 1e-10), which Covariance accepts. Through an explicit
# Sigma^-1 (error ~ cond(Sigma) u) 3,480 of the tight_radial atoms at
# d^2 = eps (1 + 1e-8) computed inside the region; the whitener's error is
# ~ sqrt(cond(Sigma)) u, far below the 1e-8 shell margin.
ILL_CONDITIONED = {
    "kind": "tight_radial", "eps": 20, "seed": 1,
    "cov": [[0.9126678074635723, 0.2823212366692855], [0.2823212366692855, 0.08733219263642762]],
}


class TestIllConditionedCovariance:
    """A tight_radial sample is an atom exactly where it differs from the
    mean, so the atoms are counted without computing any distance."""

    def test_every_atom_outside_the_region(self):
        spec = spec_from_dict(ILL_CONDITIONED)
        n = 100_000
        atoms = int(np.count_nonzero(np.any(draw(spec, n) != spec.mean, axis=1)))
        assert atoms == 10_137
        ell, _ = run_coverage(spec, 0.1, n)
        assert ell.hits == n - atoms == 89_863
        assert run_tail_curve(spec, [10.0, 20.0], n).empirical_tail[1] == atoms / n

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(
        n=st.integers(2, 64),
        log_cond=st.floats(10.0, 11.0),
        eps_per_dim=st.floats(1.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_rotations(self, n, log_cond, eps_per_dim, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = 10.0 ** (-log_cond * np.linspace(0.0, 1.0, n))
        cov = Covariance((q * eig) @ q.T)
        spec = tight_radial_spec(n * eps_per_dim, cov=cov, seed=seed)
        x = draw(spec, 256)
        atoms = np.any(x != spec.mean, axis=1)
        region = Region(spec.mean, spec.eps, cov)
        assert np.array_equal(contains(region, x), ~atoms)
        d2 = quad_form(x[atoms] - spec.mean, cov.whitener)
        assert np.all(np.abs(d2 / spec.eps - (1.0 + 1e-8)) <= 1e-9)
        tail = run_tail_curve(spec, [spec.eps], 256).empirical_tail[0]
        assert tail == np.count_nonzero(atoms) / 256
