"""Monte Carlo experiment operations: coverage, trace identity, tail
curves, figure export. The chi-square law of d^2 for Gaussian draws gives
independent expected values."""

import numpy as np
import pytest
from scipy.stats import chi2

from mvcheb import (
    Covariance,
    EmptyGrid,
    InvalidSpec,
    example_covariance,
    export_figure,
    figure_csv_texts,
    figure_manifest,
    gaussian_spec,
    invert_spd,
    mahalanobis_sq,
    paper_example_spec,
    run_coverage,
    run_coverage_estimated,
    run_tail_curve,
    tight_radial_spec,
    trace_identity_check,
)

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
            with pytest.raises(InvalidSpec):
                run_coverage(PAPER, 0.1, 100, streams=streams)

    def test_explicit_true_moments_override(self):
        mean, cov = np.zeros(2), example_covariance(1.0, 25.0)
        ell, _ = run_coverage(PAPER, 0.1, 1000, true_mean=mean, true_cov=cov)
        ref, _ = run_coverage(PAPER, 0.1, 1000)
        assert ell.hits == ref.hits

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
        assert np.allclose(curve.new_bound, curve.classical_bound, rtol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(EmptyGrid):
            run_tail_curve(PAPER, [], 100)
        with pytest.raises(ValueError):
            run_tail_curve(PAPER, [4.0, 2.0], 100)
        for bad in ([-1.0, 2.0], [2.0, np.nan], [2.0, np.inf]):
            with pytest.raises(ValueError):
                run_tail_curve(PAPER, bad, 100)

    def test_dict_keys(self):
        curve = run_tail_curve(PAPER, [2.0, 4.0], 1000)
        assert list(curve.to_dict()) == [
            "eps_grid",
            "empirical_tail",
            "new_bound",
            "classical_tail",
            "classical_bound",
        ]


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
        d2 = mahalanobis_sq(fig.ellipse_boundary, np.zeros(2), invert_spd(cov))
        assert np.max(np.abs(d2 - fig.threshold)) <= 1e-9
        sq = np.einsum("ij,ij->i", fig.circle_boundary, fig.circle_boundary)
        assert np.max(np.abs(sq - fig.radius_sq)) <= 1e-9

    def test_most_samples_inside_ellipse(self):
        fig = export_figure(seed=7)
        cov = example_covariance(1.0, 25.0)
        d2 = mahalanobis_sq(fig.samples, np.zeros(2), invert_spd(cov))
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

    def test_manifest(self):
        fig = export_figure(seed=4)
        man = figure_manifest(fig, files={"samples": "s.csv"})
        assert man["threshold"] == fig.threshold
        assert man["radius_sq"] == fig.radius_sq
        assert man["params"]["k"] == 25.0
        assert man["files"] == {"samples": "s.csv"}
