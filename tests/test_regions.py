"""Bounds, regions, volumes and the volume ratio.

Volume oracles are direct geometric formulas (disc area, 3-ball constant)
that never touch the gamma-function route used by the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from mvcheb import regions
from mvcheb import (
    BoundValue,
    Covariance,
    DomainError,
    Region,
    UsageError,
    chebyshev_bound,
    classical_bound,
    contains,
    ellipse_boundary,
    example_covariance,
    example_ratio,
    log_volume_ratio,
    make_ellipsoid,
    make_sphere,
    quad_form,
    region_from_dict,
    region_to_dict,
    volume,
    volume_ratio,
)

EXAMPLE = Covariance.from_matrix([[1.0, 1.0], [1.0, 26.0]])


def unit_ball(n):
    return Region(np.zeros(n), 1.0)


def random_spd_cov(rng, n):
    a = rng.standard_normal((n, n))
    return Covariance.from_matrix(a @ a.T + 0.5 * np.eye(n))


class TestBounds:
    def test_figure_regime(self):
        b = chebyshev_bound(2, 20.0)
        assert b.raw == pytest.approx(0.1, rel=1e-15)
        assert b.clamped == b.raw

    def test_vacuous_clamped(self):
        b = chebyshev_bound(2, 1.0)
        assert b.raw == 2.0
        assert b.clamped == 1.0

    def test_classical_values(self):
        assert classical_bound(27.0, math.sqrt(270.0)).raw == pytest.approx(0.1, rel=1e-12)
        assert classical_bound(1.0, 1.0).raw == 1.0
        assert classical_bound(4.0, 4.0).raw == 0.25

    def test_scalar_reduction(self):
        # substituting eps -> eps^2/var turns n/eps into var/eps^2 at n=1
        rng = np.random.default_rng(3)
        for _ in range(100):
            var = float(rng.uniform(0.01, 50.0))
            eps = float(rng.uniform(0.01, 50.0))
            new = chebyshev_bound(1, eps**2 / var).raw
            classic = classical_bound(var, eps).raw
            assert new == pytest.approx(classic, rel=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(UsageError, match="eps must be positive"):
            chebyshev_bound(2, 0.0)
        with pytest.raises(UsageError, match="eps must be positive"):
            classical_bound(1.0, -1.0)
        with pytest.raises(UsageError, match="total variance must be positive"):
            classical_bound(0.0, 1.0)
        with pytest.raises(UsageError, match="dimension must be a positive integer"):
            chebyshev_bound(0, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(UsageError, match="eps must be positive"):
                chebyshev_bound(2, bad)
            with pytest.raises(UsageError, match="eps must be positive"):
                classical_bound(1.0, bad)
            with pytest.raises(UsageError, match="total variance must be positive"):
                classical_bound(bad, 1.0)


    def test_eps_square_beyond_float_range(self):
        assert classical_bound(1e300, 1e200).raw == pytest.approx(1e-100, rel=1e-15)
        assert classical_bound(1.0, 1e200).raw == 0.0
        assert classical_bound(1.0, 1e-200) == BoundValue(raw=math.inf, clamped=1.0)
        with pytest.raises(DomainError, match="dimension must be a positive integer"):
            chebyshev_bound(10**400, 1.0)

    def test_dimension_is_a_count(self):
        # the rule of errors.as_count, which n_samples, streams and dim follow too
        assert chebyshev_bound(np.int64(2), 20.0) == chebyshev_bound(2, 20.0)
        for n in (-1, True, 3.0, "2", None):
            with pytest.raises(UsageError, match="dimension must be a positive integer"):
                chebyshev_bound(n, 1.0)


class TestMahalanobis:
    def test_at_center(self):
        assert quad_form(np.zeros(2), EXAMPLE.whitener) == 0.0

    def test_identity_is_euclidean(self):
        w = np.eye(3)
        x = np.array([1.0, 2.0, 2.0])
        assert quad_form(x, w) == pytest.approx(9.0, rel=1e-15)

    def test_example_value(self):
        w = EXAMPLE.whitener
        assert quad_form([1.0, 1.0], w) == pytest.approx(1.0, rel=1e-12)

    def test_whitening_cross_check(self):
        # d^2 computed through the cached whitener must agree with the
        # squared norm of the offset whitened by scipy's triangular solve
        rng = np.random.default_rng(21)
        for n in (1, 2, 4, 6):
            cov = random_spd_cov(rng, n)
            w = cov.whitener
            center = rng.standard_normal(n)
            for _ in range(25):
                x = center + rng.standard_normal(n) * 3.0
                d2 = quad_form(x - center, w)
                white = solve_triangular(cov.chol, x - center, lower=True)
                assert d2 == pytest.approx(float(white @ white), rel=1e-9, abs=1e-12)


class TestRegions:
    def test_thresholds(self):
        assert make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1).level == pytest.approx(20.0, rel=1e-15)
        one = Covariance.from_matrix([[1.0]])
        assert make_ellipsoid([0.0], one, 0.5).level == 2.0
        three = Covariance.from_matrix(np.eye(3))
        assert make_ellipsoid(np.zeros(3), three, 0.25).level == 12.0

    def test_radii(self):
        assert make_sphere([0.0, 0.0], EXAMPLE, 0.1).level == pytest.approx(270.0, rel=1e-15)
        eye2 = Covariance.from_matrix(np.eye(2))
        assert make_sphere([0.0, 0.0], eye2, 0.5).level == 4.0
        four = Covariance.from_matrix([[4.0]])
        assert make_sphere([0.0], four, 0.1).level == pytest.approx(40.0, rel=1e-15)

    def test_delta_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError, match="delta must lie in"):
                make_ellipsoid([0.0, 0.0], EXAMPLE, bad)
            with pytest.raises(DomainError, match="delta must lie in"):
                make_sphere([0.0, 0.0], EXAMPLE, bad)

    def test_center_membership(self):
        center = [0.5, -1.0]
        ell = make_ellipsoid(center, EXAMPLE, 0.1)
        sph = make_sphere(center, EXAMPLE, 0.1)
        assert contains(ell, center) and contains(sph, center)

    def test_closed_boundary(self):
        # exact arithmetic case: identity covariance, threshold 2/0.5 = 4,
        # point (2, 0) has d^2 = 4 exactly -> member; just outside -> not
        eye2 = Covariance.from_matrix(np.eye(2))
        ell = make_ellipsoid([0.0, 0.0], eye2, 0.5)
        assert ell.level == 4.0
        assert contains(ell, [2.0, 0.0]) is True
        assert contains(ell, [2.0000001, 0.0]) is False
        sph = make_sphere([0.0, 0.0], eye2, 0.5)
        assert sph.level == 4.0
        assert contains(sph, [0.0, 2.0]) is True
        assert contains(sph, [0.0, 2.0000001]) is False

    def test_inside_and_outside_example(self):
        ell = make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1)
        w = EXAMPLE.whitener
        # scale a direction to d^2 just under / just over the threshold
        v = np.array([1.0, 3.0])
        base = quad_form(v, w)
        inside = v * math.sqrt(19.5 / base)
        outside = v * math.sqrt(20.5 / base)
        assert contains(ell, inside)
        assert not contains(ell, outside)

    def test_batched_membership(self):
        ell = make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1)
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert contains(ell, pts).tolist() == [True, False]

    @pytest.mark.parametrize("level", [0.0, -1.0, math.inf, math.nan])
    def test_level_must_be_positive_and_finite(self, level):
        with pytest.raises(UsageError, match="threshold must be positive and finite"):
            Region([0.0, 0.0], level, EXAMPLE)
        with pytest.raises(UsageError, match="radius_sq must be positive and finite"):
            Region([0.0, 0.0], level)

    def test_center_is_checked(self):
        with pytest.raises(DomainError, match="entries must be finite"):
            Region([math.nan, 0.0], 1.0, EXAMPLE)
        with pytest.raises(DomainError, match="entries must be finite"):
            Region([0.0, math.inf], 1.0)
        with pytest.raises(DomainError, match="expected dimension 2"):
            Region([0.0, 0.0, 0.0], 1.0, EXAMPLE)
        with pytest.raises(DomainError, match="expected dimension 2"):
            make_sphere([0.0], EXAMPLE, 0.1)

    def test_ellipsoid_needs_a_covariance(self):
        with pytest.raises(UsageError, match="cov must be a Covariance"):
            Region([0.0, 0.0], 1.0, np.eye(2))

    def test_arrays_are_read_only(self):
        center = np.array([0.5, -1.0])
        ell = make_ellipsoid(center, EXAMPLE, 0.1)
        for array in (ell.center, ell.cov.whitener, make_sphere(center, EXAMPLE, 0.1).center):
            with pytest.raises(ValueError):
                array[0] = 5.0
        center[0] = 7.0  # the caller's array stays writable and the region keeps its copy
        assert ell.center[0] == 0.5

    def test_tiny_covariance_builds_an_ellipsoid(self):
        # Sigma^-1 = 1e310 I is beyond the float range, but the whitener
        # 1e155 I is not, and membership needs only the whitener
        tiny = Covariance.from_matrix(1e-310 * np.eye(2))
        ell = make_ellipsoid([0.0, 0.0], tiny, 0.1)
        assert contains(ell, [4e-155, 0.0]) and not contains(ell, [5e-155, 0.0])

    def test_whitener_beyond_float_range_refused_when_built(self):
        # unit lower-triangular L with -1 below the diagonal: L^-1 has
        # entries 2^(i-j-1), beyond the float range at n = 1100
        n = 1100
        lower = np.eye(n) - np.tril(np.ones((n, n)), -1)
        cov = Covariance.from_matrix(lower @ lower.T)
        assert math.isfinite(log_volume_ratio(cov))  # the ratio needs no whitener
        with pytest.raises(DomainError, match="whitener L\\^-1 is beyond the float range"):
            make_ellipsoid(np.zeros(n), cov, 0.1)

    def test_sphere_radius_beyond_float_range_refused_when_built(self):
        huge = Covariance.from_matrix([[1e308, 0.0], [0.0, 1e308]])
        with pytest.raises(DomainError, match=r"tr\(Sigma\)/delta is beyond the float range"):
            make_sphere([0.0, 0.0], huge, 0.1)

    def test_membership_does_not_recheck_the_region(self, monkeypatch):
        ell = make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1)
        sph = make_sphere([0.0, 0.0], EXAMPLE, 0.1)

        def fail(*args, **kwargs):
            raise AssertionError("region re-checked")

        monkeypatch.setattr(regions, "as_vector", fail)
        monkeypatch.setattr(np.linalg, "solve", fail)  # the whitener is derived once
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert contains(ell, pts).tolist() == [True, False]
        assert contains(sph, pts).tolist() == [True, False]
        with pytest.raises(DomainError, match="point dimension"):
            contains(sph, np.zeros((2, 3)))

    @pytest.mark.parametrize("x", ["ab", [[1.0, 2.0], [3.0]], [1.0, None, "c"]],
                             ids=["string", "ragged", "mixed"])
    def test_points_that_are_not_numeric_are_a_usage_error(self, x):
        for region in (make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1), make_sphere([0.0, 0.0], EXAMPLE, 0.1)):
            with pytest.raises(UsageError, match="point is not a numeric array"):
                contains(region, x)


class TestVolume:
    def test_unit_ball(self):
        assert volume(unit_ball(1)) == pytest.approx(2.0, rel=1e-12)
        assert volume(unit_ball(2)) == pytest.approx(math.pi, rel=1e-12)
        assert volume(unit_ball(3)) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_disc_area(self):
        sph = make_sphere([0.0, 0.0], EXAMPLE, 0.1)
        assert volume(sph) == pytest.approx(270.0 * math.pi, rel=1e-12)

    def test_ellipse_area(self):
        # sqrt(det) = 5, area = 5 * 20 * pi
        ell = make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1)
        assert volume(ell) == pytest.approx(100.0 * math.pi, rel=1e-12)

    def test_ellipsoid_uses_its_own_covariance(self):
        # a covariance other than the worked example: det 84 by the adjugate formula
        cov = Covariance.from_matrix([[4.0, 2.0], [2.0, 22.0]])
        ell = make_ellipsoid([1.0, -1.0], cov, 0.2)
        assert volume(ell) == pytest.approx(math.sqrt(84.0) * 10.0 * math.pi, rel=1e-12)
        pts = ellipse_boundary(ell, 32)
        lower = np.linalg.cholesky(np.array([[4.0, 2.0], [2.0, 22.0]]))
        assert np.allclose(pts[0], [1.0, -1.0] + math.sqrt(10.0) * lower[:, 0], rtol=1e-12)
        d = pts - ell.center
        d2 = np.einsum("ij,ij->i", d @ np.linalg.inv(cov.entries), d)
        assert np.allclose(d2, 10.0, rtol=1e-9)
        assert region_to_dict(ell, delta=0.2)["cov"] == [[4.0, 2.0], [2.0, 22.0]]

    def test_high_dimension_returns_a_number(self):
        # log V_400 of the unit ball by the recursion V_n = V_(n-2) * 2 pi / n from V_0 = 1
        log_unit = sum(math.log(math.pi / j) for j in range(1, 201))
        cov = Covariance.from_matrix(1e-3 * np.eye(400))
        sph, ell = make_sphere(np.zeros(400), cov, 0.1), make_ellipsoid(np.zeros(400), cov, 0.1)
        assert math.log(volume(sph)) == pytest.approx(log_unit + 200 * math.log(4.0), rel=1e-10)
        expect = log_unit + 200 * math.log(4000.0) + 200 * math.log(1e-3)
        assert math.log(volume(ell)) == pytest.approx(expect, rel=1e-10)
        big = Covariance.from_matrix(np.eye(400))
        assert volume(make_sphere(np.zeros(400), big, 0.1)) == math.inf
        assert volume(make_ellipsoid(np.zeros(400), big, 0.1)) == math.inf
        assert volume(unit_ball(2000)) == 0.0

    def test_unit_3ball(self):
        cov = Covariance.from_matrix(np.eye(3))
        sph = make_sphere(np.zeros(3), cov, 0.5)
        object.__setattr__(sph, "level", 1.0)
        assert volume(sph) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


class TestVolumeRatio:
    def test_example_matrix(self):
        assert volume_ratio(EXAMPLE) == pytest.approx(2.7, rel=1e-12)

    def test_isotropic_is_one(self):
        for n in range(1, 7):
            for c in (0.25, 1.0, 9.0):
                cov = Covariance.from_matrix(c * np.eye(n))
                assert volume_ratio(cov) == 1.0

    def test_diag_1_4(self):
        cov = Covariance.from_matrix(np.diag([1.0, 4.0]))
        assert volume_ratio(cov) == pytest.approx(1.25, rel=1e-12)

    def test_isotropic_is_one_at_extreme_scales(self):
        # det = prod(L_ii)^2 leaves the float range in each of these
        for m in (1e-170 * np.eye(2), 1e300 * np.eye(3), 10.0 * np.eye(400), 0.1 * np.eye(400)):
            assert volume_ratio(Covariance.from_matrix(m)) == 1.0
        for c in (1e-150, 0.1, 7.0, 1e150):
            m = c * np.eye(1000)
            assert volume_ratio(Covariance.from_matrix(m)) == 1.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 512),
        c=st.one_of(
            st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
            st.floats(1e-300, 1e300),
        ),
    )
    @example(n=37, c=1e-5)
    @example(n=31, c=4.274858436817779e81)
    @example(n=512, c=1e-320)  # subnormal
    @example(n=2, c=1e-320)
    @example(n=512, c=1e300)
    def test_isotropic_is_exactly_one(self, n, c):
        # every scaled diagonal entry is 1 and the scale is sqrt(c) = L_ii
        cov = Covariance.from_matrix(c * np.eye(n))
        assert log_volume_ratio(cov) == 0.0
        assert volume_ratio(cov) == 1.0

    def test_rotated_isotropic_is_never_below_one(self):
        # c Q Q^T is isotropic up to rounding, so its true log ratio is at
        # least 0 and below the rounding error: the computed one must not be
        # below 0 either
        rng = np.random.default_rng(47)
        for _case in range(500):
            n = int(rng.integers(2, 65))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            cov = Covariance.from_matrix(math.exp(rng.uniform(-300.0, 300.0)) * (q @ q.T))
            assert log_volume_ratio(cov) >= 0.0
            assert volume_ratio(cov) >= 1.0

    def test_always_at_least_one(self):
        rng = np.random.default_rng(42)
        for n in range(1, 7):
            for _ in range(60):
                assert volume_ratio(random_spd_cov(rng, n)) >= 1.0

    def test_scale_invariant(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            cov = random_spd_cov(rng, 3)
            r = volume_ratio(cov)
            for c in (1e-150, 1e-75, 1e-6, 0.5, 7.0, 1e6, 1e75, 1e150):
                scaled = Covariance.from_matrix(c * cov.entries)
                assert volume_ratio(scaled) == pytest.approx(r, rel=1e-12)

    def test_at_least_one_in_hundreds_of_dimensions(self):
        rng = np.random.default_rng(46)
        for n in (100, 200, 300):
            a = rng.standard_normal((n, n))
            wide = Covariance.from_matrix(a @ a.T / n + 0.5 * np.eye(n))
            sym = (a + a.T) / (2.0 * n)  # spectral norm about 1.4/sqrt(n): I + sym stays SPD
            near = Covariance.from_matrix(np.eye(n) + 0.1 * sym)
            for cov in (wide, near):
                assert log_volume_ratio(cov) > 0.0
                assert volume_ratio(cov) >= 1.0

    def test_ratio_where_trace_or_ratio_leaves_the_float_range(self):
        top = Covariance.from_matrix([[1e308, 0.0], [0.0, 1e308]])
        assert top.trace == math.inf and volume_ratio(top) == 1.0
        split = Covariance.from_matrix(np.diag([1e-5] * 200 + [1e5] * 200))
        # sqrt(tr/n) = sqrt(50000.000005), against L_ii = sqrt(1e-5) and sqrt(1e5)
        scale = math.sqrt(50000.000005)
        expect = 200 * (math.log(scale / math.sqrt(1e-5)) + math.log(scale / math.sqrt(1e5)))
        assert log_volume_ratio(split) == pytest.approx(expect, rel=1e-12)
        assert volume_ratio(split) == math.inf

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_diagonal_ellipsoid_lies_between(self, n):
        # Hadamard: det(Sigma) <= prod Sigma_ii, so the ellipsoid of diag(Sigma)
        # has a log ratio to the sphere at most that of Sigma's own ellipsoid
        a = np.random.default_rng(n).standard_normal((n, 2 * n))
        s = a @ a.T
        assert log_volume_ratio(Covariance(np.diag(np.diag(s)))) <= log_volume_ratio(Covariance(s))
        d = np.diag(np.diag(s))  # equality, bit for bit, when Sigma is diagonal
        assert log_volume_ratio(Covariance(np.diag(np.diag(d)))) == log_volume_ratio(Covariance(d))

    def test_delta_free_and_dominance(self):
        # explicit volumes reproduce the closed form at any delta and the
        # sphere is never smaller than the ellipsoid
        rng = np.random.default_rng(44)
        for n in range(1, 7):
            for _ in range(20):
                cov = random_spd_cov(rng, n)
                r = volume_ratio(cov)
                center = np.zeros(n)
                for delta in (0.01, 0.1, 0.5):
                    vb = volume(make_sphere(center, cov, delta))
                    ve = volume(make_ellipsoid(center, cov, delta))
                    assert vb / ve == pytest.approx(r, rel=1e-12)
                    assert vb >= ve * (1.0 - 1e-12)


class TestExampleRatio:
    def test_figure_value(self):
        assert example_ratio(25.0) == pytest.approx(2.7, rel=1e-12)

    def test_minimum_at_two(self):
        assert example_ratio(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_sigma_cancels(self):
        for sigma in (0.3, 1.0, 11.0):
            cov = example_covariance(sigma, 0.08)
            assert volume_ratio(cov) == pytest.approx(example_ratio(0.08), rel=1e-12)

    def test_monotone_away_from_two(self):
        grid = np.geomspace(0.01, 100.0, 201)
        vals = [example_ratio(k) for k in grid]
        for k0, k1, r0, r1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if k1 <= 2.0:
                assert r1 < r0
            elif k0 >= 2.0:
                assert r1 > r0
        assert min(vals) >= math.sqrt(2.0) - 1e-12

    def test_nonpositive_k(self):
        for k in (0.0, float("nan"), float("inf")):
            with pytest.raises(UsageError, match="k must be positive"):
                example_ratio(k)

    def test_k_is_read_as_a_float(self):
        # the rule of errors.as_float, which a spec's sigma, k and eps follow too
        assert example_ratio("2") == example_ratio(2.0)
        for k in ("a", None, [2.0]):
            with pytest.raises(UsageError, match="k must be a number"):
                example_ratio(k)


class TestEllipseBoundary:
    def test_unit_circle_quartet(self):
        eye2 = Covariance.from_matrix(np.eye(2))
        ell = make_ellipsoid([0.0, 0.0], eye2, 0.5)
        object.__setattr__(ell, "level", 1.0)
        pts = ellipse_boundary(ell, 4)
        assert np.allclose(pts, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-12)

    def test_first_point_is_first_cholesky_column(self):
        ell = make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1)
        pts = ellipse_boundary(ell, 8)
        assert np.allclose(pts[0], math.sqrt(20.0) * np.array([1.0, 1.0]), rtol=1e-12)

    def test_points_sit_on_the_level_set(self):
        ell = make_ellipsoid([0.5, -2.0], EXAMPLE, 0.1)
        pts = ellipse_boundary(ell, 64)
        d2 = quad_form(pts - ell.center, ell.cov.whitener)
        assert np.max(np.abs(d2 - ell.level)) <= 1e-9

    def test_membership_flips_just_outside(self):
        ell = make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1)
        pts = ellipse_boundary(ell, 16)
        for p in pts:
            assert contains(ell, p)
            assert not contains(ell, ell.center + 1.001 * (p - ell.center))

    def test_dimension_guard(self):
        cov3 = Covariance.from_matrix(np.eye(3))
        ell3 = make_ellipsoid(np.zeros(3), cov3, 0.5)
        with pytest.raises(DomainError, match="dimension 2 only"):
            ellipse_boundary(ell3, 8)
        with pytest.raises(DomainError, match="dimension 2 only"):
            ellipse_boundary(make_sphere(np.zeros(3), cov3, 0.5), 8)
        with pytest.raises(TypeError, match="not a region"):
            ellipse_boundary(np.zeros(2), 8)

    def test_too_few_or_too_many_points(self):
        ell = make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1)
        sph = make_sphere([0.0, 0.0], EXAMPLE, 0.1)
        for region in (ell, sph):
            with pytest.raises(DomainError, match="at least 3 boundary points"):
                ellipse_boundary(region, 2)
            # refused before numpy is asked for the angle array; 2 * m must not wrap
            for m in (10**19, np.int64(2**62)):
                with pytest.raises(DomainError, match="more than one array can hold"):
                    ellipse_boundary(region, m)

    def test_sphere_boundary_is_the_circle_bit_for_bit(self):
        # reference: the circle traced directly as center + r (cos, sin)
        for center, cov, delta, m in (
            ([0.0, 0.0], EXAMPLE, 0.1, 256),
            ([0.5, -2.0], Covariance.from_matrix([[4.0, 2.0], [2.0, 22.0]]), 0.3, 17),
        ):
            sph = make_sphere(center, cov, delta)
            theta = 2.0 * np.pi * np.arange(m) / m
            circle = sph.center + math.sqrt(sph.level) * np.stack(
                [np.cos(theta), np.sin(theta)], axis=1
            )
            assert np.array_equal(ellipse_boundary(sph, m), circle)


class TestRegionJson:
    def test_ellipsoid_round_trip(self):
        ell = make_ellipsoid([0.25, -1.0], EXAMPLE, 0.1)
        d = region_to_dict(ell, delta=0.1)
        assert d["kind"] == "ellipsoid"
        assert d["threshold"] == pytest.approx(20.0, rel=1e-15)
        back = region_from_dict(d)
        assert back.level == ell.level
        assert np.allclose(back.cov.whitener, ell.cov.whitener)

    def test_sphere_round_trip(self):
        sph = make_sphere([0.0, 0.0], EXAMPLE, 0.1)
        d = region_to_dict(sph)
        assert d == {"kind": "sphere", "center": [0.0, 0.0], "radius_sq": 270.0}
        back = region_from_dict(d)
        assert back.level == sph.level

    def test_ellipsoid_needs_a_delta_in_range(self):
        ell = make_ellipsoid([0.0, 0.0], Covariance(np.eye(2)), 0.5)
        with pytest.raises(UsageError, match="delta must be a number, got None"):
            region_to_dict(ell)
        with pytest.raises(UsageError, match="delta must be a number, got 'x'"):
            region_to_dict(ell, delta="x")
        for delta in (0.0, 1.0, math.nan):
            with pytest.raises(DomainError, match=r"delta must lie in \(0, 1\)"):
                region_to_dict(ell, delta=delta)
        assert region_to_dict(ell, delta=np.float32(0.5))["delta"] == 0.5

    @pytest.mark.parametrize("delta, error, match", [
        ("bogus", UsageError, "delta must be a number, got 'bogus'"),
        (1.5, DomainError, r"delta must lie in \(0, 1\), got 1.5"),
        (0.2, DomainError, r"threshold 20.0 is not n/delta = 10.0 at delta=0.2"),
    ], ids=["not_a_number", "out_of_range", "disagrees_with_the_threshold"])
    def test_ellipsoid_delta_is_checked_both_ways(self, delta, error, match):
        data = region_to_dict(make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1), delta=0.1)
        with pytest.raises(error, match=match):
            region_from_dict({**data, "delta": delta})
        with pytest.raises(error, match=match):  # so what region_to_dict writes reads back
            region_to_dict(region_from_dict(data), delta=delta)
        with pytest.raises(UsageError, match="ellipsoid region is missing field 'delta'"):
            region_from_dict({k: v for k, v in data.items() if k != "delta"})

    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="unknown region kind"):
            region_from_dict({"kind": "cube"})

    @pytest.mark.parametrize(
        "data, match",
        [
            ([1, 2], "region must be a JSON object, got list"),
            ({"kind": "ellipsoid", "center": [0.0], "threshold": 1.0}, "missing field 'cov'"),
            ({"kind": "sphere", "center": [0.0], "radius_sq": "x"}, "radius_sq must be a number"),
            ({"kind": "sphere", "center": [0.0], "radius_sq": 1.0, "bogus": 1},
             "unknown sphere region field bogus"),
            ({"kind": "sphere", "center": [0.0], "radius_sq": 1.0, "cov": [[1.0]], "delta": 0.1},
             "unknown sphere region field cov, delta"),
            ({"kind": "ellipsoid", "center": [0.0], "cov": [[1.0]], "threshold": 1.0,
              "radius_sq": 1.0}, "unknown ellipsoid region field radius_sq"),
        ],
        ids=["list", "ellipsoid_without_cov", "radius_sq_not_a_number", "sphere_unknown_key",
             "sphere_given_a_cov", "ellipsoid_given_a_radius"],
    )
    def test_malformed_input_is_a_usage_error(self, data, match):
        with pytest.raises(UsageError, match=match):
            region_from_dict(data)
