"""Cholesky/inverse/determinant kernels against hand-computed oracles.

The 2x2 oracles are the adjugate formulas: det = ad - bc and
inv = [[d, -b], [-c, a]] / det, which never touch the Cholesky path.
"""

import numpy as np
import pytest

from mvcheb import linalg
from mvcheb import (
    Covariance,
    DomainError,
    cholesky,
    det_spd,
    invert_spd,
    quad_form,
    symmetrize,
    trace,
)

EXAMPLE = [[1.0, 1.0], [1.0, 26.0]]


def adjugate_inverse_2x2(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det, det


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


class TestCholesky:
    def test_diagonal(self):
        assert np.allclose(cholesky([[4.0, 0.0], [0.0, 9.0]]), np.diag([2.0, 3.0]))

    def test_example_matrix(self):
        # hand elimination: L11=1, L21=1, L22=sqrt(26-1)=5
        lower = cholesky(EXAMPLE)
        assert np.allclose(lower, [[1.0, 0.0], [1.0, 5.0]])
        assert np.allclose(lower @ lower.T, EXAMPLE, rtol=1e-10)

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(DomainError, match="not positive definite"):
            cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError, match="asymmetry"):
            cholesky([[1.0, 0.5], [0.0, 1.0]])

    def test_mild_asymmetry_symmetrized(self):
        m = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        s = symmetrize(m)
        assert s[0, 1] == s[1, 0]

    def test_singular_rejected_scale_invariantly(self):
        ones = np.ones((2, 2))
        for scale in (1.0, 1e-8, 1e8):
            with pytest.raises(DomainError, match="not positive definite"):
                cholesky(scale * ones)

    def test_near_singular_rejected_scale_invariantly(self):
        # LAPACK factors this matrix; the relative pivot rule must still reject it
        near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        for scale in (1.0, 1e-8, 1e8):
            with pytest.raises(DomainError, match="<= tolerance"):
                cholesky(scale * near)

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(1234)
        for n in range(1, 7):
            for _ in range(50):
                m = random_spd(rng, n)
                lower = cholesky(m)
                assert np.allclose(lower @ lower.T, m, rtol=1e-10, atol=1e-12)
                assert np.all(np.diag(lower) > 0)


class TestCovariance:
    def test_cached_values_match_recomputation(self):
        rng = np.random.default_rng(99)
        for n in range(1, 7):
            for _ in range(20):
                c = Covariance.from_matrix(random_spd(rng, n))
                assert c.det == pytest.approx(np.prod(np.diag(c.chol)) ** 2, rel=1e-12)
                assert c.trace == pytest.approx(np.trace(c.entries), rel=1e-12)
                assert c.det > 0 and c.trace > 0

    def test_hadamard_inequality(self):
        # det(Sigma) <= prod of diagonal entries
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            for _ in range(50):
                c = Covariance.from_matrix(random_spd(rng, n))
                diag_prod = float(np.prod(np.diag(c.entries)))
                assert c.det <= diag_prod * (1 + 1e-12)

    def test_am_gm_on_diagonal(self):
        # trace/n >= (prod of diagonal)^(1/n)
        rng = np.random.default_rng(8)
        for n in range(1, 7):
            for _ in range(50):
                c = Covariance.from_matrix(random_spd(rng, n))
                geo = float(np.prod(np.diag(c.entries))) ** (1.0 / n)
                assert c.trace / n >= geo - 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError, match="entries must be finite"):
            Covariance.from_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_immutable(self):
        c = Covariance.from_matrix(EXAMPLE)
        with pytest.raises(ValueError):
            c.entries[0, 0] = 5.0

    def test_input_symmetrized_once(self, monkeypatch):
        calls, real = [], linalg.symmetrize
        monkeypatch.setattr(linalg, "symmetrize", lambda m: calls.append(m) or real(m))
        Covariance.from_matrix(EXAMPLE)
        assert len(calls) == 1

    def test_derived_fields_cannot_be_passed(self):
        with pytest.raises(TypeError):
            Covariance(entries=np.eye(2), chol=5 * np.eye(2), det=-1.0, trace=0.0)
        with pytest.raises(TypeError):
            Covariance(np.eye(2), 5 * np.eye(2))

    def test_constructor_checks_like_from_matrix(self):
        c = Covariance(EXAMPLE)
        assert np.array_equal(c.chol, Covariance.from_matrix(EXAMPLE).chol)
        with pytest.raises(DomainError, match="not positive definite"):
            Covariance([[1.0, 2.0], [2.0, 1.0]])

    def test_logdet_matches_slogdet(self):
        rng = np.random.default_rng(5)
        for n in (2, 7, 50, 200, 400):
            m = random_spd(rng, n) / n
            for c in (1e-150, 1e-3, 1.0, 1e3, 1e150):
                sign, expect = np.linalg.slogdet(c * m)
                assert sign == 1.0
                assert Covariance.from_matrix(c * m).logdet == pytest.approx(expect, rel=1e-12)

    def test_det_and_trace_beyond_float_range(self):
        # det = (prod L_ii)^2 and the trace leave the float range; logdet does not
        huge = Covariance.from_matrix(1e300 * np.eye(3))
        assert huge.det == np.inf and huge.trace == 3e300
        assert huge.logdet == pytest.approx(3 * np.log(1e300), rel=1e-15)
        top = Covariance.from_matrix([[1e308, 0.0], [0.0, 1e308]])
        assert top.trace == np.inf and top.det == np.inf
        tiny = Covariance.from_matrix(1e-200 * np.eye(2))
        assert tiny.det == 0.0 and tiny.logdet == pytest.approx(2 * np.log(1e-200), rel=1e-15)
        # partial products leave the range although the determinant is 1
        split = Covariance.from_matrix(np.diag([1e-5] * 200 + [1e5] * 200))
        assert split.det == pytest.approx(1.0, rel=1e-12)
        assert split.logdet == pytest.approx(0.0, abs=1e-9)

    def test_huge_finite_entries_do_not_overflow(self):
        m = [[1e308, 0.0], [0.0, 1e308]]
        assert np.array_equal(symmetrize(m), m)
        assert np.array_equal(cholesky([[1e308]]), [[np.sqrt(1e308)]])


class TestInverse:
    def test_identity(self):
        c = Covariance.from_matrix(np.eye(2))
        assert np.allclose(invert_spd(c), np.eye(2), atol=1e-12)

    def test_example_matrix_adjugate_oracle(self):
        c = Covariance.from_matrix(EXAMPLE)
        expect, det = adjugate_inverse_2x2(EXAMPLE)
        assert det == 25.0
        assert np.allclose(invert_spd(c), expect, rtol=1e-12)

    def test_scalar(self):
        c = Covariance.from_matrix([[4.0]])
        assert invert_spd(c)[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_huge_precision_does_not_overflow(self):
        c = Covariance.from_matrix(np.diag([1e-308, 2e-308]))
        assert np.allclose(invert_spd(c), np.diag([1e308, 0.5e308]), rtol=1e-12, atol=0.0)

    def test_precision_beyond_float_range_raises(self):
        with pytest.raises(DomainError, match="precision matrix is beyond the float range"):
            invert_spd(Covariance.from_matrix(1e-310 * np.eye(2)))

    def test_read_only(self):
        with pytest.raises(ValueError):
            invert_spd(Covariance.from_matrix(EXAMPLE))[0, 0] = 5.0

    def test_product_is_identity(self):
        rng = np.random.default_rng(4321)
        for n in range(1, 7):
            for _ in range(30):
                c = Covariance.from_matrix(random_spd(rng, n))
                p = invert_spd(c)
                assert np.max(np.abs(p @ c.entries - np.eye(n))) <= 1e-9
                assert np.array_equal(p, p.T)

    def test_ill_conditioned(self):
        # condition number ~1e6 still inverts to the 1e-9 contract
        c = Covariance.from_matrix(np.diag([1e-6, 1.0]))
        p = invert_spd(c)
        assert np.max(np.abs(p @ c.entries - np.eye(2))) <= 1e-9


class TestDetTrace:
    def test_det_examples(self):
        assert det_spd(Covariance.from_matrix(np.eye(3))) == pytest.approx(1.0)
        assert det_spd(Covariance.from_matrix(EXAMPLE)) == pytest.approx(25.0, rel=1e-12)
        assert det_spd(Covariance.from_matrix(np.diag([2.0, 8.0]))) == pytest.approx(
            16.0, rel=1e-12
        )

    def test_trace_examples(self):
        assert trace(Covariance.from_matrix(np.eye(5))) == 5.0
        assert trace(Covariance.from_matrix(EXAMPLE)) == 27.0

    def test_det_adjugate_oracle_2x2(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            m = random_spd(rng, 2)
            c = Covariance.from_matrix(m)
            _, det = adjugate_inverse_2x2(m)
            assert c.det == pytest.approx(det, rel=1e-12)


class TestQuadForm:
    def test_zero_vector(self):
        p = invert_spd(Covariance.from_matrix(EXAMPLE))
        assert quad_form([0.0, 0.0], p) == 0.0

    def test_example_value(self):
        # (26 - 1 - 1 + 1) / 25 = 1
        p = invert_spd(Covariance.from_matrix(EXAMPLE))
        assert quad_form([1.0, 1.0], p) == pytest.approx(1.0, rel=1e-12)

    def test_scalar_case(self):
        p = np.array([[1.0 / 4.0]])
        assert quad_form([3.0], p) == pytest.approx(9.0 / 4.0, rel=1e-12)

    def test_dimension_mismatch(self):
        p = invert_spd(Covariance.from_matrix(EXAMPLE))
        with pytest.raises(DomainError, match="does not match kernel"):
            quad_form([1.0, 2.0, 3.0], p)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(55)
        for n in range(1, 7):
            p = invert_spd(Covariance.from_matrix(random_spd(rng, n)))
            d = rng.standard_normal((200, n)) * rng.uniform(1e-8, 1e8)
            assert np.all(quad_form(d, p) >= 0.0)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(11)
        p = invert_spd(Covariance.from_matrix(random_spd(rng, 3)))
        d = rng.standard_normal((10, 3))
        batched = quad_form(d, p)
        singles = np.array([quad_form(row, p) for row in d])
        assert np.array_equal(batched, singles)
