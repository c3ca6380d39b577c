"""Cholesky/inverse/determinant kernels against hand-computed oracles.

The 2x2 oracles are the adjugate formulas: det = ad - bc and
inv = [[d, -b], [-c, a]] / det, which never touch the Cholesky path.
"""

import functools
import json
import os
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

from mvcheb import experiments, gaussian_spec, linalg
from mvcheb import (
    Covariance,
    DomainError,
    UsageError,
    chebyshev_bound,
    classical_bound,
    estimate_moments,
    invert_spd,
    paper_example_spec,
    quad_form,
    symmetrize,
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
        assert np.allclose(Covariance([[4.0, 0.0], [0.0, 9.0]]).chol, np.diag([2.0, 3.0]))

    def test_example_matrix(self):
        # hand elimination: L11=1, L21=1, L22=sqrt(26-1)=5
        lower = Covariance(EXAMPLE).chol
        assert np.allclose(lower, [[1.0, 0.0], [1.0, 5.0]])
        assert np.allclose(lower @ lower.T, EXAMPLE, rtol=1e-10)

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(DomainError, match="not positive definite"):
            Covariance([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError, match="asymmetry"):
            Covariance([[1.0, 0.5], [0.0, 1.0]])

    def test_mild_asymmetry_symmetrized(self):
        m = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        s = symmetrize(m)
        assert s[0, 1] == s[1, 0]

    def test_singular_rejected_scale_invariantly(self):
        ones = np.ones((2, 2))
        for scale in (1.0, 1e-8, 1e8):
            with pytest.raises(DomainError, match="not positive definite"):
                Covariance(scale * ones)

    def test_near_singular_rejected_scale_invariantly(self):
        # LAPACK factors this matrix; the relative pivot rule must still reject it
        near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        for scale in (1.0, 1e-8, 1e8):
            with pytest.raises(DomainError, match="<= tolerance"):
                Covariance(scale * near)

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(1234)
        for n in range(1, 7):
            for _ in range(50):
                m = random_spd(rng, n)
                lower = Covariance(m).chol
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

    def test_empty_matrix_rejected(self):
        with pytest.raises(DomainError, match="at least 1x1"):
            symmetrize(np.zeros((0, 0)))

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
        assert np.array_equal(Covariance([[1e308]]).chol, [[np.sqrt(1e308)]])


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
        assert Covariance.from_matrix(np.eye(3)).det == pytest.approx(1.0)
        assert Covariance.from_matrix(EXAMPLE).det == pytest.approx(25.0, rel=1e-12)
        assert Covariance.from_matrix(np.diag([2.0, 8.0])).det == pytest.approx(
            16.0, rel=1e-12
        )

    def test_trace_examples(self):
        assert Covariance.from_matrix(np.eye(5)).trace == 5.0
        assert Covariance.from_matrix(EXAMPLE).trace == 27.0

    def test_det_adjugate_oracle_2x2(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            m = random_spd(rng, 2)
            c = Covariance.from_matrix(m)
            _, det = adjugate_inverse_2x2(m)
            assert c.det == pytest.approx(det, rel=1e-12)


THREE_ROWS = [[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]]


class TestScalarArguments:
    # each site reads its argument through linalg's converters; its name is in the message
    SITES = {
        "eps": lambda v: chebyshev_bound(2, v),
        "dimension": lambda v: chebyshev_bound(v, 1.0),
        "total variance": lambda v: classical_bound(v, 1.0),
        "ridge": lambda v: estimate_moments(THREE_ROWS, ridge=v),
        "eps grid": lambda v: experiments.run_tail_curve(paper_example_spec(1.0, 25.0), v, 10),
        "kernel": lambda v: quad_form([1.0, 2.0], v),
        "ddof": lambda v: estimate_moments(THREE_ROWS, ddof=v),
    }
    # None and [1] read as the numeric arrays nan and [1.0], which meet an array's own rules
    SCALARS = ("eps", "dimension", "total variance", "ridge")
    CASES = [(site, v, UsageError) for site in SCALARS for v in (None, "a", [1], {})]
    CASES += [(site, v, UsageError) for site in ("eps grid", "kernel") for v in ("a", {})]
    CASES += [("ddof", True, DomainError)]  # a bool is no integer

    @pytest.mark.parametrize("site, value, error", CASES, ids=[f"{s}-{v!r}" for s, v, _ in CASES])
    def test_an_argument_that_does_not_read_is_refused_by_class(self, site, value, error):
        with pytest.raises(error, match=site):
            self.SITES[site](value)


class TestQuadForm:
    def test_zero_vector(self):
        w = Covariance.from_matrix(EXAMPLE).whitener
        assert quad_form([0.0, 0.0], w) == 0.0

    def test_example_value(self):
        # (26 - 1 - 1 + 1) / 25 = 1
        w = Covariance.from_matrix(EXAMPLE).whitener
        assert quad_form([1.0, 1.0], w) == pytest.approx(1.0, rel=1e-12)

    def test_scalar_case(self):
        w = np.array([[1.0 / 2.0]])
        assert quad_form([3.0], w) == pytest.approx(9.0 / 4.0, rel=1e-12)

    def test_dimension_mismatch(self):
        w = Covariance.from_matrix(EXAMPLE).whitener
        with pytest.raises(DomainError, match="does not match kernel"):
            quad_form([1.0, 2.0, 3.0], w)
        with pytest.raises(DomainError, match="does not match kernel"):
            quad_form([1.0, 2.0], np.ones((3, 2)))

    @pytest.mark.parametrize("d", ["ab", [[1.0, 2.0], [3.0]], [1.0, "c"]],
                             ids=["string", "ragged", "mixed"])
    def test_vectors_that_are_not_numeric_are_a_usage_error(self, d):
        w = Covariance.from_matrix(EXAMPLE).whitener
        with pytest.raises(UsageError, match="vector is not a numeric array"):
            quad_form(d, w)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(55)
        for n in range(1, 7):
            w = Covariance.from_matrix(random_spd(rng, n)).whitener
            d = rng.standard_normal((200, n)) * rng.uniform(1e-8, 1e8)
            assert np.all(quad_form(d, w) >= 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_row_and_column_major_batches_agree(self, n):
        # the product follows the batch's layout; at n <= 2 a row sums alike in both
        rng = np.random.default_rng(n)
        w = Covariance.from_matrix(random_spd(rng, n)).whitener
        d = rng.standard_normal((1000, n))
        rows, columns = quad_form(d, w), quad_form(np.asfortranarray(d), w)
        if n <= 2:
            assert np.array_equal(rows, columns)
        else:
            np.testing.assert_allclose(columns, rows, rtol=1e-12, atol=0.0)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(11)
        w = Covariance.from_matrix(random_spd(rng, 3)).whitener
        d = rng.standard_normal((10, 3))
        batched = quad_form(d, w)
        singles = np.array([quad_form(row, w) for row in d])
        assert np.array_equal(batched, singles)


# sha256 of each BLAS result at each n, in a fresh process; Sigma is built
# without BLAS (einsum), so the spec is the same under every thread setting
_BITS_CHILD = """
import hashlib, json
import numpy as np
from mvcheb import Covariance, draw, gaussian_spec
from mvcheb.moments import moment_sums
from mvcheb.sampler import chunk_size

def sha(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()

out = {}
for n in (3, 64, 100, 129, 256, 512):
    a = np.random.default_rng(n).standard_normal((n, n))
    cov = Covariance(np.einsum("ik,jk->ij", a, a) / n + 0.01 * np.eye(n))
    spec = gaussian_spec(np.zeros(n), cov, seed=5)
    x = draw(spec, 2 * chunk_size(spec) + 7)
    _, mean, scatter = moment_sums(x)
    out[n] = [sha(cov.chol), sha(cov.whitener), sha(x), sha(mean, scatter)]
print(json.dumps(out))
"""


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, set to 2 for the test
    (so that one thread is a change to see) and restored after it."""
    api = linalg._blas_thread_count()
    if api is None:
        pytest.skip("numpy's BLAS exports no thread-count API")
    get, put = api
    before = get()
    put(2)
    yield get
    put(before)


def _gaussian(n: int, seed: int = 3):
    a = np.random.default_rng(n).standard_normal((n, n))
    return gaussian_spec(np.zeros(n), Covariance(a @ a.T / n + 0.01 * np.eye(n)), seed=seed)


class TestOneBlasThread:
    def test_bits_do_not_depend_on_the_thread_setting(self):
        # OpenBLAS's potrf and products split by thread count: at n >= 129
        # these differed between 1 and 2 threads before the scope
        digests = [
            json.loads(subprocess.run(
                [sys.executable, "-c", _BITS_CHILD],
                capture_output=True, text=True, check=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            ).stdout)
            for threads in ("1", "2")
        ]
        assert digests[0] == digests[1]

    def test_one_thread_inside_and_the_count_back_after(self, blas_threads):
        seen = []

        def per_tile(x):
            seen.append(blas_threads())
            return 1

        spec = _gaussian(64)
        assert experiments._reduce(spec, 5000, per_tile, streams=2) == len(seen)
        assert set(seen) == {1} and blas_threads() == 2
        with linalg.one_blas_thread():
            with linalg.one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_count_back_after_an_exception_in_the_reducer(self, blas_threads):
        def per_tile(x):
            raise ZeroDivisionError("from a tile")

        with pytest.raises(ZeroDivisionError, match="from a tile"):
            experiments._reduce(_gaussian(64), 5000, per_tile, streams=2)
        assert blas_threads() == 2

    def test_user_threads_at_once_leave_the_count_as_found(self, blas_threads):
        # more threads than cores, a short switch interval and many bare
        # scopes: the thread-count calls release the interpreter lock, so
        # without the scope's lock one thread saves another's 1 and restores it
        spec = _gaussian(64)
        want = [r.hits for r in experiments.run_coverage(spec, 0.9, 8000)]
        got, interval = [], sys.getswitchinterval()

        def user():
            got.append([r.hits for r in experiments.run_coverage(spec, 0.9, 8000, streams=2)])
            for _ in range(2000):
                with linalg.one_blas_thread():
                    pass

        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=user) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8
        assert blas_threads() == 2 and linalg._scope["depth"] == 0

    def test_a_build_without_the_symbols_runs_as_is(self, blas_threads, monkeypatch):
        monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: types.SimpleNamespace())
        lookup = functools.cache(linalg._blas_thread_count.__wrapped__)
        monkeypatch.setattr(linalg, "_blas_thread_count", lookup)
        seen = []

        def per_tile(x):
            seen.append(blas_threads())
            return 1

        spec = _gaussian(64)
        experiments._reduce(spec, 5000, per_tile, streams=2)
        experiments.run_coverage_estimated(spec, 0.9, 3000)
        assert lookup() is None
        assert set(seen) == {2} and blas_threads() == 2
