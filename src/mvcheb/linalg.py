"""Dense symmetric-positive-definite kernels.

Everything downstream (regions, sampling, experiments) runs through the
covariance matrix: its Cholesky factor, whitener, determinant and trace.
The factorization is LAPACK's (``np.linalg.cholesky``) followed by an
explicit, scale-invariant positive-definiteness test on its pivots. It,
the whitener's solve and the experiments run BLAS on one thread
(:func:`one_blas_thread`), so their bits do not depend on the thread setting.
A :class:`Covariance` is built from the matrix alone, which is checked once;
its factor, log determinant and trace are derived from it, and its arrays
are read-only, so the kernels that take one do not check it again.
Every squared distance is :func:`sq_distance`'s: ||d||^2, or ||W d||^2 with the
whitener W = L^-1 (:func:`quad_form`), whose error grows like sqrt(cond(Sigma)),
where one through an explicit Sigma^-1 would grow like cond(Sigma).
Every data array (vector, matrix, sample set, point) is read by one function,
:func:`as_finite_array`, as every count and level is by the numpy-free scalar
layer of :mod:`mvcheb.errors`; only :func:`sq_distance`'s tile kernels and the eps
grid of ``run_tail_curve``, a list of levels, keep their own rules.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError

# Relative asymmetry tolerated before a matrix is rejected outright.
SYMMETRY_RTOL = 1e-9
# Cholesky pivots are compared against PIVOT_RTOL * max(diagonal).
PIVOT_RTOL = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_MAX_ENTRIES = np.iinfo(np.intp).max // 8  # of the largest 8-byte array numpy can allocate


def exp_or_inf(x: float) -> float:
    """e**x, or inf beyond the float range (where ``np.exp`` would warn)."""
    return float(np.exp(x)) if x <= _LOG_FLOAT_MAX else math.inf


@contextlib.contextmanager
def float_range_guard(message: str):
    """Raise :class:`DomainError` ``message`` where numpy arithmetic in the
    block overflows or turns invalid, instead of warning and going on."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise DomainError(message) from None


@functools.cache
def _blas_thread_count():
    """(get, set) of the thread count of numpy's own OpenBLAS (scipy-openblas,
    64-bit), or None where numpy's build does not export them."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_scope_lock = threading.Lock()
_scope = {"depth": 0, "saved": 1}  # open scopes in the process, the count the last one restores


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's OpenBLAS on one thread while any caller is in this block.

    The count is process-wide, so the scope is counted across threads and
    nesting: the first to enter saves the caller's count and sets 1, the
    last to leave restores it. One thread gives bits that do not depend on
    the machine's thread setting (LAPACK's potrf and a product's blocking
    split by thread count). The reducer holds one scope around its pool for
    each call, so the cores are left to its ``streams`` workers. Where
    numpy's build exports no thread-count API the block runs as is.
    """
    api = _blas_thread_count()
    with _scope_lock:
        if api and not _scope["depth"]:
            _scope["saved"] = api[0]()
            api[1](1)
        _scope["depth"] += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scope["depth"] -= 1
            if api and not _scope["depth"]:
                api[1](_scope["saved"])


def check_entries(n: int, what: str) -> None:
    """Raise :class:`DomainError` if an array of ``n`` 8-byte entries is too large."""
    if n > _MAX_ENTRIES:
        raise DomainError(f"{what}: {n} array entries are more than one array can hold")


def as_float_array(x, what: str) -> np.ndarray:
    """``x`` as a float array; input that does not convert (ragged, not
    numeric, an object where a list belongs) raises :class:`UsageError`."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{what} is not a numeric array: {exc}") from None


def as_finite_array(x, what: str, ndim: int | tuple, dim: int | None = None) -> np.ndarray:
    """``x`` as a float array with ``ndim`` axes (a count or a tuple of them),
    the last of length ``dim`` where given, none empty, every entry finite,
    checked in that order. Input that does not convert, or has an empty
    axis, raises :class:`UsageError`; the other checks :class:`DomainError`."""
    a = as_float_array(x, what)
    ndims = (ndim,) if isinstance(ndim, int) else ndim
    if a.ndim not in ndims:
        raise DomainError(f"expected a {'-D or '.join(map(str, ndims))}-D {what}, got shape {a.shape}")
    if dim is not None and a.shape[-1] != dim:
        raise DomainError(f"{what} dimension {a.shape[-1]} does not match expected dimension {dim}")
    if a.size == 0:
        raise UsageError(f"{what} must not be empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"{what} entries must be finite")
    return a


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """A read-only copy of the 1-D vector ``x`` (:func:`as_finite_array`);
    the caller's array stays writable."""
    v = np.array(as_finite_array(x, "vector", 1, dim))
    v.setflags(write=False)
    return v


def symmetrize(m) -> np.ndarray:
    """Return (M + M^T)/2, rejecting matrices that are meaningfully asymmetric.

    Asymmetry up to ``SYMMETRY_RTOL`` relative to the largest entry is
    treated as round-trip noise (e.g. from text formats) and averaged away;
    anything larger raises :class:`DomainError`.
    """
    a = as_finite_array(m, "matrix", 2)
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.max(np.abs(a)))
    gap = float(np.max(np.abs(a - a.T)))
    if gap > SYMMETRY_RTOL * max(scale, 1e-300):
        raise DomainError(
            f"matrix asymmetry {gap:.3e} exceeds {SYMMETRY_RTOL:.1e} relative to scale {scale:.3e}"
        )
    return 0.5 * a + 0.5 * a.T  # a + a.T would overflow above about 9e307


@dataclass(frozen=True, eq=False)
class Covariance:
    """A validated SPD covariance matrix with its derived quantities.

    ``Covariance(m)`` (or :meth:`from_matrix`) symmetrizes ``m`` within
    ``SYMMETRY_RTOL`` and factors it; a pivot ``L_ii**2`` at or below
    ``PIVOT_RTOL * max(diagonal)`` (scale-invariant) is rejected. ``chol``,
    ``logdet = 2 sum(log L_ii)`` and ``trace`` (inf beyond the float range)
    are derived from it, never passed in; the :attr:`whitener` is derived
    on first use. Instances are immutable and their arrays read-only.
    """

    entries: np.ndarray
    chol: np.ndarray = field(init=False)
    logdet: float = field(init=False)
    trace: float = field(init=False)

    def __post_init__(self):
        a = symmetrize(self.entries)
        try:
            with one_blas_thread():
                lower = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise DomainError("matrix is not positive definite") from None
        diag = np.diag(a)
        pivots = np.diag(lower) ** 2
        tol = PIVOT_RTOL * float(np.max(diag))
        bad = np.flatnonzero(pivots <= tol)
        if bad.size:
            i = int(bad[0])
            raise DomainError(f"pivot {pivots[i]:.6e} at row {i} is <= tolerance {tol:.6e}")
        # where np.trace could overflow (with a warning), Python's sum gives inf
        safe = np.max(diag) <= sys.float_info.max / diag.size
        a.setflags(write=False)
        lower.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "chol", lower)
        object.__setattr__(self, "logdet", float(2.0 * np.sum(np.log(np.diag(lower)))))
        object.__setattr__(self, "trace", float(np.trace(a)) if safe else sum(diag.tolist()))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def det(self) -> float:
        """(prod L_ii)^2; exp(logdet) where that product leaves the float range,
        which gives 0 or inf only where the determinant does."""
        try:
            det = math.prod(np.diag(self.chol).tolist()) ** 2
        except OverflowError:
            det = math.inf
        return det if 0.0 < det < math.inf else exp_or_inf(self.logdet)

    @functools.cached_property
    def whitener(self) -> np.ndarray:
        """W = L^-1, so that d^T Sigma^-1 d = ||W d||^2, stored column-major so
        that :func:`quad_form` reads W^T without a copy. One with an entry beyond
        the float range raises :class:`DomainError` when read, not when built."""
        with one_blas_thread():
            w = np.asfortranarray(np.linalg.solve(self.chol, np.eye(self.dim)))
        if not np.all(np.isfinite(w)):
            raise DomainError("the whitener L^-1 is beyond the float range")
        w.setflags(write=False)
        return w

    @classmethod
    def from_matrix(cls, m) -> "Covariance":
        """The covariance of matrix ``m``; the same as ``Covariance(m)``."""
        return cls(m)


def invert_spd(c: Covariance) -> np.ndarray:
    """Precision matrix Sigma^-1 = W^T W, from the cached whitener W = L^-1.

    The result is symmetrized exactly and read-only. A precision beyond the
    float range raises :class:`DomainError`. Distances do not go through it:
    :func:`quad_form` takes the whitener.
    """
    w = c.whitener
    with float_range_guard("the precision matrix is beyond the float range"):
        p = w.T @ w
    p = 0.5 * p + 0.5 * p.T
    p.setflags(write=False)
    return p


def quad_form(d, w: np.ndarray) -> float | np.ndarray:
    """Squared norm ||w d||^2, the one squared-distance kernel.

    With the whitener ``w = Covariance.whitener`` this is the squared
    Mahalanobis distance d^T Sigma^-1 d. ``d`` may be a single vector of
    shape (n,) or a batch of shape (..., n), and ``w`` is n x n; the result
    is a float or an array of the leading shape: the row sums of (d w^T)^2,
    from one matrix product written in the layout of ``d``. A row's last
    ulp can depend on the length and the layout of its batch, as BLAS picks
    its summation order by shape; in the experiments a batch is a tile of
    :func:`~mvcheb.sampler.offset_tiles`, row-major from n = 32 on, else column-major.
    Its arguments are only shape-tested, as a finiteness pass would add ~45% per tile.
    """
    kernel = as_float_array(w, "kernel")
    dv = as_float_array(d, "vector")
    if kernel.shape != dv.shape[-1:] * 2:
        raise DomainError(
            f"vector dimension {dv.shape[-1:]} does not match kernel {kernel.shape}"
        )
    # w^T C-contiguous (a view for the column-major whitener, else a copy):
    # a row then rounds alike alone and in a batch in more cases
    y = np.matmul(dv, np.ascontiguousarray(kernel.T), out=np.empty_like(dv))
    q = np.einsum("...i,...i->...", y, y)
    return float(q) if q.ndim == 0 else q


def sq_distance(d, cov: Covariance | None = None):
    """Squared distance of offsets ``d``, (n,) or (..., n): ||d||^2, or with a
    :class:`Covariance` the Mahalanobis ``quad_form(d, cov.whitener)``; a scalar or an array."""
    if cov is None:
        return np.einsum("...i,...i->...", d, d)
    return quad_form(d, cov.whitener)
