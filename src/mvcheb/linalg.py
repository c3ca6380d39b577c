"""Dense symmetric-positive-definite kernels.

Everything downstream (regions, sampling, experiments) runs through the
covariance matrix: its Cholesky factor, inverse, determinant and trace.
The factorization is LAPACK's (``np.linalg.cholesky``) followed by an
explicit, scale-invariant positive-definiteness test on its pivots.
A :class:`Covariance` is built from the matrix alone, which is checked once;
its factor, log determinant and trace are derived from it, and its arrays
are read-only, so the kernels that take one do not check it again.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError

# Relative asymmetry tolerated before a matrix is rejected outright.
SYMMETRY_RTOL = 1e-9
# Cholesky pivots are compared against PIVOT_RTOL * max(diagonal).
PIVOT_RTOL = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def exp_or_inf(x: float) -> float:
    """e**x, or inf beyond the float range (where ``np.exp`` would warn)."""
    return float(np.exp(x)) if x <= _LOG_FLOAT_MAX else math.inf


def as_float_array(x, what: str) -> np.ndarray:
    """``x`` as a float array; input that does not convert (ragged, not
    numeric, an object where a list belongs) raises :class:`UsageError`."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{what} is not a numeric array: {exc}") from None


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """A read-only copy of the 1-D finite vector ``x``, optionally of a
    required dimension; the caller's array stays writable."""
    v = np.array(as_float_array(x, "vector"))
    if v.ndim != 1:
        raise DomainError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DomainError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector entries must be finite")
    v.setflags(write=False)
    return v


def symmetrize(m, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return (M + M^T)/2, rejecting matrices that are meaningfully asymmetric.

    Asymmetry up to ``rtol`` relative to the largest entry is treated as
    round-trip noise (e.g. from text formats) and averaged away; anything
    larger raises :class:`DomainError`.
    """
    a = as_float_array(m, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise DomainError("matrix must be at least 1x1")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    scale = float(np.max(np.abs(a)))
    gap = float(np.max(np.abs(a - a.T)))
    if gap > rtol * max(scale, 1e-300):
        raise DomainError(
            f"matrix asymmetry {gap:.3e} exceeds {rtol:.1e} relative to scale {scale:.3e}"
        )
    return 0.5 * a + 0.5 * a.T  # a + a.T would overflow above about 9e307


@dataclass(frozen=True, eq=False)
class Covariance:
    """A validated SPD covariance matrix with its derived quantities.

    ``Covariance(m)`` (or :meth:`from_matrix`) symmetrizes ``m`` within
    ``SYMMETRY_RTOL`` and factors it; a pivot ``L_ii**2`` at or below
    ``PIVOT_RTOL * max(diagonal)`` (scale-invariant) is rejected. ``chol``,
    ``logdet = 2 sum(log L_ii)`` and ``trace`` (inf beyond the float range)
    are derived from it, never passed in. Instances are immutable and their
    arrays read-only.
    """

    entries: np.ndarray
    chol: np.ndarray = field(init=False)
    logdet: float = field(init=False)
    trace: float = field(init=False)

    def __post_init__(self):
        a = symmetrize(self.entries)
        try:
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

    @classmethod
    def from_matrix(cls, m) -> "Covariance":
        """The covariance of matrix ``m``; the same as ``Covariance(m)``."""
        return cls(m)


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L L^T = m for symmetric positive-definite m,
    checked as :meth:`Covariance.from_matrix` checks it; L is read-only."""
    return Covariance.from_matrix(m).chol


def invert_spd(c: Covariance) -> np.ndarray:
    """Precision matrix Sigma^-1, computed from the cached Cholesky factor.

    With L L^T = Sigma, the inverse is L^-T L^-1; the result is symmetrized
    exactly and read-only so it can be reused as a quadratic-form kernel. A
    precision beyond the float range raises :class:`DomainError`.
    """
    linv = np.linalg.solve(c.chol, np.eye(c.dim))
    try:
        with np.errstate(over="raise", invalid="raise"):
            p = linv.T @ linv
    except FloatingPointError:
        raise DomainError("the precision matrix is beyond the float range") from None
    p = 0.5 * p + 0.5 * p.T
    p.setflags(write=False)
    return p


def det_spd(c: Covariance) -> float:
    """Determinant of the covariance (see :attr:`Covariance.det`)."""
    return c.det


def trace(c: Covariance) -> float:
    """Trace of the covariance, i.e. the total variance."""
    return c.trace


def quad_form(d, p: np.ndarray) -> float | np.ndarray:
    """Quadratic form d^T p d for an SPD kernel p.

    ``d`` may be a single vector of shape (n,) or a batch of shape (..., n);
    the result is a float or an array of the leading shape. Tiny negative
    values from round-off are clamped to zero (the form is nonnegative for
    SPD ``p``, which is not checked again).
    """
    kernel = np.asarray(p, dtype=float)
    dv = np.asarray(d, dtype=float)
    if dv.shape[-1:] != kernel.shape[:1]:
        raise DomainError(
            f"vector dimension {dv.shape[-1:]} does not match kernel {kernel.shape}"
        )
    q = np.maximum(np.einsum("...i,...i->...", dv @ kernel, dv), 0.0)
    return float(q) if q.ndim == 0 else q
