"""Dense symmetric-positive-definite kernels.

Everything downstream (regions, sampling, experiments) runs through the
covariance matrix: its Cholesky factor, inverse, determinant and trace.
The factorization is LAPACK's (``np.linalg.cholesky``) followed by an
explicit, scale-invariant positive-definiteness test on its pivots.
A :class:`Covariance` is checked once, when it is built, and its arrays are
read-only, so the kernels that take one do not check it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError

# Relative asymmetry tolerated before a matrix is rejected outright.
SYMMETRY_RTOL = 1e-9
# Cholesky pivots are compared against PIVOT_RTOL * max(diagonal).
PIVOT_RTOL = 1e-12


def as_float_array(x, what: str) -> np.ndarray:
    """``x`` as a float array; input that does not convert (ragged, not
    numeric, an object where a list belongs) raises :class:`UsageError`."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{what} is not a numeric array: {exc}") from None


def _as_square(m) -> np.ndarray:
    a = as_float_array(m, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise DomainError("matrix must be at least 1x1")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate a 1-D finite vector, optionally of a required dimension."""
    v = as_float_array(x, "vector")
    if v.ndim != 1:
        raise DomainError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DomainError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector entries must be finite")
    return v


def symmetrize(m, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return (M + M^T)/2, rejecting matrices that are meaningfully asymmetric.

    Asymmetry up to ``rtol`` relative to the largest entry is treated as
    round-trip noise (e.g. from text formats) and averaged away; anything
    larger raises :class:`DomainError`.
    """
    a = _as_square(m)
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

    The input is checked once, when :meth:`from_matrix` builds the instance:
    it symmetrizes the matrix, runs the Cholesky factorization as the
    positive-definiteness test, and caches the factor, determinant and
    trace; all downstream operations reuse them. Instances are immutable
    and their ``entries`` and ``chol`` arrays are read-only.
    """

    entries: np.ndarray
    chol: np.ndarray
    det: float
    trace: float

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_matrix(cls, m) -> "Covariance":
        """Factor ``m``, symmetric within ``SYMMETRY_RTOL``; a pivot ``L_ii**2`` at
        or below ``PIVOT_RTOL * max(diagonal)`` (scale-invariant) is rejected."""
        a = symmetrize(m)
        try:
            lower = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise DomainError("matrix is not positive definite") from None
        piv = np.diag(lower)
        pivots = piv ** 2
        tol = PIVOT_RTOL * float(np.max(np.diag(a)))
        bad = np.flatnonzero(pivots <= tol)
        if bad.size:
            i = int(bad[0])
            raise DomainError(f"pivot {pivots[i]:.6e} at row {i} is <= tolerance {tol:.6e}")
        a.setflags(write=False)
        lower.setflags(write=False)
        return cls(
            entries=a,
            chol=lower,
            det=float(np.prod(piv) ** 2),
            trace=float(np.trace(a)),
        )


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L L^T = m for symmetric positive-definite m,
    checked as :meth:`Covariance.from_matrix` checks it; L is read-only."""
    return Covariance.from_matrix(m).chol


def invert_spd(c: Covariance) -> np.ndarray:
    """Precision matrix Sigma^-1, computed from the cached Cholesky factor.

    With L L^T = Sigma, the inverse is L^-T L^-1; the result is symmetrized
    exactly so the precision can be reused as a quadratic-form kernel.
    """
    linv = np.linalg.solve(c.chol, np.eye(c.dim))
    p = linv.T @ linv
    return 0.5 * p + 0.5 * p.T


def det_spd(c: Covariance) -> float:
    """Determinant of the covariance, cached as (prod L_ii)^2."""
    return c.det


def trace(c: Covariance) -> float:
    """Trace of the covariance, i.e. the total variance."""
    return c.trace


def quad_form(d, p: np.ndarray) -> float | np.ndarray:
    """Quadratic form d^T p d for an SPD kernel p.

    ``d`` may be a single vector of shape (n,) or a batch of shape (..., n);
    the result is a float or an array of the leading shape. Tiny negative
    values from round-off are clamped to zero (the form is nonnegative for
    SPD ``p``).
    """
    kernel = _as_square(p)
    dv = np.asarray(d, dtype=float)
    if dv.shape[-1:] != (kernel.shape[0],):
        raise DomainError(
            f"vector dimension {dv.shape[-1:]} does not match kernel {kernel.shape}"
        )
    q = np.maximum(np.einsum("...i,...i->...", dv @ kernel, dv), 0.0)
    return float(q) if q.ndim == 0 else q
