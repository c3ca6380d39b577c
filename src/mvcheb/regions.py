"""Chebyshev-type tail bounds and the confidence regions they induce.

Two inequalities for a random vector X in R^n with mean mu and covariance
Sigma:

* classical:   Pr{ ||X - mu|| >= eps }                <= Var(X) / eps^2,
  where Var(X) = E||X - mu||^2 = tr(Sigma);
* Mahalanobis: Pr{ (X-mu)^T Sigma^-1 (X-mu) >= eps }  <= n / eps.

At a miss probability delta in (0, 1) these yield, respectively, the sphere
``||v - mu||^2 <= tr(Sigma)/delta`` and the ellipsoid
``(v-mu)^T Sigma^-1 (v-mu) <= n/delta``, each covering X with probability
greater than 1 - delta. The ellipsoid is never larger: the volume ratio

    vol(sphere) / vol(ellipsoid) = (tr(Sigma)/n)^(n/2) / sqrt(det(Sigma))

is at least 1, with equality exactly when Sigma is a positive multiple of
the identity (AM-GM on the diagonal plus Hadamard's determinant bound).
Both regions are closed sets: membership uses <=. A region is checked once,
when it is built (a finite center, a positive finite level), and an
ellipsoid holds the :class:`~mvcheb.linalg.Covariance` it was built from.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .linalg import Covariance, as_vector, exp_or_inf, invert_spd, quad_form


@dataclass(frozen=True)
class BoundValue:
    """A tail bound both as the raw formula value and clamped to [0, 1].

    ``raw`` can exceed 1 (a vacuous bound); ``clamped = min(1, raw)`` is the
    value usable as a probability statement.
    """

    raw: float
    clamped: float


def _bound(raw: float) -> BoundValue:
    return BoundValue(raw=raw, clamped=min(1.0, raw))


def chebyshev_bound(n: int, eps: float) -> BoundValue:
    """Tail bound n/eps on Pr{ (X-mu)^T Sigma^-1 (X-mu) >= eps }."""
    if not 1 <= n <= sys.float_info.max or int(n) != n:
        raise DomainError(f"dimension must be a positive integer in the float range, got {n}")
    if not 0.0 < eps < math.inf:
        raise UsageError(f"eps must be positive and finite, got {eps}")
    return _bound(float(n) / float(eps))


def classical_bound(var_total: float, eps: float) -> BoundValue:
    """Tail bound Var(X)/eps^2 on Pr{ ||X - mu|| >= eps }."""
    if not 0.0 < var_total < math.inf:
        raise UsageError(f"total variance must be positive and finite, got {var_total}")
    if not 0.0 < eps < math.inf:
        raise UsageError(f"eps must be positive and finite, got {eps}")
    var, e = float(var_total), float(eps)
    try:
        return _bound(var / e ** 2)
    except (OverflowError, ZeroDivisionError):  # e**2 is beyond the float range
        return _bound(var / e / e)


def _offsets(x, center: np.ndarray) -> np.ndarray:
    """x - center for one point of shape (n,) or a batch of shape (N, n)."""
    xv = np.asarray(x, dtype=float)
    if xv.shape[-1:] != center.shape:
        raise DomainError(
            f"point dimension {xv.shape[-1:]} does not match center {center.shape}"
        )
    return xv - center


def mahalanobis_sq(x, center, precision: np.ndarray) -> float | np.ndarray:
    """Squared Mahalanobis distance (x - center)^T Sigma^-1 (x - center).

    ``x`` may be one vector of shape (n,) or a batch of shape (N, n).
    """
    return quad_form(_offsets(x, as_vector(center)), precision)


def _level(name: str, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return float(value)


@dataclass(frozen=True, eq=False)
class EllipsoidRegion:
    """Closed set { v : (v-center)^T Sigma^-1 (v-center) <= threshold }; the
    precision Sigma^-1 is derived from ``cov`` when the region is built."""

    center: np.ndarray
    cov: Covariance
    threshold: float
    precision: np.ndarray = field(init=False)

    def __post_init__(self):
        if not isinstance(self.cov, Covariance):
            raise UsageError(f"cov must be a Covariance, got {type(self.cov).__name__}")
        object.__setattr__(self, "center", as_vector(self.center, self.cov.dim))
        object.__setattr__(self, "threshold", _level("threshold", self.threshold))
        object.__setattr__(self, "precision", invert_spd(self.cov))

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True, eq=False)
class SphereRegion:
    """Closed set { v : ||v - center||^2 <= radius_sq }."""

    center: np.ndarray
    radius_sq: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        object.__setattr__(self, "radius_sq", _level("radius_sq", self.radius_sq))

    @property
    def dim(self) -> int:
        return self.center.shape[0]


def _check_delta(delta: float) -> float:
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return float(delta)


def make_ellipsoid(mean, cov: Covariance, delta: float) -> EllipsoidRegion:
    """Ellipsoid with Mahalanobis threshold n/delta: coverage > 1 - delta."""
    return EllipsoidRegion(mean, cov, cov.dim / _check_delta(delta))


def make_sphere(mean, cov: Covariance, delta: float) -> SphereRegion:
    """Sphere with squared radius tr(Sigma)/delta: coverage > 1 - delta."""
    return SphereRegion(as_vector(mean, cov.dim), cov.trace / _check_delta(delta))


# Membership tie margin: a point computed to sit exactly on the closed
# boundary can evaluate a few ulps past the level; 1e-12 relative slack keeps
# such points members without admitting anything meaningfully outside.
_BOUNDARY_RTOL = 1e-12


def contains(region, x) -> bool | np.ndarray:
    """Membership test (closed regions: boundary points are members).

    ``x`` may be one vector or a batch of shape (N, n); the result is a bool
    or a boolean array accordingly. The comparison allows ``_BOUNDARY_RTOL``
    relative slack so points constructed on the boundary test as members
    despite round-off.
    """
    if not isinstance(region, (EllipsoidRegion, SphereRegion)):
        raise TypeError(f"not a region: {type(region).__name__}")
    d = _offsets(x, region.center)
    if isinstance(region, EllipsoidRegion):
        q, level = quad_form(d, region.precision), region.threshold
    else:
        q, level = np.einsum("...i,...i->...", d, d), region.radius_sq
    result = q <= level * (1.0 + _BOUNDARY_RTOL)
    return bool(result) if np.ndim(result) == 0 else result


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return volume(SphereRegion(np.zeros(n), 1.0))


def volume(region) -> float:
    """Lebesgue volume of a region, computed in logs (0 or inf beyond the float range).

    A ball of squared radius r2 in R^n has volume pi^(n/2) r2^(n/2) /
    Gamma(n/2 + 1); an ellipsoid at Mahalanobis threshold t has sqrt(det(Sigma))
    times that at r2 = t (the linear map Sigma^(1/2) scales volumes by sqrt(det)).
    """
    if isinstance(region, SphereRegion):
        log_v = math.log(region.radius_sq) * region.dim / 2.0
    elif isinstance(region, EllipsoidRegion):
        log_v = math.log(region.threshold) * region.dim / 2.0 + region.cov.logdet / 2.0
    else:
        raise TypeError(f"not a region: {type(region).__name__}")
    n = region.dim
    return exp_or_inf(n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0) + log_v)


def log_volume_ratio(cov: Covariance) -> float:
    """log of :func:`volume_ratio`: the sum of log(sqrt(tr(Sigma)/n) / L_ii)
    over the Cholesky diagonal. sqrt(tr(Sigma)/n) is finite where the trace
    is not: it is then taken from the diagonal scaled by its largest entry."""
    if cov.trace < math.inf:
        scale = math.sqrt(cov.trace / cov.dim)
    else:
        diag = np.diag(cov.entries)
        top = float(np.max(diag))
        scale = math.sqrt(top) * math.sqrt(float(np.sum(diag / top)) / cov.dim)
    return float(np.sum(np.log(scale / np.diag(cov.chol))))


def volume_ratio(cov: Covariance) -> float:
    """vol(sphere)/vol(ellipsoid) = (tr(Sigma)/n)^(n/2) / sqrt(det(Sigma)).

    Independent of delta (the coverage level cancels); always >= 1, with
    equality exactly for isotropic Sigma. Computed as the exp of
    :func:`log_volume_ratio`, so no power or determinant leaves the float
    range; a ratio beyond it is inf.
    """
    return exp_or_inf(log_volume_ratio(cov))


def example_ratio(k: float) -> float:
    """Closed-form volume ratio (k+2)/(2 sqrt(k)) for the worked example.

    Matches ``volume_ratio(example_covariance(sigma, k))`` for every sigma;
    minimized at k = 2 with value sqrt(2), increasing monotonically on both
    sides and unbounded as k -> 0 or k -> infinity.
    """
    if k <= 0.0:
        raise DomainError(f"k must be positive, got {k}")
    return (k + 2.0) / (2.0 * math.sqrt(k))


def ellipse_boundary(region: EllipsoidRegion, m: int) -> np.ndarray:
    """m points tracing the 2-D ellipsoid boundary, ordered by angle.

    Point j is center + sqrt(threshold) * L @ (cos, sin)(2 pi j / m) with L
    the Cholesky factor of the region's covariance; every point has squared
    Mahalanobis distance exactly the threshold (any matrix square root maps
    the unit circle to the same boundary set).
    """
    if region.dim != 2:
        raise DomainError("ellipse_boundary is defined for dimension 2 only")
    if m < 3:
        raise DomainError(f"need at least 3 boundary points, got {m}")
    theta = 2.0 * np.pi * np.arange(m) / m
    circle = np.stack([np.cos(theta), np.sin(theta)])
    return region.center + math.sqrt(region.threshold) * (region.cov.chol @ circle).T


def region_to_dict(region, delta: float | None = None) -> dict:
    """JSON-ready form of a region.

    An ellipsoid serializes with its covariance and the ``delta`` it was
    built at (required for an ellipsoid); a sphere needs only its squared
    radius.
    """
    if isinstance(region, EllipsoidRegion):
        return {
            "kind": "ellipsoid",
            "center": [float(v) for v in region.center],
            "cov": [[float(v) for v in row] for row in region.cov.entries],
            "delta": float(delta),
            "threshold": float(region.threshold),
        }
    if isinstance(region, SphereRegion):
        return {
            "kind": "sphere",
            "center": [float(v) for v in region.center],
            "radius_sq": float(region.radius_sq),
        }
    raise TypeError(f"not a region: {type(region).__name__}")


def region_from_dict(data: dict):
    """Rebuild a region from its JSON form (inverse of :func:`region_to_dict`)."""
    kind = data.get("kind")
    if kind == "ellipsoid":
        cov = Covariance.from_matrix(data["cov"])
        return EllipsoidRegion(data["center"], cov, float(data["threshold"]))
    if kind == "sphere":
        return SphereRegion(data["center"], float(data["radius_sq"]))
    raise DomainError(f"unknown region kind: {kind!r}")
