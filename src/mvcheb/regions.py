"""Chebyshev-type tail bounds and the confidence regions they induce.

Two inequalities for a random vector X in R^n with mean mu and covariance
Sigma:

* classical:   Pr{ ||X - mu|| >= eps }                <= Var(X) / eps^2,
  where Var(X) = E||X - mu||^2 = tr(Sigma);
* Mahalanobis: Pr{ (X-mu)^T Sigma^-1 (X-mu) >= eps }  <= n / eps.

At a miss probability delta in (0, 1) these yield, respectively, the sphere
``||v - mu||^2 <= tr(Sigma)/delta`` and the ellipsoid
``(v-mu)^T Sigma^-1 (v-mu) <= n/delta``, each covering X with probability
at least 1 - delta. The ellipsoid is never larger: the volume ratio

    vol(sphere) / vol(ellipsoid) = (tr(Sigma)/n)^(n/2) / sqrt(det(Sigma))

is at least 1, with equality exactly when Sigma is a positive multiple of
the identity (AM-GM on the diagonal plus Hadamard's determinant bound). In
floats it is exactly 1 for c*I and never below 1 (:func:`log_volume_ratio`).
Both regions are closed sets: membership uses <=. A region is checked once,
when it is built (a finite center, a positive finite level, and for an
ellipsoid a whitener within the float range), and an ellipsoid holds the
:class:`~mvcheb.linalg.Covariance` it was built from. Ellipsoid membership
compares ||W (v - mu)||^2, with the covariance's whitener W = L^-1, against
the threshold (:func:`~mvcheb.linalg.quad_form`); Sigma^-1 is never formed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .linalg import Covariance, as_count, as_float, as_float_array, as_level, as_vector
from .linalg import check_entries, exp_or_inf, quad_form


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
    n, eps = as_count(n, "dimension"), as_level(eps, "eps")
    if n > sys.float_info.max:
        raise DomainError(f"dimension must be a positive integer in the float range, got {n}")
    return _bound(float(n) / eps)


def classical_bound(var_total: float, eps: float) -> BoundValue:
    """Tail bound Var(X)/eps^2 on Pr{ ||X - mu|| >= eps }."""
    var, e = as_level(var_total, "total variance"), as_level(eps, "eps")
    try:
        return _bound(var / e ** 2)
    except (OverflowError, ZeroDivisionError):  # e**2 is beyond the float range
        return _bound(var / e / e)


def _level(name: str, value: float) -> float:
    value = as_float(value, name)
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class EllipsoidRegion:
    """Closed set { v : (v-center)^T Sigma^-1 (v-center) <= threshold }; the
    whitener of ``cov`` is derived when the region is built, so one beyond
    the float range refuses the region then, not when it is used."""

    center: np.ndarray
    cov: Covariance
    threshold: float

    def __post_init__(self):
        if not isinstance(self.cov, Covariance):
            raise UsageError(f"cov must be a Covariance, got {type(self.cov).__name__}")
        object.__setattr__(self, "center", as_vector(self.center, self.cov.dim))
        object.__setattr__(self, "threshold", _level("threshold", self.threshold))
        self.cov.whitener  # derived now, so a region is refused when built

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
    if not 0.0 < as_float(delta, "delta") < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return float(delta)


def make_ellipsoid(mean, cov: Covariance, delta: float) -> EllipsoidRegion:
    """Ellipsoid with Mahalanobis threshold n/delta: coverage >= 1 - delta."""
    return EllipsoidRegion(mean, cov, cov.dim / _check_delta(delta))


def make_sphere(mean, cov: Covariance, delta: float) -> SphereRegion:
    """Sphere with squared radius tr(Sigma)/delta: coverage >= 1 - delta."""
    return SphereRegion(as_vector(mean, cov.dim), cov.trace / _check_delta(delta))


# Membership tie margin: a point computed to sit exactly on the closed
# boundary can evaluate a few ulps past the level; 1e-12 relative slack keeps
# such points members without admitting anything meaningfully outside.
_BOUNDARY_RTOL = 1e-12


def within(q, level: float):
    """``q <= level`` for the closed region at ``level``, with ``_BOUNDARY_RTOL`` slack."""
    return q <= level * (1.0 + _BOUNDARY_RTOL)


def contains(region, x) -> bool | np.ndarray:
    """Membership test (closed regions: boundary points are members).

    ``x`` may be one vector or a batch of shape (N, n); the result is a bool
    or a boolean array accordingly. The comparison is :func:`within`, whose
    slack keeps points constructed on the boundary members despite round-off.
    """
    if not isinstance(region, (EllipsoidRegion, SphereRegion)):
        raise TypeError(f"not a region: {type(region).__name__}")
    xv, shape = as_float_array(x, "point"), region.center.shape
    if xv.shape[-1:] != shape:
        raise DomainError(f"point dimension {xv.shape[-1:]} does not match center {shape}")
    d = xv - region.center
    if isinstance(region, EllipsoidRegion):
        inside = within(quad_form(d, region.cov.whitener), region.threshold)
    else:
        inside = within(np.einsum("...i,...i->...", d, d), region.radius_sq)
    return bool(inside) if xv.ndim == 1 else inside


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
    """log of :func:`volume_ratio`, clamped at 0: the sum of log(s / L_ii) over
    the Cholesky diagonal, where s = sqrt(tr(Sigma)/n) is formed as sqrt(low) *
    sqrt(sum(a_ii / low) / n) with low = min a_ii. The pivot rule gives a_ii >=
    L_ii^2 > PIVOT_RTOL max a_ii, so a_ii / low < 1e12 and no step overflows,
    even where tr(Sigma) is inf. For c*I, s = sqrt(c) = L_ii: the sum is exactly
    0 at every n and scale. A near-isotropic Sigma whose log ratio is below the
    rounding error (order n ulp) reads 0 too: equality iff isotropic up to that."""
    diag = np.diag(cov.entries)
    low = float(np.min(diag))
    scale = math.sqrt(low) * math.sqrt(float(np.sum(diag / low)) / cov.dim)
    return max(0.0, float(np.sum(np.log(scale / np.diag(cov.chol)))))


def volume_ratio(cov: Covariance) -> float:
    """vol(sphere)/vol(ellipsoid) = (tr(Sigma)/n)^(n/2) / sqrt(det(Sigma)).

    Independent of delta (the coverage level cancels). The exp of
    :func:`log_volume_ratio`: exactly 1.0 for c*I, never below 1.0, and inf
    beyond the float range; no power or determinant is formed.
    """
    return exp_or_inf(log_volume_ratio(cov))


def example_ratio(k: float) -> float:
    """Closed-form volume ratio (k+2)/(2 sqrt(k)) for the worked example.

    Matches ``volume_ratio(example_covariance(sigma, k))`` exactly at sigma=1,
    k=25 and within a few ulp otherwise; minimized at k = 2 with value sqrt(2),
    increasing monotonically on both sides, unbounded as k -> 0 or k -> inf.
    """
    k = as_level(k, "k")
    return (k + 2.0) / (2.0 * math.sqrt(k))


def ellipse_boundary(region, m: int) -> np.ndarray:
    """m points tracing the boundary of a 2-D region, ordered by angle.

    Point j is center + sqrt(level) * L @ (cos, sin)(2 pi j / m). For an
    ellipsoid the level is its threshold and L the Cholesky factor of its
    covariance, so every point has squared Mahalanobis distance exactly the
    threshold (any matrix square root maps the unit circle to the same
    boundary set); for a sphere the level is its squared radius and L = I.
    """
    if not isinstance(region, (EllipsoidRegion, SphereRegion)):
        raise TypeError(f"not a region: {type(region).__name__}")
    if region.dim != 2:
        raise DomainError("ellipse_boundary is defined for dimension 2 only")
    m = as_count(m, "boundary point count")
    if m < 3:
        raise DomainError(f"need at least 3 boundary points, got {m}")
    check_entries(2 * m, f"{m} boundary points")
    theta = 2.0 * np.pi * np.arange(m) / m
    circle = np.stack([np.cos(theta), np.sin(theta)])
    if isinstance(region, SphereRegion):
        return region.center + math.sqrt(region.radius_sq) * circle.T
    return region.center + math.sqrt(region.threshold) * (region.cov.chol @ circle).T


def region_to_dict(region, delta: float | None = None) -> dict:
    """JSON-ready form of a region.

    An ellipsoid serializes with its covariance and the ``delta`` in (0, 1)
    it was built at (required for an ellipsoid); a sphere needs only its
    squared radius.
    """
    if isinstance(region, EllipsoidRegion):
        return {
            "kind": "ellipsoid",
            "center": [float(v) for v in region.center],
            "cov": [[float(v) for v in row] for row in region.cov.entries],
            "delta": _check_delta(delta),
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
    if not isinstance(data, dict):
        raise UsageError(f"region must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    try:
        if kind == "ellipsoid":
            cov = Covariance.from_matrix(data["cov"])
            return EllipsoidRegion(data["center"], cov, data["threshold"])
        if kind == "sphere":
            return SphereRegion(data["center"], data["radius_sq"])
    except KeyError as exc:
        raise UsageError(f"{kind} region is missing field {exc}") from None
    raise UsageError(f"unknown region kind: {kind!r}")
