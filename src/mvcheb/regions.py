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
Both regions are closed sets: membership uses <=.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .linalg import Covariance, as_vector, invert_spd, quad_form


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


def mahalanobis_sq(x, center, precision: np.ndarray) -> float | np.ndarray:
    """Squared Mahalanobis distance (x - center)^T Sigma^-1 (x - center).

    ``x`` may be one vector of shape (n,) or a batch of shape (N, n).
    """
    c = as_vector(center)
    xv = np.asarray(x, dtype=float)
    if xv.shape[-1:] != c.shape:
        raise DomainError(
            f"point dimension {xv.shape[-1:]} does not match center {c.shape}"
        )
    return quad_form(xv - c, precision)


@dataclass(frozen=True, eq=False)
class EllipsoidRegion:
    """Closed set { v : (v-center)^T precision (v-center) <= threshold }."""

    center: np.ndarray
    precision: np.ndarray
    threshold: float

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True, eq=False)
class SphereRegion:
    """Closed set { v : ||v - center||^2 <= radius_sq }."""

    center: np.ndarray
    radius_sq: float

    @property
    def dim(self) -> int:
        return self.center.shape[0]


def _check_delta(delta: float) -> float:
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return float(delta)


def make_ellipsoid(mean, cov: Covariance, delta: float) -> EllipsoidRegion:
    """Ellipsoid with Mahalanobis threshold n/delta: coverage > 1 - delta."""
    d = _check_delta(delta)
    center = as_vector(mean, cov.dim)
    return EllipsoidRegion(
        center=center, precision=invert_spd(cov), threshold=cov.dim / d
    )


def make_sphere(mean, cov: Covariance, delta: float) -> SphereRegion:
    """Sphere with squared radius tr(Sigma)/delta: coverage > 1 - delta."""
    d = _check_delta(delta)
    center = as_vector(mean, cov.dim)
    return SphereRegion(center=center, radius_sq=cov.trace / d)


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
    if isinstance(region, EllipsoidRegion):
        d2 = mahalanobis_sq(x, region.center, region.precision)
        result = d2 <= region.threshold * (1.0 + _BOUNDARY_RTOL)
    elif isinstance(region, SphereRegion):
        xv = np.asarray(x, dtype=float)
        if xv.shape[-1:] != region.center.shape:
            raise DomainError(
                f"point dimension {xv.shape[-1:]} does not match center "
                f"{region.center.shape}"
            )
        diff = xv - region.center
        sq = np.einsum("...i,...i->...", diff, diff)
        result = sq <= region.radius_sq * (1.0 + _BOUNDARY_RTOL)
    else:
        raise TypeError(f"not a region: {type(region).__name__}")
    return bool(result) if np.ndim(result) == 0 else result


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def volume(region, cov: Covariance | None = None) -> float:
    """Lebesgue volume of a region.

    A sphere with squared radius r2 has volume V_n * r2^(n/2); an ellipsoid
    at Mahalanobis threshold t has volume sqrt(det(Sigma)) * V_n * t^(n/2)
    (the linear map Sigma^(1/2) scales volumes by sqrt(det)). The covariance
    is required for ellipsoids only.
    """
    n = region.dim
    vn = unit_ball_volume(n)
    if isinstance(region, SphereRegion):
        return vn * region.radius_sq ** (n / 2.0)
    if isinstance(region, EllipsoidRegion):
        if cov is None:
            raise DomainError("ellipsoid volume requires the covariance matrix")
        if cov.dim != n:
            raise DomainError(
                f"covariance dim {cov.dim} does not match region dim {n}"
            )
        return math.sqrt(cov.det) * vn * region.threshold ** (n / 2.0)
    raise TypeError(f"not a region: {type(region).__name__}")


def volume_ratio(cov: Covariance) -> float:
    """vol(sphere)/vol(ellipsoid) = (tr(Sigma)/n)^(n/2) / sqrt(det(Sigma)).

    Independent of delta (the coverage level cancels); always >= 1, with
    equality exactly for isotropic Sigma. Computed as the product of
    sqrt(tr(Sigma)/n) / L_ii over the Cholesky diagonal, in logs, so no
    power or determinant leaves the float range; a ratio beyond it is inf.
    """
    scale = math.sqrt(cov.trace / cov.dim)
    return float(np.exp(np.sum(np.log(scale / np.diag(cov.chol)))))


def example_ratio(k: float) -> float:
    """Closed-form volume ratio (k+2)/(2 sqrt(k)) for the worked example.

    Matches ``volume_ratio(example_covariance(sigma, k))`` for every sigma;
    minimized at k = 2 with value sqrt(2), increasing monotonically on both
    sides and unbounded as k -> 0 or k -> infinity.
    """
    if k <= 0.0:
        raise DomainError(f"k must be positive, got {k}")
    return (k + 2.0) / (2.0 * math.sqrt(k))


def ellipse_boundary(region: EllipsoidRegion, cov: Covariance, m: int) -> np.ndarray:
    """m points tracing the 2-D ellipsoid boundary, ordered by angle.

    Point j is center + sqrt(threshold) * L @ (cos, sin)(2 pi j / m) with L
    the Cholesky factor of the covariance; every point has squared
    Mahalanobis distance exactly the threshold (any matrix square root maps
    the unit circle to the same boundary set).
    """
    if region.dim != 2 or cov.dim != 2:
        raise DomainError("ellipse_boundary is defined for dimension 2 only")
    if m < 3:
        raise DomainError(f"need at least 3 boundary points, got {m}")
    theta = 2.0 * np.pi * np.arange(m) / m
    circle = np.stack([np.cos(theta), np.sin(theta)])
    return region.center + math.sqrt(region.threshold) * (cov.chol @ circle).T


def region_to_dict(region, cov: Covariance | None = None, delta: float | None = None) -> dict:
    """JSON-ready form of a region.

    Ellipsoids serialize with their generating covariance and delta
    (both required); spheres need only the squared radius.
    """
    if isinstance(region, EllipsoidRegion):
        if cov is None or delta is None:
            raise DomainError("ellipsoid serialization requires cov and delta")
        return {
            "kind": "ellipsoid",
            "center": [float(v) for v in region.center],
            "cov": [[float(v) for v in row] for row in cov.entries],
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
        center = as_vector(data["center"], cov.dim)
        threshold = float(data["threshold"])
        if threshold <= 0.0:
            raise DomainError(f"threshold must be positive, got {threshold}")
        return EllipsoidRegion(
            center=center, precision=invert_spd(cov), threshold=threshold
        )
    if kind == "sphere":
        center = as_vector(data["center"])
        radius_sq = float(data["radius_sq"])
        if radius_sq <= 0.0:
            raise DomainError(f"radius_sq must be positive, got {radius_sq}")
        return SphereRegion(center=center, radius_sq=radius_sq)
    raise DomainError(f"unknown region kind: {kind!r}")
