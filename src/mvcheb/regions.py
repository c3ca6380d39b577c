"""The confidence regions that the two tail bounds of :mod:`mvcheb.bounds` induce.

At a miss probability delta in (0, 1) the classical bound Var(X)/eps^2 and
the Mahalanobis bound n/eps yield, respectively, the sphere
``||v - mu||^2 <= tr(Sigma)/delta`` and the ellipsoid
``(v-mu)^T Sigma^-1 (v-mu) <= n/delta``, each covering X with probability
at least 1 - delta. The ellipsoid is never larger: the volume ratio

    vol(sphere) / vol(ellipsoid) = (tr(Sigma)/n)^(n/2) / sqrt(det(Sigma))

is at least 1, with equality exactly when Sigma is a positive multiple of
the identity (AM-GM on the diagonal plus Hadamard's determinant bound). In
floats it is exactly 1 for c*I and never below 1 (:func:`log_volume_ratio`).
Both are one type, :class:`Region`: the closed set ||S (v - center)||^2 <=
level, where S is the whitener W = L^-1 of the region's
:class:`~mvcheb.linalg.Covariance` for the ellipsoid, and I, with no matrix
formed, for the sphere (``cov=None``). So membership computes one squared
distance (:func:`~mvcheb.linalg.quad_form` for the ellipsoid, Sigma^-1 never
formed) and compares it with the level with <=. A region is checked once,
when it is built: a finite center, a positive finite level, and for an
ellipsoid a whitener within the float range. The level's name, in JSON and
in error messages, is the ellipsoid's ``threshold`` or the sphere's
``radius_sq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError, as_count, as_float, as_level
from .linalg import Covariance, as_finite_array, as_vector, check_entries, exp_or_inf, quad_form


# each kind's level, named as in its JSON form and its error messages
_LEVEL = {"ellipsoid": "threshold", "sphere": "radius_sq"}


@dataclass(frozen=True, eq=False)
class Region:
    """Closed set { v : ||S (v - center)||^2 <= level }: with a ``cov`` the
    ellipsoid, S its whitener W = L^-1; with ``cov=None`` the sphere, S = I.
    The whitener is derived when the region is built, so one beyond the float
    range refuses the region then, not when it is used."""

    center: np.ndarray
    level: float
    cov: Covariance | None = None

    def __post_init__(self):
        if self.cov is not None and not isinstance(self.cov, Covariance):
            raise UsageError(f"cov must be a Covariance, got {type(self.cov).__name__}")
        dim = None if self.cov is None else self.cov.dim
        object.__setattr__(self, "center", as_vector(self.center, dim))
        object.__setattr__(self, "level", as_level(self.level, _LEVEL[self.kind]))
        if self.cov is not None:
            self.cov.whitener  # derived now, so a region is refused when built

    @property
    def kind(self) -> str:
        return "sphere" if self.cov is None else "ellipsoid"

    @property
    def dim(self) -> int:
        return self.center.shape[0]


def _region(region) -> Region:
    if not isinstance(region, Region):
        raise TypeError(f"not a region: {type(region).__name__}")
    return region


def _check_delta(delta: float, region: Region | None = None) -> float:
    if not 0.0 < (delta := as_float(delta, "delta")) < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if region is not None and not math.isclose(
            region.level, n_delta := region.dim / delta, rel_tol=_BOUNDARY_RTOL):
        raise DomainError(f"threshold {region.level} is not n/delta = {n_delta} at delta={delta}")
    return delta


def _over_delta(value: float, what: str, delta: float) -> float:
    """The level ``value / delta``, refused naming ``what`` where it overflows."""
    if (level := value / _check_delta(delta)) == math.inf:
        raise DomainError(f"{what}/delta is beyond the float range at delta={delta}")
    return level


def make_ellipsoid(mean, cov: Covariance, delta: float) -> Region:
    """Ellipsoid with Mahalanobis threshold n/delta: coverage >= 1 - delta."""
    return Region(mean, _over_delta(cov.dim, "n", delta), cov)


def make_sphere(mean, cov: Covariance, delta: float) -> Region:
    """Sphere with squared radius tr(Sigma)/delta: coverage >= 1 - delta."""
    return Region(as_vector(mean, cov.dim), _over_delta(cov.trace, "tr(Sigma)", delta))


# Membership tie margin: a point computed to sit exactly on the closed
# boundary can evaluate a few ulps past the level; 1e-12 relative slack keeps
# such points members without admitting anything meaningfully outside.
_BOUNDARY_RTOL = 1e-12


def within(q, level: float):
    """``q <= level`` for the closed region at ``level``, with ``_BOUNDARY_RTOL`` slack."""
    return q <= level * (1.0 + _BOUNDARY_RTOL)


def contains(region, x) -> bool | np.ndarray:
    """Membership test (closed regions: boundary points are members).

    ``x`` may be one finite vector or a batch of shape (N, n); the result is
    a bool or a boolean array accordingly. The comparison is :func:`within`, whose
    slack keeps points constructed on the boundary members despite round-off.
    """
    xv = as_finite_array(x, "point", (1, 2), _region(region).dim)
    d = xv - region.center
    q = np.einsum("...i,...i->...", d, d) if region.cov is None else quad_form(d, region.cov.whitener)
    inside = within(q, region.level)
    return bool(inside) if xv.ndim == 1 else inside


def volume(region) -> float:
    """Lebesgue volume of a region, computed in logs (0 or inf beyond the float range).

    A ball of squared radius r2 in R^n has volume pi^(n/2) r2^(n/2) /
    Gamma(n/2 + 1); an ellipsoid at Mahalanobis threshold t has sqrt(det(Sigma))
    times that at r2 = t (the linear map Sigma^(1/2) scales volumes by sqrt(det)).
    """
    n = _region(region).dim
    log_v = math.log(region.level) * n / 2.0
    if region.cov is not None:
        log_v += region.cov.logdet / 2.0
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
    ellipsoid L is the Cholesky factor of its covariance, so every point has
    squared Mahalanobis distance exactly the level (any matrix square root
    maps the unit circle to the same boundary set); for a sphere L = I.
    """
    if _region(region).dim != 2:
        raise DomainError("ellipse_boundary is defined for dimension 2 only")
    m = as_count(m, "boundary point count")
    if m < 3:
        raise DomainError(f"need at least 3 boundary points, got {m}")
    check_entries(2 * m, f"{m} boundary points")
    theta = 2.0 * np.pi * np.arange(m) / m
    circle = np.stack([np.cos(theta), np.sin(theta)])
    shape = circle if region.cov is None else region.cov.chol @ circle
    return region.center + math.sqrt(region.level) * shape.T


def region_to_dict(region, delta: float | None = None) -> dict:
    """JSON-ready form of a region, its level under the kind's name.

    An ellipsoid serializes with its covariance and the ``delta`` in (0, 1)
    it was built at (required for an ellipsoid, and refused unless the
    threshold is n/delta); a sphere needs only its squared radius.
    """
    data = {"kind": _region(region).kind, "center": [float(v) for v in region.center]}
    if region.cov is not None:
        data["cov"] = [[float(v) for v in row] for row in region.cov.entries]
        data["delta"] = _check_delta(delta, region)
    data[_LEVEL[region.kind]] = float(region.level)
    return data


def region_from_dict(data: dict) -> Region:
    """Rebuild a region from its JSON form (inverse of :func:`region_to_dict`).

    A key the kind does not read is refused. An ellipsoid's ``delta`` is
    required, and its threshold must be n/delta up to ``_BOUNDARY_RTOL``.
    """
    if not isinstance(data, dict):
        raise UsageError(f"region must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _LEVEL:
        raise UsageError(f"unknown region kind: {kind!r}")
    cov_keys = ("cov", "delta") if kind == "ellipsoid" else ()
    if unknown := set(data) - {"kind", "center", _LEVEL[kind], *cov_keys}:
        raise UsageError(f"unknown {kind} region field {', '.join(sorted(map(str, unknown)))}")
    try:
        cov = Covariance.from_matrix(data["cov"]) if cov_keys else None
        region = Region(data["center"], data[_LEVEL[kind]], cov)
        if cov_keys:
            _check_delta(data["delta"], region)
        return region
    except KeyError as exc:
        raise UsageError(f"{kind} region is missing field {exc}") from None
