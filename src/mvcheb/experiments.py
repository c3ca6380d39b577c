"""Monte Carlo verification of the tail bounds and region coverage.

Coverage counts use the distribution's true moments (not estimates), so the
experiments exercise the inequalities themselves rather than estimation
error; an estimated-moments mode is available separately. Worker
parallelism only partitions the sample index range (see
:mod:`mvcheb.sampler`), so hit counts are identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid, InvalidSpec
from .linalg import Covariance, as_vector, invert_spd
from .moments import estimate_moments
from .regions import (
    chebyshev_bound,
    classical_bound,
    contains,
    ellipse_boundary,
    make_ellipsoid,
    make_sphere,
    mahalanobis_sq,
)
from .sampler import (
    SamplerSpec,
    draw,
    draw_range,
    paper_example_spec,
    spec_dim,
    true_moments,
)

_CHUNK = 1 << 16


@dataclass(frozen=True)
class CoverageReport:
    """Empirical coverage of one region against its guarantee."""

    kind: str
    delta: float
    n_samples: int
    hits: int
    empirical_coverage: float
    guaranteed_coverage: float
    standard_error: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "delta": self.delta,
            "n_samples": self.n_samples,
            "hits": self.hits,
            "empirical_coverage": self.empirical_coverage,
            "guaranteed_coverage": self.guaranteed_coverage,
            "standard_error": self.standard_error,
        }


def _report(kind: str, delta: float, n_samples: int, hits: int) -> CoverageReport:
    p = hits / n_samples
    return CoverageReport(
        kind=kind,
        delta=float(delta),
        n_samples=int(n_samples),
        hits=int(hits),
        empirical_coverage=p,
        guaranteed_coverage=1.0 - float(delta),
        standard_error=math.sqrt(p * (1.0 - p) / n_samples),
    )


def _partition(n: int, parts: int) -> list[tuple[int, int]]:
    parts = int(parts)
    bounds = [n * i // parts for i in range(parts + 1)]
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]


def _check_n_samples(n_samples: int) -> int:
    n = int(n_samples)
    if n < 1:
        raise InvalidSpec(f"n_samples must be positive, got {n_samples}")
    return n


def run_coverage(
    spec: SamplerSpec,
    delta: float,
    n_samples: int,
    true_mean=None,
    true_cov: Covariance | None = None,
    streams: int = 1,
) -> tuple[CoverageReport, CoverageReport]:
    """Hit counts for the ellipsoid and sphere built from the true moments.

    Both regions are evaluated on one shared sample set. ``streams`` sets
    the number of workers; it never changes the drawn samples or the
    counts. Returns the (ellipsoid, sphere) report pair.
    """
    n_samples = _check_n_samples(n_samples)
    if streams < 1:
        raise InvalidSpec(f"streams must be positive, got {streams}")
    mean_d, cov_d = true_moments(spec)
    mean = mean_d if true_mean is None else as_vector(true_mean, cov_d.dim)
    cov = cov_d if true_cov is None else true_cov
    ell = make_ellipsoid(mean, cov, delta)
    sph = make_sphere(mean, cov, delta)

    def count(chunk: tuple[int, int]) -> tuple[int, int]:
        x = draw_range(spec, chunk[0], chunk[1])
        return int(np.sum(contains(ell, x))), int(np.sum(contains(sph, x)))

    chunks = _partition(n_samples, streams)
    if streams > 1:
        with ThreadPoolExecutor(max_workers=streams) as pool:
            counts = list(pool.map(count, chunks))
    else:
        counts = [count(c) for c in chunks]
    hits_e = sum(c[0] for c in counts)
    hits_s = sum(c[1] for c in counts)
    return (
        _report("ellipsoid", delta, n_samples, hits_e),
        _report("sphere", delta, n_samples, hits_s),
    )


def run_coverage_estimated(
    spec: SamplerSpec, delta: float, n_samples: int, ddof: int = 1
) -> dict:
    """Coverage with both true and re-fitted moments on one sample set.

    Returns ``{"true": (ellipsoid, sphere), "estimated": (ellipsoid,
    sphere)}`` where the estimated pair rebuilds the regions from the
    sample mean and covariance of the same draws.
    """
    x = draw(spec, _check_n_samples(n_samples))
    mean, cov = true_moments(spec)
    fitted = estimate_moments(x, ddof=ddof)

    def pair(m, c) -> tuple[CoverageReport, CoverageReport]:
        ell = make_ellipsoid(m, c, delta)
        sph = make_sphere(m, c, delta)
        return (
            _report("ellipsoid", delta, n_samples, int(np.sum(contains(ell, x)))),
            _report("sphere", delta, n_samples, int(np.sum(contains(sph, x)))),
        )

    return {"true": pair(mean, cov), "estimated": pair(fitted.mean, fitted.cov)}


def trace_identity_check(spec: SamplerSpec, n_samples: int) -> float:
    """Sample mean of the squared Mahalanobis distance under true moments.

    The population value is tr(Sigma^-1 Sigma) = n for every distribution
    with finite covariance, so the returned mean should sit within Monte
    Carlo error of the dimension.
    """
    mean, cov = true_moments(spec)
    precision = invert_spd(cov)
    total = 0.0
    n = _check_n_samples(n_samples)
    for a, b in _partition(n, -(-n // _CHUNK)):
        x = draw_range(spec, a, b)
        total += float(np.sum(mahalanobis_sq(x, mean, precision)))
    return total / n


@dataclass(frozen=True, eq=False)
class TailCurve:
    """Empirical tail probabilities against both bound curves on one grid.

    At grid value eps the Mahalanobis event is d^2 >= eps (bound n/eps) and
    the comparable Euclidean event is ||X - mu||^2 >= eps * Var(X) (bound
    1/eps); for n = 1 the two events coincide.
    """

    eps_grid: np.ndarray
    empirical_tail: np.ndarray
    new_bound: np.ndarray
    classical_tail: np.ndarray
    classical_bound: np.ndarray

    def to_dict(self) -> dict:
        return {
            "eps_grid": self.eps_grid.tolist(),
            "empirical_tail": self.empirical_tail.tolist(),
            "new_bound": self.new_bound.tolist(),
            "classical_tail": self.classical_tail.tolist(),
            "classical_bound": self.classical_bound.tolist(),
        }


def run_tail_curve(spec: SamplerSpec, eps_grid, n_samples: int) -> TailCurve:
    """Evaluate both tails and both bounds on an ascending positive grid."""
    grid = np.asarray(eps_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise EmptyGrid("eps grid must contain at least one value")
    if not np.all((grid > 0.0) & (grid < np.inf)) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("eps grid must be strictly ascending, positive and finite")
    mean, cov = true_moments(spec)
    n = spec_dim(spec)
    precision = invert_spd(cov)
    var_total = cov.trace

    d2_tail = np.zeros(grid.size)
    norm_tail = np.zeros(grid.size)
    total = _check_n_samples(n_samples)
    for a, b in _partition(total, -(-total // _CHUNK)):
        x = draw_range(spec, a, b)
        d2 = mahalanobis_sq(x, mean, precision)
        sq_norm = np.einsum("ij,ij->i", x - mean, x - mean)
        d2_tail += np.sum(d2[:, None] >= grid[None, :], axis=0)
        norm_tail += np.sum(sq_norm[:, None] >= grid[None, :] * var_total, axis=0)

    return TailCurve(
        eps_grid=grid,
        empirical_tail=d2_tail / total,
        new_bound=np.array([chebyshev_bound(n, e).clamped for e in grid]),
        classical_tail=norm_tail / total,
        classical_bound=np.array(
            [classical_bound(var_total, math.sqrt(e * var_total)).clamped for e in grid]
        ),
    )


@dataclass(frozen=True, eq=False)
class FigureData:
    """Sample cloud plus both region boundaries for the 2-D comparison plot."""

    samples: np.ndarray
    ellipse_boundary: np.ndarray
    circle_boundary: np.ndarray
    params: dict
    threshold: float
    radius_sq: float


def export_figure(
    sigma: float = 1.0,
    k: float = 25.0,
    delta: float = 0.1,
    n_samples: int = 1000,
    seed: int = 0,
    boundary_points: int = 256,
) -> FigureData:
    """Deterministic data behind the sphere-vs-ellipsoid comparison figure.

    Draws ``n_samples`` from the worked-example distribution and traces both
    region boundaries at ``boundary_points`` angles. The defaults reproduce
    the reference setting sigma=1, k=25, delta=0.1, N=1000.
    """
    spec = paper_example_spec(sigma, k, seed=seed)
    samples = draw(spec, int(n_samples))
    mean, cov = true_moments(spec)
    ell = make_ellipsoid(mean, cov, delta)
    sph = make_sphere(mean, cov, delta)
    m = int(boundary_points)
    theta = 2.0 * np.pi * np.arange(m) / m
    circle = sph.center + math.sqrt(sph.radius_sq) * np.stack(
        [np.cos(theta), np.sin(theta)], axis=1
    )
    return FigureData(
        samples=samples,
        ellipse_boundary=ellipse_boundary(ell, cov, m),
        circle_boundary=circle,
        params={
            "sigma": float(sigma),
            "k": float(k),
            "delta": float(delta),
            "seed": int(seed),
            "N": int(n_samples),
        },
        threshold=ell.threshold,
        radius_sq=sph.radius_sq,
    )


def figure_manifest(fig: FigureData, files: dict | None = None) -> dict:
    out = {
        "params": dict(fig.params),
        "threshold": fig.threshold,
        "radius_sq": fig.radius_sq,
    }
    if files is not None:
        out["files"] = files
    return out


def _xy_csv(points: np.ndarray) -> str:
    lines = ["x,y"]
    lines.extend(f"{float(x)!r},{float(y)!r}" for x, y in points)
    return "\n".join(lines) + "\n"


def figure_csv_texts(fig: FigureData) -> dict[str, str]:
    """The three CSV series (samples, ellipse, circle), two columns x,y."""
    return {
        "samples": _xy_csv(fig.samples),
        "ellipse": _xy_csv(fig.ellipse_boundary),
        "circle": _xy_csv(fig.circle_boundary),
    }
