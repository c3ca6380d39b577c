"""Monte Carlo verification of the tail bounds and region coverage.

Coverage counts use the distribution's true moments (not estimates), so the
experiments exercise the inequalities themselves rather than estimation
error; an estimated-moments mode is available separately. Every experiment
runs through one reducer: N is cut into fixed chunks (see
:mod:`mvcheb.sampler` for why a chunk can be drawn alone), workers reduce
chunks to small partial results, and those are combined in chunk order.
Results are therefore identical for any worker count, and memory is one
chunk per worker whatever N is.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DomainError, UsageError
from .linalg import invert_spd, quad_form
from .moments import merge_moment_sums, moment_sums, moments_from_sums
from .regions import (
    chebyshev_bound,
    classical_bound,
    contains,
    ellipse_boundary,
    make_ellipsoid,
    make_sphere,
)
from .sampler import (
    SamplerSpec,
    blocks_per_sample,
    check_entries,
    draw,
    draw_range,
    paper_example_spec,
    true_moments,
)

# Philox counter blocks per chunk: 65,536 samples of up to 4 words each.
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
        return asdict(self)


def _report(kind: str, delta: float, n_samples: int, hits: int) -> CoverageReport:
    p = hits / n_samples
    return CoverageReport(
        kind=kind,
        delta=float(delta),
        n_samples=n_samples,
        hits=hits,
        empirical_coverage=p,
        guaranteed_coverage=1.0 - float(delta),
        standard_error=math.sqrt(p * (1.0 - p) / n_samples),
    )


def _reports(delta: float, n_samples: int, hits) -> tuple[CoverageReport, CoverageReport]:
    """The (ellipsoid, sphere) reports for their summed hit counts."""
    return tuple(_report(k, delta, n_samples, int(h)) for k, h in zip(("ellipsoid", "sphere"), hits))


def _check_n_samples(n_samples: int) -> int:
    n = int(n_samples)
    if n < 1:
        raise UsageError(f"n_samples must be positive, got {n_samples}")
    return n


def _reduce(spec: SamplerSpec, n_samples: int, per_chunk, streams: int = 1):
    """``per_chunk(x)`` for each chunk x of samples [0, n_samples), in chunk order.

    A chunk is ``_CHUNK`` Philox blocks of samples, so its bounds depend only
    on the spec and N. ``streams`` threads draw and reduce the chunks; callers
    combine the results in the order yielded, so no result depends on it.
    """
    if streams < 1:
        raise UsageError(f"streams must be positive, got {streams}")
    size = max(1, _CHUNK // blocks_per_sample(spec))

    def chunk(start: int):
        return per_chunk(draw_range(spec, start, min(start + size, n_samples)))

    def results():
        with ThreadPoolExecutor(max_workers=streams) as pool:
            yield from pool.map(chunk, range(0, n_samples, size))

    return results()


def _hit_counter(mean, cov, delta: float):
    """Per-chunk (ellipsoid, sphere) hit counts for the regions at ``delta``."""
    ell = make_ellipsoid(mean, cov, delta)
    sph = make_sphere(mean, cov, delta)
    return lambda x: np.array([np.count_nonzero(contains(r, x)) for r in (ell, sph)])


def run_coverage(
    spec: SamplerSpec, delta: float, n_samples: int, streams: int = 1
) -> tuple[CoverageReport, CoverageReport]:
    """Hit counts for the ellipsoid and sphere built from the true moments.

    Both regions are evaluated on one shared sample set. ``streams`` sets
    the number of workers; it never changes the drawn samples or the
    counts. Returns the (ellipsoid, sphere) report pair.
    """
    n = _check_n_samples(n_samples)
    count = _hit_counter(*true_moments(spec), delta)
    return _reports(delta, n, sum(_reduce(spec, n, count, streams)))


def run_coverage_estimated(
    spec: SamplerSpec, delta: float, n_samples: int, ddof: int = 1, streams: int = 1
) -> dict:
    """Coverage with both true and re-fitted moments on one sample set.

    Returns ``{"true": (ellipsoid, sphere), "estimated": (ellipsoid,
    sphere)}`` where the estimated pair rebuilds the regions from the
    sample mean and covariance of the same draws. The first pass counts
    the true-moment hits and merges per-chunk moment sums; the second
    redraws each chunk and counts the hits of the fitted regions.
    """
    n = _check_n_samples(n_samples)
    count = _hit_counter(*true_moments(spec), delta)
    hits, sums = functools.reduce(
        lambda a, b: (a[0] + b[0], merge_moment_sums(a[1], b[1])),
        _reduce(spec, n, lambda x: (count(x), moment_sums(x)), streams),
    )
    fitted = moments_from_sums(sums, ddof=ddof)
    count_fitted = _hit_counter(fitted.mean, fitted.cov, delta)
    return {
        "true": _reports(delta, n, hits),
        "estimated": _reports(delta, n, sum(_reduce(spec, n, count_fitted, streams))),
    }


def trace_identity_check(spec: SamplerSpec, n_samples: int) -> float:
    """Sample mean of the squared Mahalanobis distance under true moments.

    The population value is tr(Sigma^-1 Sigma) = n for every distribution
    with finite covariance, so the returned mean should sit within Monte
    Carlo error of the dimension.
    """
    mean, cov = true_moments(spec)
    precision = invert_spd(cov)
    n = _check_n_samples(n_samples)
    chunk_sums = _reduce(spec, n, lambda x: float(np.sum(quad_form(x - mean, precision))))
    return math.fsum(chunk_sums) / n


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
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}


def run_tail_curve(spec: SamplerSpec, eps_grid, n_samples: int) -> TailCurve:
    """Evaluate both tails and both bounds on an ascending positive grid."""
    grid = np.asarray(eps_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise UsageError("eps grid must contain at least one value")
    if not np.all((grid > 0.0) & (grid < np.inf)) or np.any(np.diff(grid) <= 0.0):
        raise DomainError("eps grid must be strictly ascending, positive and finite")
    mean, cov = true_moments(spec)
    precision = invert_spd(cov)
    var_total = cov.trace
    total = _check_n_samples(n_samples)
    # bounds first: they refuse a level eps * Var(X) beyond the float range
    new_bound = np.array([chebyshev_bound(spec.dim, e).clamped for e in grid.tolist()])
    classical = np.array(
        [classical_bound(var_total, math.sqrt(e * var_total)).clamped for e in grid.tolist()]
    )
    var_levels = grid * var_total

    def histograms(x):
        # bin k counts the samples at or above exactly k levels of the grid
        d = x - mean
        pairs = ((grid, quad_form(d, precision)), (var_levels, np.einsum("ij,ij->i", d, d)))
        return np.stack([
            np.bincount(np.searchsorted(levels, v, side="right"), minlength=grid.size + 1)
            for levels, v in pairs
        ])

    # the tail at level j counts the samples in bins j+1 and up
    counts = sum(_reduce(spec, total, histograms))
    tails = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1][:, 1:] / total
    return TailCurve(
        eps_grid=grid,
        empirical_tail=tails[0],
        new_bound=new_bound,
        classical_tail=tails[1],
        classical_bound=classical,
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
    check_entries(2 * m, f"{m} boundary points")
    theta = 2.0 * np.pi * np.arange(m) / m
    circle = sph.center + math.sqrt(sph.radius_sq) * np.stack(
        [np.cos(theta), np.sin(theta)], axis=1
    )
    return FigureData(
        samples=samples,
        ellipse_boundary=ellipse_boundary(ell, m),
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
