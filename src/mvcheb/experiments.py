"""Monte Carlo verification of the tail bounds and region coverage.

Coverage counts use the distribution's true moments (not estimates), so the
experiments exercise the inequalities themselves rather than estimation
error; an estimated-moments mode is available separately. Every experiment
runs through one reducer: N is cut into the sampler's chunks of
:func:`~mvcheb.sampler.chunk_size` samples, each drawn by its own generator,
and workers reduce each chunk's tiles, as they are drawn, to small partial
results combined in tile and chunk order, so results are identical for any
worker count. A tile holds offsets from the mean, and one distance pass gives
their ||W d||^2 and ||d||^2 about a region centre relative to the mean (zero
for the true moments) to every experiment: the mean is never added, and
memory is a few tiles per worker, whatever N is.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import islice

import numpy as np

from .errors import UsageError
from .linalg import as_count, as_float_array, one_blas_thread, quad_form
from .moments import _csv_lines, merge_moment_sums, moment_sums, moments_from_sums
from .regions import _level, chebyshev_bound, ellipse_boundary, make_ellipsoid, make_sphere, within
from .sampler import SamplerSpec, chunk_size, draw, offset_tiles, paper_example_spec

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


def _reduce(spec: SamplerSpec, n_samples: int, per_tile, streams: int = 1, combine=operator.add):
    """The fold by ``combine`` of ``per_tile(x)`` over every tile x of
    :func:`~mvcheb.sampler.offset_tiles` on [0, n_samples), in tile and chunk order.

    A chunk is the sampler's :func:`~mvcheb.sampler.chunk_size` samples, one
    generator's draw, so its bounds depend only on the spec and N.
    ``streams`` threads draw and fold the chunks; this thread folds their
    results in chunk order, so no result depends on it. The pool runs in one
    :func:`~mvcheb.linalg.one_blas_thread` scope for the call, so it is the
    one source of threads.
    """
    streams, size = as_count(streams, "streams"), chunk_size(spec)

    def chunk(start: int):
        tiles = offset_tiles(spec, start, min(start + size, n_samples))
        return functools.reduce(combine, map(per_tile, tiles))

    # a chunk is submitted as each result is folded, so at most
    # 2 * streams are in flight and memory stays flat in N
    starts = iter(range(0, n_samples, size))
    with one_blas_thread(), ThreadPoolExecutor(max_workers=streams) as pool:
        pending = deque(pool.submit(chunk, s) for s in islice(starts, 2 * streams))
        total = pending.popleft().result()
        while pending:
            pending.extend(pool.submit(chunk, s) for s in islice(starts, 1))
            total = combine(total, pending.popleft().result())
    return total


def _per_tile(center, whitener, reduce_tile):
    """``reduce_tile(m2, e2)`` of a tile of offsets from the mean, given their
    squared Mahalanobis and Euclidean distances about ``center``, an offset
    too: every experiment's one distance pass. A zero centre is not subtracted."""

    def per_tile(x):
        d = x - center if center.any() else x
        return reduce_tile(quad_form(d, whitener), np.einsum("ij,ij->i", d, d))

    return per_tile


def _hit_counter(center, cov, delta: float):
    """Per-tile (ellipsoid, sphere) hit counts for the regions at ``delta``
    about ``center``, an offset from the true mean."""
    ell, sph = make_ellipsoid(center, cov, delta), make_sphere(center, cov, delta)
    return _per_tile(ell.center, cov.whitener, lambda m2, e2: np.array(
        [np.count_nonzero(within(m2, ell.threshold)), np.count_nonzero(within(e2, sph.radius_sq))]
    ))


def run_coverage(
    spec: SamplerSpec, delta: float, n_samples: int, streams: int = 1
) -> tuple[CoverageReport, CoverageReport]:
    """Hit counts for the ellipsoid and sphere built from the true moments.

    Both regions are evaluated on one shared sample set. ``streams`` sets
    the number of workers; it never changes the drawn samples or the
    counts. Returns the (ellipsoid, sphere) report pair.
    """
    n = as_count(n_samples, "n_samples")
    count = _hit_counter(np.zeros(spec.dim), spec.cov, delta)
    return _reports(delta, n, _reduce(spec, n, count, streams))


def run_coverage_estimated(
    spec: SamplerSpec, delta: float, n_samples: int, streams: int = 1
) -> dict:
    """Coverage with both true and re-fitted moments on one sample set.

    Returns ``{"true": (ellipsoid, sphere), "estimated": (ellipsoid,
    sphere)}`` where the estimated pair rebuilds the regions from the
    sample mean and unbiased (ddof=1) covariance of the same draws. The
    first pass counts the true-moment hits and merges the per-tile moment
    sums of the offsets; the second redraws each chunk and counts the hits
    of the fitted regions, centred at the offsets' mean.
    """
    n = as_count(n_samples, "n_samples")
    count = _hit_counter(np.zeros(spec.dim), spec.cov, delta)

    def merge(a, b):  # (hit counts, moment sums) of tiles, then of chunks
        return a[0] + b[0], merge_moment_sums(a[1], b[1])

    hits, sums = _reduce(spec, n, lambda x: (count(x), moment_sums(x)), streams, merge)
    fitted = moments_from_sums(sums)  # of the offsets: its mean is the fitted mean less the true
    count_fitted = _hit_counter(fitted.mean, fitted.cov, delta)
    return {
        "true": _reports(delta, n, hits),
        "estimated": _reports(delta, n, _reduce(spec, n, count_fitted, streams)),
    }


def trace_identity_check(spec: SamplerSpec, n_samples: int) -> float:
    """Sample mean of the squared Mahalanobis distance under true moments.

    The population value is tr(Sigma^-1 Sigma) = n for every distribution
    with finite covariance, so the returned mean should sit within Monte
    Carlo error of the dimension.
    """
    n = as_count(n_samples, "n_samples")
    chunk_sum = _per_tile(np.zeros(spec.dim), spec.cov.whitener, lambda m2, _: float(np.sum(m2)))
    return _reduce(spec, n, chunk_sum) / n


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


def run_tail_curve(spec: SamplerSpec, eps_grid, n_samples: int, streams: int = 1) -> TailCurve:
    """Both tails and both bounds on an ascending positive grid, from ``streams`` workers."""
    grid = as_float_array(eps_grid, "eps grid").reshape(-1)
    if grid.size == 0:
        raise UsageError("eps grid must contain at least one value")
    if not np.all((grid > 0.0) & (grid < np.inf)) or np.any(np.diff(grid) <= 0.0):
        raise UsageError("eps grid must be strictly ascending, positive and finite")
    total = as_count(n_samples, "n_samples")
    var_total = _level("total variance", spec.cov.trace)  # computed: inf is a DomainError
    new_bound = np.array([chebyshev_bound(spec.dim, e).clamped for e in grid.tolist()])
    # Var / (sqrt(eps Var))^2 is 1/eps exactly; 1/eps is below 1 only where eps > 1
    classical = 1.0 / np.maximum(grid, 1.0)
    with np.errstate(over="ignore"):  # a level beyond the float range is inf: no sample reaches it
        var_levels = grid * var_total

    # a level's count (v >= level) is the tile's length less its sorted v below the level
    counts = _per_tile(np.zeros(spec.dim), spec.cov.whitener, lambda *vs: np.stack(
        [len(v) - np.searchsorted(np.sort(v), lv) for lv, v in zip((grid, var_levels), vs)]
    ))
    tails = _reduce(spec, total, counts, streams) / total
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
    samples = draw(spec, n_samples)
    ell = make_ellipsoid(spec.mean, spec.cov, delta)
    sph = make_sphere(spec.mean, spec.cov, delta)
    return FigureData(
        samples=samples,
        ellipse_boundary=ellipse_boundary(ell, boundary_points),
        circle_boundary=ellipse_boundary(sph, boundary_points),
        params={
            "sigma": spec.sigma,
            "k": spec.k,
            "delta": float(delta),
            "seed": int(spec.seed),
            "N": len(samples),
        },
        threshold=ell.threshold,
        radius_sq=sph.radius_sq,
    )


def figure_csv_texts(fig: FigureData) -> dict[str, str]:
    """The three CSV series (samples, ellipse, circle), two columns x,y."""
    return {
        "samples": "x,y\n" + "".join(_csv_lines(fig.samples)),
        "ellipse": "x,y\n" + "".join(_csv_lines(fig.ellipse_boundary)),
        "circle": "x,y\n" + "".join(_csv_lines(fig.circle_boundary)),
    }
