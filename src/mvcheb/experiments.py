"""Monte Carlo verification of the tail bounds and region coverage.

Coverage counts use the distribution's true moments, so the experiments
exercise the inequalities rather than estimation error; an estimated-moments
mode is separate. Every experiment runs through one reducer: N is cut into
the sampler's chunks of :func:`~mvcheb.sampler.chunk_size` samples, each
drawn by its own generator, and workers reduce each chunk's tiles, as they
are drawn, to small partial results summed by ``+`` in tile and chunk order,
so results are identical for any worker count. A tile holds offsets from the
mean; :func:`_regions` alone names the regions counted, and every distance is
:func:`~mvcheb.linalg.sq_distance`'s about a centre relative to the mean (zero
for the true moments), so the mean is never added; a worker holds two tiles at once.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import islice

import numpy as np

from .errors import DomainError, UsageError, as_count
from .linalg import as_float_array, float_range_guard, one_blas_thread, sq_distance
from .moments import _MOMENTS_RANGE, _csv_lines, moments_from_sums
from .regions import ellipse_boundary, make_ellipsoid, make_sphere, within
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


def _reports(regions, delta: float, n_samples: int, hits) -> tuple[CoverageReport, ...]:
    """One report per region, of its kind, for the regions' summed hit counts."""
    return tuple(_report(r.kind, delta, n_samples, int(h)) for r, h in zip(regions, hits))


_raise_on_overflow = functools.partial(np.errstate, over="raise", invalid="raise")


def _reduce(spec: SamplerSpec, n_samples: int, per_tile, streams: int = 1):
    """The sum by ``+=`` of ``per_tile(x)`` over every tile x of
    :func:`~mvcheb.sampler.offset_tiles` on [0, n_samples), in tile and chunk order.
    ``per_tile`` owns its tile and may write to it, as the sampler rewrites the next
    whole, and returns a fresh value each call: the reducer adds later ones into it.

    A chunk is the sampler's :func:`~mvcheb.sampler.chunk_size` samples, one
    generator's draw, so its bounds depend only on the spec and N. Up to
    ``streams`` threads, no more than the chunks or usable CPUs, draw and sum the
    chunks and this thread sums their results in chunk order, so no result depends
    on them; a float that leaves the range raises ``FloatingPointError`` in either.
    The pool runs in one :func:`~mvcheb.linalg.one_blas_thread` scope, its one source of threads.
    """
    streams, size = as_count(streams, "streams"), chunk_size(spec)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(streams, -(-n_samples // size), cpus)

    def chunk(start: int):
        tiles = offset_tiles(spec, start, min(start + size, n_samples))
        with _raise_on_overflow():  # numpy's error state is per thread
            return functools.reduce(operator.iadd, map(per_tile, tiles))

    # a chunk is submitted as each result is summed, so at most
    # 2 * workers are in flight and memory stays flat in N
    starts = iter(range(0, n_samples, size))
    with one_blas_thread(), _raise_on_overflow(), ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(chunk, s) for s in islice(starts, 2 * workers))
        total = pending.popleft().result()
        while pending:
            pending.extend(pool.submit(chunk, s) for s in islice(starts, 1))
            total += pending.popleft().result()
    return total


def _regions(center, cov, delta: float):
    """The regions every coverage experiment counts, in report order: the
    (ellipsoid, sphere) pair at ``delta`` about ``center``."""
    return make_ellipsoid(center, cov, delta), make_sphere(center, cov, delta)


def _hit_counter(regions):
    """Per-tile hit counts, one per region, of a tile of offsets from the true
    mean, less the regions' one centre, subtracted in place unless it is zero."""
    center = regions[0].center if regions[0].center.any() else None

    def count(x):
        if center is not None:
            x -= center
        return np.array([np.count_nonzero(within(sq_distance(x, r.cov), r.level)) for r in regions])
    return count


def run_coverage(
    spec: SamplerSpec, delta: float, n_samples: int, streams: int = 1
) -> tuple[CoverageReport, CoverageReport]:
    """Hit counts for the ellipsoid and sphere built from the true moments.

    Both regions are evaluated on one shared sample set. ``streams`` sets
    the number of workers; it never changes the drawn samples or the
    counts. Returns the (ellipsoid, sphere) report pair.
    """
    n = as_count(n_samples, "n_samples")
    regions = _regions(np.zeros(spec.dim), spec.cov, delta)
    return _reports(regions, delta, n, _reduce(spec, n, _hit_counter(regions), streams))


def run_coverage_estimated(
    spec: SamplerSpec, delta: float, n_samples: int, streams: int = 1
) -> dict:
    """Coverage with both true and re-fitted moments on one sample set.

    Returns ``{"true": (ellipsoid, sphere), "estimated": (ellipsoid,
    sphere)}`` where the estimated pair rebuilds the regions from the
    sample mean and unbiased (ddof=1) covariance of the same draws. The
    first pass sums the true-moment hits and the raw moments of the offsets,
    whose mean is zero by construction; the second redraws each chunk to
    count the hits of the fitted regions, centred at the offsets' mean.
    """
    n, dim = as_count(n_samples, "n_samples"), spec.dim
    true = _regions(np.zeros(dim), spec.cov, delta)
    count, k = _hit_counter(true), len(true)

    def hits_and_moments(x):  # one float vector: the k hit counts, sum(x), sum(x x^T)
        return np.concatenate([count(x), x.sum(axis=0), (x.T @ x).ravel()])

    with float_range_guard(_MOMENTS_RANGE):
        sums = _reduce(spec, n, hits_and_moments, streams)
        s, outer = sums[k:k + dim], sums[k + dim:].reshape(dim, dim)
        fitted = moments_from_sums((n, s / n, outer - np.outer(s, s) / n))  # mean: fitted less true
    est = _regions(fitted.mean, fitted.cov, delta)
    return {
        "true": _reports(true, delta, n, sums[:k]),
        "estimated": _reports(est, delta, n, _reduce(spec, n, _hit_counter(est), streams)),
    }


def trace_identity_check(spec: SamplerSpec, n_samples: int) -> float:
    """Sample mean of the squared Mahalanobis distance under true moments.

    The population value is tr(Sigma^-1 Sigma) = n for every distribution
    with finite covariance, so the returned mean should sit within Monte
    Carlo error of the dimension.
    """
    n = as_count(n_samples, "n_samples")
    return _reduce(spec, n, lambda x: float(np.sum(sq_distance(x, spec.cov)))) / n


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
    if (var_total := spec.cov.trace) == math.inf:
        raise DomainError("tr(Sigma) is beyond the float range")
    # Var / (sqrt(eps Var))^2 is 1/eps exactly; 1/eps is below 1 only where eps > 1
    classical = 1.0 / np.maximum(grid, 1.0)
    with np.errstate(over="ignore"):  # n/eps beyond the float range is inf: min(1, n/eps) is 1
        new_bound = np.minimum(spec.dim / grid, 1.0)
    # eps * tr(Sigma) and ||d||^2 may leave the float range: the levels are scaled
    # by 2^-2h and the offsets by 2^-h, which is exact, so the top level is finite
    h = max(0, math.ceil((math.log2(var_total) + math.log2(grid[-1]) - 1023) / 2))
    var_levels, shrink = grid * math.ldexp(var_total, -2 * h), math.ldexp(1.0, -h)

    def counts(x):  # a level's count (v >= level) is the tile's length less its sorted v below it
        vs = (grid, sq_distance(x, spec.cov)), (var_levels, sq_distance(x * shrink if h else x))
        return np.stack([len(v) - np.searchsorted(np.sort(v), lv) for lv, v in vs])

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
    ell, sph = _regions(spec.mean, spec.cov, delta)
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
        threshold=ell.level,
        radius_sq=sph.level,
    )


def figure_csv_texts(fig: FigureData) -> dict[str, str]:
    """The three CSV series (samples, ellipse, circle), two columns x,y."""
    series = {"samples": fig.samples, "ellipse": fig.ellipse_boundary,
              "circle": fig.circle_boundary}
    return {name: "x,y\n" + "".join(_csv_lines(a)) for name, a in series.items()}
