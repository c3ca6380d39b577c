"""Monte Carlo verification of the tail bounds and region coverage.

Coverage counts use the distribution's true moments, so the experiments
exercise the inequalities rather than estimation error; an estimated-moments
mode is separate. Every experiment runs through one reducer: N is cut into
the sampler's chunks of :func:`~mvcheb.sampler.chunk_size` samples, each
drawn by its own generator, and workers reduce each chunk's tiles, as they
are drawn, to small partial results summed by ``+`` in tile and chunk order,
so results are identical for any worker count. A tile holds offsets from the
mean, and one distance pass gives their ||W d||^2 and ||d||^2 about a region
centre relative to the mean (zero for the true moments) to every experiment:
the mean is never added, and memory is a few tiles per worker, whatever N is.
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
from .linalg import as_float_array, float_range_guard, one_blas_thread, quad_form
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


def _reports(delta: float, n_samples: int, hits) -> tuple[CoverageReport, CoverageReport]:
    """The (ellipsoid, sphere) reports for their summed hit counts."""
    return tuple(_report(k, delta, n_samples, int(h)) for k, h in zip(("ellipsoid", "sphere"), hits))


_raise_on_overflow = functools.partial(np.errstate, over="raise", invalid="raise")


def _reduce(spec: SamplerSpec, n_samples: int, per_tile, streams: int = 1):
    """The sum by ``+`` of ``per_tile(x)`` over every tile x of
    :func:`~mvcheb.sampler.offset_tiles` on [0, n_samples), in tile and chunk order.

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
            return functools.reduce(operator.add, map(per_tile, tiles))

    # a chunk is submitted as each result is summed, so at most
    # 2 * workers are in flight and memory stays flat in N
    starts = iter(range(0, n_samples, size))
    with one_blas_thread(), _raise_on_overflow(), ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(chunk, s) for s in islice(starts, 2 * workers))
        total = pending.popleft().result()
        while pending:
            pending.extend(pool.submit(chunk, s) for s in islice(starts, 1))
            total = total + pending.popleft().result()
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
    about ``center``, an offset from the true mean; the two regions pair in
    order with the two distances of :func:`_per_tile`."""
    regions = make_ellipsoid(center, cov, delta), make_sphere(center, cov, delta)
    return _per_tile(center, cov.whitener, lambda *qs: np.array(
        [np.count_nonzero(within(q, r.level)) for r, q in zip(regions, qs)]
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
    first pass sums the true-moment hits and the raw moments of the offsets,
    whose mean is zero by construction; the second redraws each chunk to
    count the hits of the fitted regions, centred at the offsets' mean.
    """
    n, dim = as_count(n_samples, "n_samples"), spec.dim
    count = _hit_counter(np.zeros(dim), spec.cov, delta)

    def hits_and_moments(x):  # one float vector: the two hit counts, sum(x), sum(x x^T)
        return np.concatenate([count(x), x.sum(axis=0), (x.T @ x).ravel()])

    with float_range_guard(_MOMENTS_RANGE):
        sums = _reduce(spec, n, hits_and_moments, streams)
        s, outer = sums[2:2 + dim], sums[2 + dim:].reshape(dim, dim)
        fitted = moments_from_sums((n, s / n, outer - np.outer(s, s) / n))  # mean: fitted less true
    count_fitted = _hit_counter(fitted.mean, fitted.cov, delta)
    return {
        "true": _reports(delta, n, sums[:2]),
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
    if (var_total := spec.cov.trace) == math.inf:
        raise DomainError("tr(Sigma) is beyond the float range")
    # Var / (sqrt(eps Var))^2 is 1/eps exactly; 1/eps is below 1 only where eps > 1
    classical = 1.0 / np.maximum(grid, 1.0)
    # a level beyond the float range is inf: no sample reaches it, and min(1, n/eps) is 1
    with np.errstate(over="ignore"):
        new_bound = np.minimum(spec.dim / grid, 1.0)
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
        threshold=ell.level,
        radius_sq=sph.level,
    )


def figure_csv_texts(fig: FigureData) -> dict[str, str]:
    """The three CSV series (samples, ellipse, circle), two columns x,y."""
    return {
        "samples": "x,y\n" + "".join(_csv_lines(fig.samples)),
        "ellipse": "x,y\n" + "".join(_csv_lines(fig.ellipse_boundary)),
        "circle": "x,y\n" + "".join(_csv_lines(fig.circle_boundary)),
    }
