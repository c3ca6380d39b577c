"""Seeded random-vector generators, one hashed SFC64 generator per chunk.

Stream format 3 (:data:`STREAM_FORMAT`). Stream s is cut into chunks of
:func:`chunk_size` samples, about 2^17 normals each. Chunk c draws its
normals row by row from ``Generator(SFC64(SeedSequence(words)))``, with
``words`` = [seed, s, c, 0] as little-endian uint64 seen as uint32, and a
tight_radial chunk its atom uniforms under role 1, [seed, s, c, 1]. The
width is fixed because ``SeedSequence`` splits each int into as many 32-bit
words as it needs and zero-pads short entropy, so int keys collide: (2^32,
5, 0) and (0, 1, 5) hash alike. Chunks and streams are independent by that
hashing, not disjoint by counter (numpy's "Parallel random number
generation").

Chunk c of stream s is defined by :func:`offset_tiles` alone, as offsets from
the mean in one tile plan per spec: tiles of ``max(256, 2**13 // n)`` rows, a
shorter remainder joining the chunk's last tile, column-major below n = 32 and
row-major from it on (:data:`_ROW_MAJOR_DIM`), each yielded once its normals
are freed. Every tile that meets the range asked for is drawn whole from its
chunk's first row on, and cut only where it is yielded; :func:`draw_range` adds
the mean. So although BLAS rounds ``z @ L^T`` by shape, sample i is a pure
function of (seed, s, i) whatever range holds it, and a draw shorter than a
tile draws the tile.
``Generator`` methods need not be stable across numpy releases (NEP 19), and
L and the product can change bits with the BLAS build, so values are bit-exact
within one numpy version and BLAS build.

Three kinds: ``gaussian``, x = mean + L z with z i.i.d. standard normal and
L the Cholesky factor of the covariance; ``paper_example``, x = (y, y+z) for
independent zero-mean Gaussians of variances sigma^2 and k sigma^2, so its
covariance is [[s^2, s^2], [s^2, (k+1) s^2]]; and ``tight_radial``, x = mean
+ R L u with u uniform on the unit sphere and R^2 = eps with probability
n/eps, else 0, whose covariance is exactly Sigma and whose Pr{d^2 >= eps} is
n/eps: the Mahalanobis tail bound holds with equality.

A :class:`SamplerSpec` is checked once, when it is built, and holds its
exact mean and :class:`~mvcheb.linalg.Covariance` in read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, Philox, SeedSequence  # Philox: bench/tracing.py binds it

from .errors import DomainError, UsageError, _is_int, as_count, as_float
from .linalg import Covariance, as_vector, check_entries, one_blas_thread
from .moments import example_covariance

STREAM_FORMAT = 3  # the layout of the random stream that draw_range reads
_CHUNK_NORMALS = 1 << 17  # normals per chunk, so 65,536 samples at n=2
_TILE_ENTRIES = 1 << 13  # entries per tile of a chunk's kernels, so 64 KB temporaries at low n
_TILE_ROWS = 256  # rows per tile at least: a matrix product on fewer rows leaves BLAS idle
_ROW_MAJOR_DIM = 32  # tiles are row-major from this dimension on, below it column-major

# The tight_radial atom sits on the closed tail event {d^2 >= eps}; round-off
# in the quadratic form would break the tie at random, so the shell radius is
# inflated by a margin far above round-off yet far below every statistical
# tolerance in use.
_SHELL_MARGIN = 1.0 + 1e-8

# the fields each kind reads; a paper_example spec derives mean and cov itself
_READS = {
    "gaussian": ("mean", "cov"),
    "paper_example": ("sigma", "k"),
    "tight_radial": ("mean", "cov", "eps"),
}
KINDS = tuple(_READS)
_FIELDS = ("mean", "cov", "sigma", "k", "eps")


def _key(seed: int, stream_index: int) -> tuple[int, int]:
    for name, value in (("seed", seed), ("stream_index", stream_index)):
        if not (_is_int(value) and 0 <= value < 2 ** 64):
            raise UsageError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return seed, stream_index


@dataclass(frozen=True, eq=False)
class SamplerSpec:
    """Parameters of one generator kind plus the stream seed.

    The one rule for a spec, built here, by a ``*_spec`` helper or from JSON.
    Checked once: the kind, then the seed (an integer, not a bool), then the
    kind's fields. A field the kind does not read is refused, not ignored;
    ``sigma``, ``k`` and ``eps`` are stored as floats and ``mean`` as a
    read-only copy. A ``paper_example`` spec sets ``mean`` and ``cov`` to its
    exact moments.
    """

    kind: str
    seed: int = 0
    mean: np.ndarray | None = None
    cov: Covariance | None = None
    sigma: float | None = None
    k: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown sampler kind {self.kind!r}")
        if not _is_int(self.seed):
            raise UsageError(f"seed must be an integer, got {self.seed!r}")
        _key(self.seed, 0)
        reads = _READS[self.kind]
        unread = [f for f in _FIELDS if f not in reads and getattr(self, f) is not None]
        if unread:
            raise UsageError(f"a {self.kind} spec does not read {', '.join(unread)}")
        if any(getattr(self, f) is None for f in reads):
            raise UsageError(f"{self.kind} spec needs {', '.join(reads[:-1])} and {reads[-1]}")
        for f in ("sigma", "k", "eps"):
            if f in reads:
                object.__setattr__(self, f, as_float(getattr(self, f), f))
        if self.kind == "paper_example":
            object.__setattr__(self, "cov", example_covariance(self.sigma, self.k))
            object.__setattr__(self, "mean", np.zeros(2))
        if not isinstance(self.cov, Covariance):
            raise UsageError(f"cov must be a Covariance, got {type(self.cov).__name__}")
        object.__setattr__(self, "mean", as_vector(self.mean, self.cov.dim))
        if self.kind == "tight_radial" and not (
            self.dim <= self.eps and self.eps * _SHELL_MARGIN < np.inf  # a finite shell radius
        ):
            raise UsageError(
                "tight_radial needs eps >= dim so n/eps <= 1, and eps finite;"
                f" got eps={self.eps}, dim={self.dim}"
            )

    @property
    def dim(self) -> int:
        return self.cov.dim


def gaussian_spec(mean, cov: Covariance, seed: int = 0) -> SamplerSpec:
    return SamplerSpec(kind="gaussian", seed=seed, mean=mean, cov=cov)


def paper_example_spec(sigma: float, k: float, seed: int = 0) -> SamplerSpec:
    return SamplerSpec(kind="paper_example", seed=seed, sigma=sigma, k=k)


def _tight_radial_moments(dim, mean, cov: Covariance | None) -> tuple:
    # the dim shorthand of tight_radial_spec, which spec_from_dict shares
    if dim is not None:
        dim = as_count(dim, "dim")
        if cov is None:
            check_entries(dim ** 2, f"dim {dim}")
            cov = Covariance.from_matrix(np.eye(dim))
        elif dim != cov.dim:
            raise DomainError(f"dim {dim} does not match the {cov.dim}-dimensional cov")
    if cov is None:
        raise UsageError("tight_radial needs either dim or cov")
    return (np.zeros(cov.dim) if mean is None else mean), cov


def tight_radial_spec(
    eps: float, dim: int | None = None, mean=None, cov: Covariance | None = None, seed: int = 0
) -> SamplerSpec:
    """Equality-case distribution: dim alone means zero mean, identity Sigma,
    and a missing mean is zero. Given both, ``dim`` must equal ``cov.dim``."""
    mean, cov = _tight_radial_moments(dim, mean, cov)
    return SamplerSpec(kind="tight_radial", seed=seed, mean=mean, cov=cov, eps=eps)


def true_moments(spec: SamplerSpec) -> tuple[np.ndarray, Covariance]:
    """Exact mean vector and covariance matrix of the spec's distribution."""
    return spec.mean.copy(), spec.cov


def spec_to_dict(spec: SamplerSpec) -> dict:
    out: dict = {"kind": spec.kind, "seed": int(spec.seed)}
    for f in _READS[spec.kind]:
        value = spec.cov.entries if f == "cov" else getattr(spec, f)
        out[f] = np.asarray(value).tolist()  # Python floats, nested lists for arrays
    return out


def spec_from_dict(data: dict) -> SamplerSpec:
    """Build a spec from its JSON form under the rule of :class:`SamplerSpec`.

    ``cov`` is read as a :class:`~mvcheb.linalg.Covariance`; every other key
    goes to the constructor, and a key that is no spec field is refused.
    ``dim``, ``mean`` and ``cov`` of a ``tight_radial`` spec mean what they
    mean to :func:`tight_radial_spec`. A missing seed defaults to 0.
    """
    if not isinstance(data, dict):
        raise UsageError(f"spec must be a JSON object, got {type(data).__name__}")
    fields = dict(data)
    kind = fields.pop("kind", None)
    if "cov" in fields:
        fields["cov"] = Covariance.from_matrix(fields["cov"])
    if kind == "tight_radial":
        fields["mean"], fields["cov"] = _tight_radial_moments(
            fields.pop("dim", None), fields.get("mean"), fields.get("cov")
        )
    unknown = set(fields) - {"seed", *_FIELDS}
    if unknown:
        raise UsageError(f"unknown spec field {', '.join(sorted(map(str, unknown)))}")
    return SamplerSpec(kind, **fields)


def chunk_size(spec: SamplerSpec) -> int:
    """Samples per chunk: the unit of one generator and of one reducer step."""
    return max(1, _CHUNK_NORMALS // spec.dim)


def offset_tiles(spec: SamplerSpec, start: int, stop: int, stream_index: int = 0):
    """Samples [start, stop) of the spec's sequence less the mean, one tile at
    a time, each overwritten by the next: the caller owns a tile and may write to it.

    Every tile of the spec's one plan that meets the range is drawn whole, and
    cut only where it is yielded. Its normals, drawn row-major into a fresh array
    and freed before it is yielded, are copied, transformed or as ``z @ L^T``,
    into one buffer, row-major from n = :data:`_ROW_MAJOR_DIM` on, else column-major.
    """
    n, key, size = spec.dim, _key(spec.seed, stream_index), chunk_size(spec)
    step = max(_TILE_ROWS, _TILE_ENTRIES // n)
    los = range(0, max(size - step, 0) + 1, step)  # a shorter remainder joins the last tile
    tiles, longest = list(zip(los, [*los[1:], size])), size - los[-1]
    xs, order = np.empty(longest * n), "C" if n >= _ROW_MAJOR_DIM else "F"
    us = np.empty(longest) if spec.kind == "tight_radial" else None
    for c in range(start // size, (stop - 1) // size + 1):
        words = np.array([[*key, c, 0], [*key, c, 1]], dtype="<u8").view("<u4")  # 8 words a role
        normals = Generator(SFC64(SeedSequence(words[0]))).standard_normal
        if spec.kind == "tight_radial":
            uniforms = Generator(SFC64(SeedSequence(words[1]))).random
        first, last = start - c * size, stop - c * size  # the range in the chunk's rows
        for lo, hi in tiles:
            if lo >= last:
                break
            # into a row-major x matmul rounds as z @ L^T does, into a column-major one not always
            z, x = np.empty((hi - lo, n)), xs[: (hi - lo) * n].reshape(hi - lo, n, order=order)
            normals(out=z)
            if spec.kind == "tight_radial":
                uniforms(out=us[: hi - lo])
                norms = np.linalg.norm(z, axis=1)
                z /= np.where(norms == 0.0, 1.0, norms)[:, None]
                z[norms == 0.0] = np.eye(1, n)
            if spec.kind == "paper_example":
                x[...] = z
                x[:, 0] *= spec.sigma
                x[:, 1] *= np.sqrt(spec.k) * spec.sigma
                x[:, 1] += x[:, 0]
            elif order == "C":
                np.matmul(z, spec.cov.chol.T, out=x)
            else:
                x[...] = z @ spec.cov.chol.T
            if spec.kind == "tight_radial":
                x *= np.sqrt(spec.eps * _SHELL_MARGIN) * (us[: hi - lo] < n / spec.eps)[:, None]
            del z  # spent: the caller's kernels have the tile's memory to themselves
            if first < hi:
                yield x[max(first - lo, 0) : last - lo]


@one_blas_thread()
def draw_range(
    spec: SamplerSpec, start: int, stop: int, stream_index: int = 0
) -> np.ndarray:
    """Samples with global indices [start, stop) of the spec's sequence.

    Sample i, a pure function of (seed, stream_index, i) whatever the range,
    is the mean plus row i mod S of chunk i // S, S = :func:`chunk_size`: the
    tiles of :func:`offset_tiles` are copied into a column-major result.
    """
    if not (_is_int(start) and _is_int(stop) and 0 <= start <= stop):
        raise UsageError(f"bad index range [{start}, {stop}): integers 0 <= start <= stop")
    count = stop - start
    check_entries(count * spec.dim, f"{count} samples")
    x = np.empty((spec.dim, count)).T
    row = 0
    for tile in offset_tiles(spec, start, stop, stream_index):
        x[row : row + len(tile)] = tile
        row += len(tile)
    x += spec.mean
    return x


def draw(spec: SamplerSpec, n_samples: int, stream_index: int = 0) -> np.ndarray:
    """n_samples rows of the spec's distribution, deterministic in
    (seed, stream_index)."""
    return draw_range(spec, 0, as_count(n_samples, "n_samples"), stream_index=stream_index)
