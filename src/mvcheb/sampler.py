"""Seeded random-vector generators with counter-based addressing.

All randomness comes from Philox keyed by (seed, stream_index). Uniform
doubles are the top 53 bits of each 64-bit word; normals come from the
Box-Muller transform on consecutive uniform pairs (both outputs used).

Sample i of a draw owns a fixed window of Philox counter blocks, so
generating indices [a, b) yields bit-identical values no matter how the
index range is partitioned across workers. That property is what makes the
parallel experiments reproduce serial results hit-for-hit.

Three generator kinds:

* ``gaussian``: x = mean + L z, with z i.i.d. standard normal and L the
  Cholesky factor of the covariance.
* ``paper_example``: x = (y, y+z) for independent zero-mean Gaussians with
  variances sigma^2 and k sigma^2; its covariance is
  [[s^2, s^2], [s^2, (k+1) s^2]].
* ``tight_radial``: x = mean + R L u with u uniform on the unit sphere and
  R^2 = eps with probability n/eps, else 0. Its covariance is exactly the
  given Sigma, and Pr{d^2 >= eps} equals n/eps: the Mahalanobis tail bound
  holds with equality.

A :class:`SamplerSpec` is checked once, when it is built, and its arrays are
read-only, so the functions here take every spec as valid. Every spec holds
its exact mean and :class:`~mvcheb.linalg.Covariance`; a ``paper_example``
spec derives them from sigma and k, and is refused when that covariance is
beyond the float range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .errors import DomainError, UsageError
from .linalg import Covariance, as_float, as_vector
from .moments import example_covariance

_U64 = np.uint64
_DOUBLE_SCALE = 2.0 ** -53
_WORDS_PER_BLOCK = 4  # Philox-4x64 emits 4 words per counter increment
_MAX_ENTRIES = np.iinfo(np.intp).max // 8  # of the largest 8-byte array numpy can allocate

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


def check_entries(n: int, what: str) -> None:
    """Raise :class:`DomainError` if an array of ``n`` 8-byte entries is too large."""
    if n > _MAX_ENTRIES:
        raise DomainError(f"{what}: {n} array entries are more than one array can hold")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_n_samples(n_samples) -> int:
    """``n_samples`` as an int; anything but a positive integer (numpy
    integers count, bools do not) raises :class:`UsageError`."""
    if not (_is_int(n_samples) and n_samples >= 1):
        raise UsageError(f"n_samples must be a positive integer, got {n_samples}")
    return int(n_samples)


def _key(seed: int, stream_index: int) -> np.ndarray:
    if not 0 <= seed < 2 ** 64:
        raise UsageError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= stream_index < 2 ** 64:
        raise UsageError(f"stream_index must be a 64-bit unsigned integer, got {stream_index}")
    return np.array([seed, stream_index], dtype=_U64)


def _to_uniform(words: np.ndarray) -> np.ndarray:
    # same conversion numpy uses for float64: top 53 bits, range [0, 1)
    return (words >> _U64(11)) * _DOUBLE_SCALE


def _boxmuller(uniforms: np.ndarray) -> np.ndarray:
    """Map 2m uniforms to 2m normals; pair (2i, 2i+1) feeds transform i."""
    u = uniforms.reshape(-1, 2)
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    out = np.empty(u.shape[0] * 2)
    out[0::2] = r * np.cos(angle)
    out[1::2] = r * np.sin(angle)
    return out


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
            if not (0.0 < self.sigma < np.inf and 0.0 < self.k < np.inf):
                raise UsageError("paper_example needs finite sigma > 0 and k > 0")
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
        if not (_is_int(dim) and dim >= 1):
            raise UsageError(f"dim must be a positive integer, got {dim!r}")
        if cov is None:
            check_entries(int(dim) ** 2, f"dim {dim}")
            cov = Covariance.from_matrix(np.eye(int(dim)))
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


def _layout(spec: SamplerSpec) -> tuple[int, int]:
    """(m, blocks): a sample reads its Box-Muller pairs from words [0, m) and a
    tight_radial atom's Bernoulli from word m, in a window of whole blocks."""
    m = 2 * ((spec.dim + 1) // 2)
    words = m + (spec.kind == "tight_radial")
    return m, -(-words // _WORDS_PER_BLOCK)


def blocks_per_sample(spec: SamplerSpec) -> int:
    """Philox counter blocks reserved per sample (fixed layout)."""
    return _layout(spec)[1]


def draw_range(
    spec: SamplerSpec, start: int, stop: int, stream_index: int = 0
) -> np.ndarray:
    """Samples with global indices [start, stop) of the spec's sequence.

    Sample i is a pure function of (seed, stream_index, i): it reads only
    the counter blocks [i*B, (i+1)*B) of the keyed Philox stream, where B =
    :func:`blocks_per_sample`. Concatenating ranges therefore reproduces
    :func:`draw` exactly, for any partition of the index range.
    """
    if not 0 <= start <= stop:
        raise UsageError(f"bad index range [{start}, {stop})")
    count = stop - start
    n = spec.dim
    if count == 0:
        return np.empty((0, n))
    n_normal_words, blocks = _layout(spec)
    bitgen = Philox(key=_key(spec.seed, stream_index))
    if start:
        bitgen.advance(start * blocks)
    words_total = count * blocks * _WORDS_PER_BLOCK
    check_entries(words_total, f"{count} samples")
    raw = np.asarray(bitgen.random_raw(words_total), dtype=_U64)
    u = _to_uniform(raw).reshape(count, blocks * _WORDS_PER_BLOCK)

    z = _boxmuller(u[:, :n_normal_words].reshape(-1))
    z = z.reshape(count, n_normal_words)[:, :n]

    if spec.kind == "paper_example":
        y = spec.sigma * z[:, 0]
        w = np.sqrt(spec.k) * spec.sigma * z[:, 1]
        return np.column_stack([y, y + w])
    if spec.kind == "gaussian":
        return spec.mean + z @ spec.cov.chol.T
    # tight_radial
    norms = np.linalg.norm(z, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    direction = z / safe[:, None]
    direction[norms == 0.0] = np.eye(n)[0]
    bern = u[:, n_normal_words]
    radius = np.sqrt(spec.eps * _SHELL_MARGIN) * (bern < n / spec.eps)
    return spec.mean + radius[:, None] * (direction @ spec.cov.chol.T)


def draw(spec: SamplerSpec, n_samples: int, stream_index: int = 0) -> np.ndarray:
    """n_samples rows of the spec's distribution, deterministic in
    (seed, stream_index)."""
    return draw_range(spec, 0, check_n_samples(n_samples), stream_index=stream_index)
