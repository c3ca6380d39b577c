"""Mean/covariance estimation from sample sets, plus the worked-example matrix.

A sample set is a finite float array of shape (N, n), one row per draw. The
CSV interchange format is a header row ``x1,...,xn`` followed by one
comma-separated sample per line.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError, _is_int, as_float, as_level
from .linalg import Covariance, as_finite_array, float_range_guard, one_blas_thread

_MOMENTS_RANGE = "the sample moments are beyond the float range"
_CSV_BLOCK_ROWS = 1024  # rows formatted at a time: the formatter's memory does not grow with N


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    """Estimated mean vector and covariance matrix of a sample set."""

    mean: np.ndarray
    cov: Covariance
    ddof: int


def estimate_moments(samples, ddof: int = 1, ridge: float = 0.0) -> MomentEstimate:
    """Mean and covariance of an (N, n) sample set, the latter a validated
    :class:`Covariance` with divisor N - ddof (0 or 1; 1, the default, is
    unbiased). ``ridge``, a nonnegative finite multiple of I added before
    validation, is an escape hatch for degenerate data; the default 0 keeps
    the estimator exact, and degeneracy then raises :class:`DomainError`."""
    return moments_from_sums(moment_sums(samples), ddof=ddof, ridge=ridge)


@one_blas_thread()
def moment_sums(samples) -> tuple[int, np.ndarray, np.ndarray]:
    """(row count, mean, scatter) of a sample set; the scatter matrix is
    the sum of (x - mean)(x - mean)^T over the rows."""
    a = as_finite_array(samples, "sample", 2)
    with float_range_guard(_MOMENTS_RANGE):
        mean = a.mean(axis=0)
        centered = a - mean
        return a.shape[0], mean, centered.T @ centered


def moments_from_sums(sums, ddof: int = 1, ridge: float = 0.0) -> MomentEstimate:
    """Mean and covariance (divisor N - ddof, plus ``ridge`` I) from the
    :func:`moment_sums` of a sample set; a refusal names the sample covariance."""
    if not _is_int(ddof) or ddof not in (0, 1):
        raise DomainError("ddof must be 0 or 1")
    ridge = as_float(ridge, "ridge")
    if not 0.0 <= ridge < math.inf:
        raise DomainError(f"ridge must be nonnegative and finite, got {ridge}")
    n_rows, mean, scatter = sums
    if n_rows - ddof < 1:
        raise DomainError(f"need at least {ddof + 1} rows for ddof={ddof}, got {n_rows}")
    cov = scatter / (n_rows - ddof)
    if ridge > 0.0:
        with float_range_guard(f"ridge {ridge} puts the sample covariance beyond the float range"):
            cov = cov + ridge * np.eye(cov.shape[0])
    try:
        cov = Covariance.from_matrix(cov)
    except DomainError as exc:
        raise DomainError(f"the sample covariance of {n_rows} rows: {exc}") from None
    return MomentEstimate(mean=mean, cov=cov, ddof=ddof)


def example_covariance(sigma: float, k: float) -> Covariance:
    """The 2x2 covariance of the worked example, [[s^2, s^2], [s^2, (k+1) s^2]].

    This is the covariance of (y, y+z) for independent zero-mean Gaussians
    y, z with variances sigma^2 and k*sigma^2. Its trace is (k+2) sigma^2 and
    its determinant k sigma^4. Anything but a finite sigma > 0 and k > 0 is a
    :class:`UsageError`, and a sigma whose square leaves the normal float
    range, below which it keeps too few digits, a :class:`DomainError`.
    """
    sigma, k = as_level(sigma, "sigma"), as_level(k, "k")
    try:
        s2 = sigma ** 2
    except OverflowError:
        s2 = math.inf
    if not np.finfo(float).smallest_normal <= s2 < math.inf:  # subnormal, 0 or inf
        raise DomainError(f"sigma**2 is beyond the float range, got sigma={sigma}")
    return Covariance.from_matrix([[s2, s2], [s2, (k + 1.0) * s2]])


def _expected_header(dim: int) -> list[str]:
    return [f"x{i + 1}" for i in range(dim)]


def read_samples_csv(source) -> np.ndarray:
    """Read a sample set from a CSV text stream.

    The header must be ``x1,...,xn``; every data row must have exactly n
    numeric fields. Ragged or non-numeric rows raise :class:`UsageError`
    naming the offending line, as does text that does not decode or parse as
    CSV; the rows are read as a sample set, so no row is a :class:`UsageError` too.
    """
    reader = csv.reader(source)
    values = array("d")  # one flat buffer: a float costs 8 bytes, not a Python object
    try:
        header = next(reader, None)
        if header is None:
            raise UsageError("empty file: expected header row x1,...,xn")
        header = [h.strip() for h in header]
        if header != _expected_header(len(header)) or not header:
            raise UsageError(f"bad header {header!r}: expected x1,...,xn")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise UsageError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                values.extend(map(float, row))
            except ValueError:
                raise UsageError(f"line {lineno}: non-numeric field in {row!r}") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"unreadable sample CSV: {exc}") from None
    return as_finite_array(np.frombuffer(values).reshape(-1, len(header)), "sample", 2)


def _csv_lines(a: np.ndarray) -> list[str]:
    """One CSV line per row of the 2-D float array ``a``, each value its
    ``repr``, the shortest text that reads back to the same float."""
    return [",".join(map(repr, row)) + "\n" for row in a.tolist()]


def write_samples_csv(samples, target) -> None:
    """Write a sample set to a text stream in the CSV interchange format
    (lossless floats), formatting it in blocks of rows, one ``write`` each
    (a text file's ``writelines`` writes line by line)."""
    a = as_finite_array(samples, "sample", 2)
    if not hasattr(target, "write"):
        raise TypeError(f"target must be a text stream, got {type(target).__name__}")
    target.write(",".join(_expected_header(a.shape[1])) + "\n")
    for start in range(0, len(a), _CSV_BLOCK_ROWS):
        target.write("".join(_csv_lines(a[start:start + _CSV_BLOCK_ROWS])))
