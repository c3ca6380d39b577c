"""The two exception types for bad input, and the numpy-free scalar layer that
checks every count and level with them, as ``linalg.as_finite_array`` does every array.

The split is the one the CLI reports as its exit code:

* :class:`UsageError` (exit 2): the input cannot be read as what the command
  needs. Malformed JSON or CSV, an array that is ragged, not numeric or empty
  (any axis of length 0), an unknown or incomplete sampler spec, an empty eps
  grid, a count that is not a positive integer, or a level (eps, total
  variance, sigma, k, a region's level) that is not positive and finite.
* :class:`DomainError` (exit 3): the input is well formed, but the mathematics
  rejects it. An array with the wrong number of axes, a wrong dimension or an
  entry that is not finite, a matrix that is not square, symmetric or positive
  definite, delta outside (0, 1), too few samples, a value beyond the float range.

Both derive from ``ValueError``, so callers that do not care about the
split can catch the builtin. numpy registers its integer types as
``numbers.Integral``, so they count as integers here too.
"""

import math
import numbers


class UsageError(ValueError):
    """The input cannot be read as what the operation needs."""


class DomainError(ValueError):
    """The input is well formed, but the mathematics rejects it."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and type(value) is not bool


def as_float(x, what: str) -> float:
    """``x`` as a float; one that does not convert or overflows raises :class:`UsageError`."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{what} must be a number, got {x!r}") from None


def as_count(value, what: str) -> int:
    """``value`` as an int; anything but a positive integer (numpy integers
    count, bools and floats do not) raises :class:`UsageError`."""
    if not (_is_int(value) and value >= 1):
        raise UsageError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def as_level(value, what: str) -> float:
    """``value`` as a float; one that is not positive and finite raises :class:`UsageError`."""
    x = as_float(value, what)
    if not 0.0 < x < math.inf:
        raise UsageError(f"{what} must be positive and finite, got {x}")
    return x
