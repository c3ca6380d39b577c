"""The two exception types the package raises for bad input.

The split is the one the CLI reports as its exit code:

* :class:`UsageError` (exit 2): the input cannot be read as what the
  command needs. Malformed JSON or CSV, an array that is ragged or not
  numeric, an unknown or incomplete sampler spec, an empty sample set or
  eps grid, a count that is not a positive integer, or a level (eps,
  total variance, sigma, k) that is not positive and finite.
* :class:`DomainError` (exit 3): the input is well formed, but the
  mathematics rejects it. A matrix that is not square, symmetric, finite
  or positive definite, mismatched dimensions, delta outside (0, 1), too
  few samples, a value beyond the float range.

Both derive from ``ValueError``, so callers that do not care about the
split can catch the builtin.
"""


class UsageError(ValueError):
    """The input cannot be read as what the operation needs."""


class DomainError(ValueError):
    """The input is well formed, but the mathematics rejects it."""
