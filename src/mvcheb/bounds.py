"""The two Chebyshev-type tail bounds, in closed form and without numpy.

For a random vector X in R^n with mean mu and covariance Sigma:

* classical:   Pr{ ||X - mu|| >= eps }                <= Var(X) / eps^2,
  where Var(X) = E||X - mu||^2 = tr(Sigma);
* Mahalanobis: Pr{ (X-mu)^T Sigma^-1 (X-mu) >= eps }  <= n / eps.
"""

import sys
from dataclasses import dataclass

from .errors import DomainError, as_count, as_level


@dataclass(frozen=True)
class BoundValue:
    """A tail bound both as the raw formula value and clamped to [0, 1].

    ``raw`` can exceed 1 (a vacuous bound); ``clamped = min(1, raw)`` is the
    value usable as a probability statement.
    """

    raw: float
    clamped: float


def _bound(raw: float) -> BoundValue:
    return BoundValue(raw=raw, clamped=min(1.0, raw))


def chebyshev_bound(n: int, eps: float) -> BoundValue:
    """Tail bound n/eps on Pr{ (X-mu)^T Sigma^-1 (X-mu) >= eps }."""
    n, eps = as_count(n, "dimension"), as_level(eps, "eps")
    if n > sys.float_info.max:
        raise DomainError(f"dimension must be a positive integer in the float range, got {n}")
    return _bound(float(n) / eps)


def classical_bound(var_total: float, eps: float) -> BoundValue:
    """Tail bound Var(X)/eps^2 on Pr{ ||X - mu|| >= eps }."""
    var, e = as_level(var_total, "total variance"), as_level(eps, "eps")
    try:
        return _bound(var / e ** 2)
    except (OverflowError, ZeroDivisionError):  # e**2 is beyond the float range
        return _bound(var / e / e)
