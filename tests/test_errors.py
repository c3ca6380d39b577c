"""The scalar-argument layer, which lives with the error types and needs no numpy."""

from fractions import Fraction

import numpy as np
import pytest

from mvcheb.errors import UsageError, _is_int, as_count

# numpy registers its integer types as numbers.Integral; its bool and its floats are not
INTEGERS = [3, np.int8(3), np.int32(3), np.int64(3), np.uint64(3)]
NOT_INTEGERS = [True, np.True_, 3.0, np.float64(3), Fraction(3), "3"]


@pytest.mark.parametrize("value", INTEGERS, ids=lambda v: type(v).__name__)
def test_an_integer_counts(value):
    assert _is_int(value)
    count = as_count(value, "count")
    assert count == 3 and type(count) is int


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_anything_else_is_refused_naming_its_repr(value):
    assert not _is_int(value)
    with pytest.raises(UsageError) as info:
        as_count(value, "count")
    assert type(info.value) is UsageError
    assert str(info.value) == f"count must be a positive integer, got {value!r}"
