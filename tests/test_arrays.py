"""The one array-argument layer, ``linalg.as_finite_array``: every reader of
a vector, matrix, sample set or point refuses the same bad input with the
same class and message, checked in the layer's order (numeric, number of
axes, length of the last axis, no empty axis, finite entries)."""

import io
import math
import re

import numpy as np
import pytest

from mvcheb import (
    Covariance,
    DomainError,
    UsageError,
    contains,
    estimate_moments,
    make_ellipsoid,
    make_sphere,
    read_samples_csv,
    region_from_dict,
    write_samples_csv,
)
from mvcheb.linalg import as_finite_array, as_vector, symmetrize
from mvcheb.sampler import gaussian_spec

EXAMPLE = Covariance([[1.0, 1.0], [1.0, 26.0]])
ELLIPSOID = make_ellipsoid([0.0, 0.0], EXAMPLE, 0.1)
SPHERE = make_sphere([0.0, 0.0], EXAMPLE, 0.1)
VECTOR, MATRIX, SAMPLE = [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [3.0, 5.0], [0.0, 1.0]]
# reader: (call, what it names, a valid input, an empty input of the right
# dimension or None where only a wrong dimension can be empty, dimension-bound)
READERS = {
    "as_vector": (as_vector, "vector", VECTOR, np.empty(0), False),
    "as_vector_dim": (lambda x: as_vector(x, 2), "vector", VECTOR, None, True),
    "sampler_mean": (lambda x: gaussian_spec(x, EXAMPLE), "vector", VECTOR, None, True),
    "sphere_center": (lambda x: region_from_dict({"kind": "sphere", "center": x, "radius_sq": 1}),
                      "vector", VECTOR, np.empty(0), False),
    "symmetrize": (symmetrize, "matrix", MATRIX, np.empty((0, 0)), False),
    "covariance": (Covariance, "matrix", MATRIX, np.empty((0, 0)), False),
    "estimate_moments": (estimate_moments, "sample", SAMPLE, np.empty((0, 2)), False),
    "write_samples_csv": (lambda x: write_samples_csv(x, io.StringIO()), "sample", SAMPLE,
                          np.empty((0, 2)), False),
    "contains_ellipsoid": (lambda x: contains(ELLIPSOID, x), "point", VECTOR, np.empty((0, 2)), True),
    "contains_sphere": (lambda x: contains(SPHERE, x), "point", VECTOR, np.empty((0, 2)), True),
    "contains_batch": (lambda x: contains(ELLIPSOID, x), "point", [VECTOR], np.empty((0, 2)), True),
}


def _with(a, i, value):
    """A copy of ``a`` with flat entry ``i`` set to ``value``."""
    b = a.copy()
    b.flat[i] = value
    return b


def _read_csv(text):
    return read_samples_csv(io.StringIO(text))


def _cases():
    for name, (call, what, good, empty, bound) in READERS.items():
        a = np.array(good)
        finite = f"{what} entries must be finite"
        bad = {
            "text": ("ab", UsageError, f"{what} is not a numeric array"),
            "ragged": ([[1.0, 2.0], [3.0]], UsageError, f"{what} is not a numeric array"),
            "axes": (a[None, None], DomainError, f"-D {what}, got shape {a[None, None].shape}"),
            "nan": (_with(a, 0, math.nan), DomainError, finite),
            "inf": (_with(a, -1, -math.inf), DomainError, finite),
        }
        if empty is not None:
            bad["empty"] = (empty, UsageError, f"{what} must not be empty, got shape {empty.shape}")
        if bound:
            bad["dimension"] = (a[..., :1], DomainError,
                                f"{what} dimension 1 does not match expected dimension 2")
        for case, (x, cls, message) in bad.items():
            yield pytest.param(call, x, cls, message, id=f"{name}-{case}")
    # the CSV reader's text is numeric or refused by line, and its rows are 2-D
    for value in ("nan", "inf", "-inf"):
        yield pytest.param(_read_csv, f"x1,x2\n1.0,2.0\n{value},3.0\n", DomainError,
                           "sample entries must be finite", id=f"read_samples_csv-{value}")
    yield pytest.param(_read_csv, "x1,x2\n", UsageError, "sample must not be empty, got shape (0, 2)",
                       id="read_samples_csv-empty")


@pytest.mark.parametrize("call, x, cls, message", list(_cases()))
def test_every_reader_refuses_alike(call, x, cls, message):
    with pytest.raises(cls, match=re.escape(message)):
        call(x)


@pytest.mark.parametrize("name", list(READERS))
def test_every_reader_takes_its_valid_input(name):
    call, _, good, _, _ = READERS[name]
    call(good)


def test_checks_run_in_order():
    # numeric before axes, axes before the dimension, the dimension before
    # emptiness, emptiness before finiteness
    with pytest.raises(UsageError, match="not a numeric array"):
        as_finite_array([["a"]], "x", 1)
    with pytest.raises(DomainError, match=r"expected a 1-D x, got shape \(1, 1\)"):
        as_finite_array([[math.nan]], "x", 1, 3)
    with pytest.raises(DomainError, match="x dimension 0 does not match expected dimension 3"):
        as_finite_array(np.empty((2, 0)), "x", 2, 3)
    with pytest.raises(UsageError, match=r"x must not be empty, got shape \(0, 3\)"):
        as_finite_array(np.empty((0, 3)), "x", 2, 3)
    with pytest.raises(DomainError, match=r"expected a 1-D or 2-D x, got shape \(\)"):
        as_finite_array(1.0, "x", (1, 2))
    a = np.ones((2, 3))
    assert as_finite_array(a, "x", (1, 2), 3) is a  # a float array is not copied


def test_the_four_gaps_of_the_hand_written_readers():
    # a 0-dimensional sphere of volume 1.0 was built
    with pytest.raises(UsageError, match=r"vector must not be empty, got shape \(0,\)"):
        region_from_dict({"kind": "sphere", "center": [], "radius_sq": 1})
    # a header-less CSV of blank lines was written, and could not be read back
    buf = io.StringIO()
    with pytest.raises(UsageError, match=r"sample must not be empty, got shape \(3, 0\)"):
        write_samples_csv(np.empty((3, 0)), buf)
    assert buf.getvalue() == ""
    # inf leaked a RuntimeWarning out of the product, and nan answered False
    for point in ([math.inf, 0.0], [math.nan, 0.0]):
        with pytest.raises(DomainError, match="point entries must be finite"):
            contains(ELLIPSOID, point)
    # an empty sample set and an empty matrix were two classes of error
    with pytest.raises(UsageError, match="must not be empty"):
        estimate_moments(np.empty((0, 2)))
    with pytest.raises(UsageError, match="must not be empty"):
        Covariance(np.empty((0, 0)))
