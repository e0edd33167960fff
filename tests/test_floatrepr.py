"""The array formatters behind sweep.csv, byte for byte against CPython's
own `float.__repr__` and `int.__str__`."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hexmimo._floatrepr import WIDTH, float_reprs, int_digits

# the numpy path's edges; test_sweep.py writes them through sweep.csv too
REPR_EDGES = [
    float(np.nextafter(1e-8, 0)), 1e-8,     # the domain's ends, each next to
    float(np.nextafter(1e15, 0)), 1e15,     # its neighbour outside
    0.5, 1024.0, 2.0 ** -25,                # power-of-two mantissas: taken as
                                            # symmetric, 2^-25 gets 16 digits
    9.999999999999999e-05, 0.0001,          # where repr leaves exponent form
    120.0, 1e14, 99999.99999999999,         # ddd.0, whole-part zeros, 17 digits
    1 + 3 * 2 ** -17,                       # D = ...937.5: a tie, rounded to even
    1e-06,                                  # below 10^-6: rounds up to C = 10^17
]


def lines(values) -> list[str]:
    """float_reprs of `values`, one string a row, padding removed."""
    rows = float_reprs(np.asarray(values, np.float64))
    assert rows.shape == (len(values), WIDTH)
    ends = np.full((len(rows), 1), ord("\n"), np.uint8)
    return np.hstack((rows, ends)).tobytes().translate(None, b"\0").decode().splitlines()


def test_in_domain_bit_patterns_print_as_repr():
    # every float64 in [1e-8, 1e15) is equally likely: all decimal
    # exponents of the fast path, 16- and 17-digit reprs, many blocks
    ends = np.array([1e-8, 1e15]).view(np.int64)
    values = np.random.default_rng(20141).integers(*ends, 10 ** 6).view(np.float64)
    assert lines(values) == [repr(v) for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(width=64) | st.floats(1e-8, 1e15)))
def test_any_float_array_prints_as_repr(values):
    # nan, +-inf, +-0.0, subnormals and negatives take the fallback, mixed
    # with values of the numpy path in one array
    assert lines(values) == [repr(v) for v in values.tolist()]


def test_edges_print_as_repr():
    assert lines(REPR_EDGES) == [repr(v) for v in REPR_EDGES]
    for value in REPR_EDGES:
        assert lines([value]) == [repr(value)]


def test_int_digits_print_as_str():
    values = [0, 1, 9, 10, 99, 100, 9999, 10 ** 4, 12345, 10 ** 18, 2 ** 63 - 1]
    rows = int_digits(np.array(values))
    assert rows.shape == (len(values), 19)
    assert [bytes(row).lstrip(b"\0").decode() for row in rows] == [str(v) for v in values]
    assert int_digits(np.array([7, 3])).tolist() == [[ord("7")], [ord("3")]]
    assert int_digits(np.array([], np.int64)).shape == (0, 1)
