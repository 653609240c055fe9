"""The dense matrix type."""

import numpy as np
import pytest

from spheremax import DimensionMismatchError, Matrix


def test_matrix_roundtrip():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    m = Matrix.from_array(a)
    assert m.rows == 2 and m.cols == 3
    assert np.array_equal(m.array, a)
    assert list(m.entries) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("rows, cols, entries", [
    (0, 0, []), (-1, -1, [1.0]), (0, 3, []), (2, 2, [1.0, 2.0, 3.0]),
])
def test_matrix_refuses_empty_or_mismatched_shape(rows, cols, entries):
    # rows = cols = -1 matches one entry; the shape is still refused
    with pytest.raises(DimensionMismatchError):
        Matrix(rows=rows, cols=cols, entries=entries)


@pytest.mark.parametrize("rows, cols, n", [(2.5, 2, 5), (2, 1.5, 3), (1.5, 4, 6)])
def test_matrix_refuses_non_integral_shape(rows, cols, n):
    # rows * cols matched the entry count, and .array failed later
    with pytest.raises(DimensionMismatchError, match="integers"):
        Matrix(rows=rows, cols=cols, entries=np.ones(n))


def test_matrix_stores_an_integral_shape_as_ints():
    m = Matrix(rows=2.0, cols=np.int64(3), entries=np.ones(6))
    assert (m.rows, m.cols) == (2, 3) and type(m.rows) is int and type(m.cols) is int
