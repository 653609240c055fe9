"""The dense matrix type."""

import numpy as np

from spheremax import Matrix


def test_matrix_roundtrip():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    m = Matrix.from_array(a)
    assert m.rows == 2 and m.cols == 3
    assert np.array_equal(m.array, a)
    assert list(m.entries) == [1, 2, 3, 4, 5, 6]
