"""Dense linear-algebra wrappers."""

import numpy as np
import pytest

from spheremax import Matrix, NotSymmetricError, eig_symmetric


def test_matrix_roundtrip():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    m = Matrix.from_array(a)
    assert m.rows == 2 and m.cols == 3
    assert np.array_equal(m.array, a)
    assert list(m.entries) == [1, 2, 3, 4, 5, 6]


def test_eig_symmetric_known():
    m = Matrix.from_array(np.array([[2.0, 1.0], [1.0, 2.0]]))
    vals, vecs = eig_symmetric(m)
    assert list(vals) == pytest.approx([3.0, 1.0], abs=1e-12)
    # eigenvalues descending, eigenvectors in matching columns
    assert abs(vecs[:, 0] @ np.array([1, 1]) / np.sqrt(2)) == pytest.approx(1.0)


def test_eig_symmetric_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        eig_symmetric(Matrix.from_array(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_eig_symmetric_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.sort(rng.standard_normal(n))[::-1]
        a = q @ np.diag(lam) @ q.T
        vals, vecs = eig_symmetric(Matrix.from_array(a))
        assert np.allclose(vals, lam, atol=1e-10)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-10)
