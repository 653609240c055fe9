"""Shared fixtures: the worked-example instances used across the test suite.

All expected values were frozen from independent computations (SVD, exhaustive
critical-point enumeration, the counting formula) before being asserted here.
"""

import numpy as np
import pytest

from spheremax import DensityState, IterationResult, Matrix, MultilinearForm, Status

# Trilinear form on S^1 x S^1 x S^1 whose maximum is NOT attractive for the
# joint power iteration; its six critical values (up to sign) are known.
TRILINEAR_COEFFS = [6, -14, -6, -11, 3, -15, 16, 8]
TRILINEAR_MAX = 21.9555823669
TRILINEAR_CRITICAL_VALUES = [
    9.63897039, 15.14983453, 16.90337682, 18.27289745, 21.31620099, 21.95558237,
]

# 4-linear form on (S^1)^4 with known maximum and maximizing factors.
QUADLINEAR_COEFFS = [4, 2, -5, -9, 1, -7, -5, -6, 6, -3, -6, -9, 7, 9, 0, 8]
QUADLINEAR_MAX = 16.7126255161
QUADLINEAR_FACTORS = [
    [0.4799354720, -0.8773037918],
    [0.2732019392, -0.9619567040],
    [0.7563638894, 0.6541511043],
    [0.3260948315, 0.9453370622],
]

# 4x3 matrix with first singular value 48.46054603.
MATRIX_4X3 = [[3, 2, 32], [2, 1, 36], [-3, 25, 2], [0, -1, 1]]
MATRIX_4X3_NORM2 = 48.46054603

# 3x2 matrix (a bilinear form on S^2 x S^1) with known singular pair.
MATRIX_3X2 = [[4, -9], [2, 1], [-5, -7]]
MATRIX_3X2_X = [0.01162554952, 0.99993242102]  # right factor, up to sign
MATRIX_3X2_Y = [-0.7821828869, 0.08939199251, -0.6166027924]  # left factor

# Two 4x4 density matrices on R^2 (x) R^2.  The first is consistent with
# separability; the second violates the separable bound (entangled).
STATE_SEPARABLE = [
    [0.242894940524649938, -0.123994312358229969, -0.0712215842649899789, 0.219784373378769966],
    [-0.123994312358229969, 0.0888784895376599772, 0.111143109132249979, -0.0627261109839499926],
    [-0.0712215842649899789, 0.111143109132249979, 0.361255602168969903, 0.0603142605185699871],
    [0.219784373378769966, -0.0627261109839499926, 0.0603142605185699871, 0.306970967813849916],
]
STATE_SEPARABLE_SEPMAX = 0.5224422962
STATE_ENTANGLED = [
    [0.168106937369559950, -0.190509527669719958, -0.200004375511779936, -0.0690454833860399825],
    [-0.190509527669719958, 0.257651665981429912, 0.267759084652009926, 0.0985801483325399742],
    [-0.200004375511779936, 0.267759084652009926, 0.320790216378169901, 0.194053687463299957],
    [-0.0690454833860399825, 0.0985801483325399742, 0.194053687463299957, 0.253451180300149959],
]
STATE_ENTANGLED_OVERLAP = 0.6620536187
STATE_ENTANGLED_SEPMAX = 0.4862909489

# Non-generic inputs whose affine-chart quotient falls short of the class
# count, so every algebraic answer on them carries the class-count flag:
# (dims, coeffs) of the sparse form with 1 at 000 and 2 at 111 (its maximum
# 2 sits at x_1 = 0) and of e2 (x) e2, and the pure product state
# e1 (x) (0.6, 0.8), whose separability form is 2x2x1.
NON_GENERIC_FORMS = {
    "sparse-2x2x2": ((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 2]),
    "e2xe2": ((2, 2), [0, 0, 0, 1]),
}
_PRODUCT = np.kron([1.0, 0.0], [0.6, 0.8])
STATE_PURE_PRODUCT = np.outer(_PRODUCT, _PRODUCT).tolist()
CLASS_COUNT_FLAG = "differs from the extreme-class count"
# Substring of the flag on a power "entangled" verdict, which compares
# <rho, rho> with a lower bound on the separable maximum.
UNCERTIFIED_FLAG = "not certified"

# Extreme-point class counts, frozen from the counting formula.
CLASS_COUNTS = {
    (2, 2): 2,
    (3, 3): 3,
    (2, 2, 2): 6,
    (2, 2, 3): 8,
    (2, 2, 4): 8,
    (2, 2, 5): 8,
    (2, 3, 3): 15,
    (2, 3, 4): 18,
    (3, 3, 3): 37,
    (2, 2, 2, 2): 24,
}


@pytest.fixture
def trilinear_form():
    return MultilinearForm(dims=(2, 2, 2), coeffs=TRILINEAR_COEFFS)


@pytest.fixture
def quadlinear_form():
    return MultilinearForm(dims=(2, 2, 2, 2), coeffs=QUADLINEAR_COEFFS)


@pytest.fixture
def matrix_4x3():
    return Matrix.from_array(np.array(MATRIX_4X3, dtype=float))


@pytest.fixture
def form_3x2():
    return MultilinearForm(
        dims=(3, 2), coeffs=np.array(MATRIX_3X2, dtype=float).reshape(-1)
    )


@pytest.fixture
def separable_state():
    return DensityState(2, 2, Matrix.from_array(np.array(STATE_SEPARABLE)))


@pytest.fixture
def entangled_state():
    return DensityState(2, 2, Matrix.from_array(np.array(STATE_ENTANGLED)))


def random_form(rng, dims, low=-9, high=9):
    """Random integer-coefficient form (generic with high probability)."""
    import math

    n = math.prod(dims)
    while True:
        coeffs = rng.integers(low, high + 1, size=n).astype(float)
        if np.any(coeffs):
            return MultilinearForm(dims=tuple(dims), coeffs=coeffs)


def sign_aligned_error(got, expected):
    """Max coordinate error between vectors, up to an overall sign."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return min(
        float(np.abs(got - expected).max()), float(np.abs(got + expected).max())
    )


def non_converged_bilinear_max(form, seed=0, **_):
    """Stand-in for poweriter.bilinear_max: a run that hit its cap."""
    point = tuple(np.eye(d)[0] for d in form.dims)
    return IterationResult(point, 0.5, 100_000, Status.NON_CONVERGED, 1e-3)
