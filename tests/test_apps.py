"""Applications: matrix 2-norm, closest rank-one form, separability bound."""

import math
import time
from decimal import Decimal

import numpy as np
import pytest

from spheremax import (
    DensityState,
    DimensionMismatchError,
    Matrix,
    MultilinearForm,
    NoConvergenceError,
    NotAStateError,
    NotZeroDimensionalError,
    RankOneForm,
    bilinear_max,
    closest_rank_one,
    entanglement_check,
    form_norm,
    matrix_norm2,
    multilinear_iterate,
    poweriter,
    rank_one_to_form,
    rationalize,
    self_overlap,
    separable_max,
    solve_argmax,
)
from spheremax.apps import _separability_form

from conftest import (
    AFFINE_REFUSAL,
    CLASS_COUNT_FLAG,
    NON_GENERIC_FORMS,
    STATE_PURE_PRODUCT,
    MATRIX_3X2_X,
    MATRIX_3X2_Y,
    MATRIX_4X3_NORM2,
    QUADLINEAR_MAX,
    STATE_ENTANGLED,
    STATE_ENTANGLED_OVERLAP,
    STATE_ENTANGLED_SEPMAX,
    STATE_SEPARABLE_SEPMAX,
    TRILINEAR_MAX,
    UNCERTIFIED_FLAG,
    non_converged_bilinear_max,
    random_form,
    sign_aligned_error,
)


# ---------------------------------------------------------------------------
# matrix 2-norm
# ---------------------------------------------------------------------------

def test_norm2_known_matrix_both_methods(matrix_4x3):
    s1 = float(np.linalg.svd(matrix_4x3.array, compute_uv=False)[0])
    for method in ("power", "algebraic", "auto"):
        got = matrix_norm2(matrix_4x3, method=method)
        assert got == pytest.approx(MATRIX_4X3_NORM2, abs=1e-6)
        assert got == pytest.approx(s1, abs=1e-8)


def test_norm2_near_tied_top_singular_values():
    # sigma_2 / sigma_1 = 1 - 1e-6: one block step spans both singular pairs
    a = np.diag([1.0, 1.0 - 1e-6])
    t0 = time.perf_counter()
    got = matrix_norm2(Matrix.from_array(a), method="power")
    assert time.perf_counter() - t0 < 0.05
    assert abs(got - float(np.linalg.svd(a, compute_uv=False)[0])) <= 1e-12


def test_norm2_cluster_wider_than_the_block():
    # seventeen top singular values within 1.6e-5, one more than the first
    # block holds: the block widens to 18 columns and the next step is an
    # exact SVD
    a = np.diag(np.r_[1.0 - 1e-6 * np.arange(17), 0.5])
    t0 = time.perf_counter()
    got = matrix_norm2(Matrix.from_array(a), method="power")
    assert time.perf_counter() - t0 < 0.05
    assert abs(got - float(np.linalg.svd(a, compute_uv=False)[0])) <= 1e-12


def test_norm2_of_a_tiny_matrix_is_relatively_accurate():
    # an absolute stop test ended the power run at step 1, 2.4e-5 short
    a = np.random.default_rng(3).standard_normal((8, 7))
    got = matrix_norm2(Matrix.from_array(1e-12 * a), method="power")
    s1 = float(np.linalg.svd(a, compute_uv=False)[0])
    assert abs(got / (1e-12 * s1) - 1.0) <= 1e-12


def test_norm2_zero_matrix():
    assert matrix_norm2(Matrix.from_array(np.zeros((3, 2)))) == 0.0


def test_norm2_tied_singular_values():
    for n in (2, 3):
        t0 = time.perf_counter()
        got = matrix_norm2(Matrix.from_array(np.eye(n)), method="power")
        assert time.perf_counter() - t0 < 1.0
        assert abs(got - 1.0) <= 1e-12


def test_norm2_algebraic_falls_back_to_the_sphere_chart():
    # diag(3, 2) has distinct nonzero singular values, so the Gram kernel
    # answers; e2 (x) e2 = diag(0, 1) does not, and e2 lies off the affine
    # chart, so its quotient misses a class: the sphere chart answers.
    # Tied top singular values leave every chart positive-dimensional: the
    # largest root of the kernel's polynomial answers
    for diag, want in (([3.0, 2.0], 3.0), ([0.0, 1.0], 1.0)):
        assert matrix_norm2(Matrix.from_array(np.diag(diag)), "algebraic") == pytest.approx(
            want, abs=1e-12)
    for a, want in ((np.eye(2), 1.0), (np.diag([3.0, 3.0, 1.0]), 3.0),
                    (np.array([[1.0, 1.0], [1.0, -1.0]]), math.sqrt(2))):
        assert matrix_norm2(Matrix.from_array(a), "algebraic") == want


def test_norm2_power_not_converged_raises(matrix_4x3, monkeypatch):
    monkeypatch.setattr(poweriter, "bilinear_max", non_converged_bilinear_max)
    with pytest.raises(NoConvergenceError):
        matrix_norm2(matrix_4x3, method="power")


def test_rank_one_bilinear_power_not_converged_raises(form_3x2, monkeypatch):
    monkeypatch.setattr(poweriter, "bilinear_max", non_converged_bilinear_max)
    with pytest.raises(NoConvergenceError):
        closest_rank_one(form_3x2, method="power")


def test_norm2_rejects_bad_method(matrix_4x3):
    with pytest.raises(ValueError):
        matrix_norm2(matrix_4x3, method="magic")


# ---------------------------------------------------------------------------
# closest rank-one form
# ---------------------------------------------------------------------------

def test_rank_one_bilinear_matches_svd_pair(form_3x2):
    a = form_3x2.tensor
    u, s, vt = np.linalg.svd(a)
    for method in ("power", "algebraic"):
        result = closest_rank_one(form_3x2, method=method)
        y, x = result.factors.factors
        assert sign_aligned_error(y, u[:, 0]) < 1e-6
        assert sign_aligned_error(x, vt[0]) < 1e-6
        assert sign_aligned_error(y, MATRIX_3X2_Y) < 1e-6
        assert sign_aligned_error(x, MATRIX_3X2_X) < 1e-6
        assert result.max_value == pytest.approx(s[0], abs=1e-8)


def test_rank_one_distance_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dims = tuple(rng.integers(2, 4, size=rng.integers(2, 4)))
        form = random_form(rng, dims)
        result = closest_rank_one(form, method="power", seed=int(rng.integers(100)))
        lhs = result.distance ** 2
        rhs = form_norm(form) ** 2 + 1.0 - 2.0 * result.max_value
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))
        assert result.max_value >= 0.0


def test_rank_one_on_rank_one_input_is_exact():
    x = np.array([0.6, 0.8])
    y = np.array([1.0, 2.0, 2.0]) / 3.0
    form = rank_one_to_form(RankOneForm(factors=(x, y)))
    result = closest_rank_one(form, method="power")
    assert result.distance == pytest.approx(0.0, abs=1e-9)
    assert result.max_value == pytest.approx(1.0, abs=1e-12)
    assert sign_aligned_error(result.factors.factors[0], x) < 1e-8
    assert sign_aligned_error(result.factors.factors[1], y) < 1e-8


def test_rank_one_quadlinear_algebraic(quadlinear_form):
    result = closest_rank_one(quadlinear_form, method="algebraic")
    assert result.max_value == pytest.approx(QUADLINEAR_MAX, abs=1e-6)
    lhs = result.distance ** 2
    rhs = form_norm(quadlinear_form) ** 2 + 1.0 - 2.0 * result.max_value
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


@pytest.mark.parametrize("fixture, expected", [
    ("trilinear_form", TRILINEAR_MAX), ("quadlinear_form", QUADLINEAR_MAX),
])
def test_rank_one_power_reaches_algebraic_max(request, fixture, expected):
    # the maximum of the trilinear form attracts no joint iterate; the
    # Gauss-Seidel multistart still finds it
    result = closest_rank_one(request.getfixturevalue(fixture), method="power")
    assert result.max_value == pytest.approx(expected, abs=1e-6)


def test_power_ascent_not_converged_raises(trilinear_form, entangled_state, monkeypatch):
    # one sweep per start: the best ascent ends NON_CONVERGED
    monkeypatch.setattr(poweriter, "_ASCENT_SWEEPS", 1)
    with pytest.raises(NoConvergenceError):
        closest_rank_one(trilinear_form, method="power")
    with pytest.raises(NoConvergenceError):
        separable_max(entangled_state, method="power")


@pytest.mark.parametrize("name", sorted(NON_GENERIC_FORMS))
def test_rank_one_algebraic_passes_on_the_class_count_flag(name):
    # the affine chart misses the maximum of these forms (its best point on
    # the sparse 2x2x2 form has value 1, not 2; on e2 (x) e2 it has value 0)
    # or refuses them: the answer says so, and is the sphere chart's, backed
    # by the best ascent, so it agrees with the power method's
    dims, coeffs = NON_GENERIC_FORMS[name]
    form = MultilinearForm(dims=dims, coeffs=coeffs)
    algebraic = closest_rank_one(form, method="algebraic")
    why = AFFINE_REFUSAL if name == "diagonal-3x3x3" else CLASS_COUNT_FLAG
    assert sum(why in f for f in algebraic.flags) == 1
    # a power answer carries no flags: a non-converged one raises
    power = closest_rank_one(form, method="power")
    assert power.flags == ()
    assert algebraic.distance == pytest.approx(power.distance, rel=0.0, abs=1e-12)


def test_rank_one_algebraic_on_generic_forms_has_no_flags(trilinear_form, quadlinear_form):
    for form in (trilinear_form, quadlinear_form):
        assert closest_rank_one(form, method="algebraic").flags == ()


@pytest.mark.parametrize("dims, c", [((1, 1), 3.0), ((1, 1, 1), -2.0), ((1, 1, 1, 1), 0.25)])
def test_rank_one_algebraic_with_every_slot_of_dimension_one(dims, c):
    # l = c x_1 ... x_r on a product of 0-spheres: max |c| at (1, ..., 1)
    approx = closest_rank_one(MultilinearForm(dims=dims, coeffs=[c]), method="algebraic")
    assert approx.max_value == abs(c) and approx.flags == ()
    assert approx.distance == pytest.approx(math.sqrt(c * c + 1 - 2 * abs(c)))


def test_rank_one_rejects_zero_form():
    with pytest.raises(ValueError):
        closest_rank_one(MultilinearForm(dims=(2, 2), coeffs=[0, 0, 0, 0]))


@pytest.mark.parametrize("method", ["power", "algebraic"])
def test_rank_one_needs_two_slots(method):
    with pytest.raises(DimensionMismatchError):
        closest_rank_one(MultilinearForm(dims=(3,), coeffs=[1.0, 2.0, 2.0]), method=method)


def test_rank_one_value_sign_convention(trilinear_form):
    # the reported factors always evaluate to +max_value
    from spheremax import evaluate

    result = closest_rank_one(trilinear_form, method="algebraic")
    got = evaluate(trilinear_form, result.factors.factors)
    assert got == pytest.approx(result.max_value, abs=1e-9)
    assert result.max_value > 0


# ---------------------------------------------------------------------------
# density states and the separability bound
# ---------------------------------------------------------------------------

def test_state_validation():
    eye = np.eye(4) / 4
    with pytest.raises(NotAStateError):
        DensityState(2, 2, Matrix.from_array(np.eye(3) / 3))  # wrong shape
    bad = eye.copy()
    bad[0, 1] = 0.2  # asymmetric
    with pytest.raises(NotAStateError):
        DensityState(2, 2, Matrix.from_array(bad))
    with pytest.raises(NotAStateError):
        DensityState(2, 2, Matrix.from_array(np.diag([0.6, 0.6, -0.1, -0.1])))
    with pytest.raises(NotAStateError):
        DensityState(2, 2, Matrix.from_array(np.eye(4)))  # trace 4


@pytest.mark.parametrize("dim_a, dim_b", [(2.7, 2), (2, 2.5), (np.nan, 2), (2, np.inf)])
def test_state_refuses_non_integral_factor_dims(dim_a, dim_b, separable_state):
    # 2.7 was truncated, so a 4x4 state was read as a 2x2 one
    with pytest.raises(NotAStateError, match="integers"):
        DensityState(dim_a, dim_b, separable_state.matrix)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_state_with_a_non_finite_entry_is_refused(entry):
    # the symmetry, eigenvalue and trace checks are comparisons that are
    # False on NaN: this state was accepted, and its power separable
    # maximum read 0.25
    rho = np.eye(4) / 4
    rho[0, 1] = rho[1, 0] = entry
    with pytest.raises(NotAStateError):
        DensityState(2, 2, Matrix.from_array(rho))


_NON_FINITE_CALLS = {
    "bilinear_max": lambda c: bilinear_max(MultilinearForm(dims=(2, 2), coeffs=c[:4])),
    "matrix_norm2": lambda c: matrix_norm2(Matrix(rows=2, cols=2, entries=c[:4])),
    "solve_argmax": lambda c: solve_argmax(MultilinearForm(dims=(2, 2, 2), coeffs=c)),
    "multilinear_iterate": lambda c: multilinear_iterate(
        MultilinearForm(dims=(2, 2, 2), coeffs=c)),
    "closest_rank_one": lambda c: closest_rank_one(
        MultilinearForm(dims=(2, 2, 2), coeffs=c), method="power"),
    "ascend": lambda c: poweriter._ascend(MultilinearForm(dims=(2, 2, 2), coeffs=c), 0, 4),
}


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", list(_NON_FINITE_CALLS))
def test_non_finite_coefficient_is_refused(call, entry):
    # one NaN or infinity made the SVD fail to converge (bilinear_max,
    # matrix_norm2), Fraction raise (solve_argmax) or the Gauss-Seidel and
    # joint kernels report a zero gradient at iteration 1
    coeffs = np.arange(1.0, 9.0)
    coeffs[1] = entry
    with pytest.raises(ValueError, match="finite"):
        _NON_FINITE_CALLS[call](coeffs)


def test_separable_state_sepmax_both_methods(separable_state):
    for method in ("algebraic", "power", "auto"):
        got = separable_max(separable_state, method=method)
        assert got == pytest.approx(STATE_SEPARABLE_SEPMAX, abs=1e-6)
    overlap = self_overlap(separable_state)
    report = entanglement_check(separable_state)
    assert report.verdict == "separable-consistent"
    assert overlap <= report.sep_max


def test_entangled_state_detected_both_methods(entangled_state):
    for method in ("algebraic", "power"):
        report = entanglement_check(entangled_state, method=method)
        assert report.verdict == "entangled"
        assert report.self_overlap == pytest.approx(
            STATE_ENTANGLED_OVERLAP, abs=1e-8
        )
        assert report.sep_max == pytest.approx(STATE_ENTANGLED_SEPMAX, abs=1e-6)


def test_power_entangled_verdict_is_flagged_uncertified(entangled_state, separable_state):
    # the power method's separable maximum is a lower bound: its
    # "entangled" verdict is flagged, its "separable-consistent" one is not
    report = entanglement_check(entangled_state, method="power")
    assert report.verdict == "entangled"
    assert len(report.flags) == 1 and UNCERTIFIED_FLAG in report.flags[0]
    assert entanglement_check(entangled_state, method="algebraic").flags == ()
    report = entanglement_check(separable_state, method="power")
    assert report.verdict == "separable-consistent"
    assert report.flags == ()


def test_maximally_mixed_state():
    # <I/4, xx^T (x) yy^T> = 1/4 for every product state: sepMax is exactly
    # 1/4 and the state is (correctly) not flagged as entangled
    mm = DensityState(2, 2, Matrix.from_array(np.eye(4) / 4))
    got = separable_max(mm, method="power")
    assert got == pytest.approx(0.25, abs=1e-10)
    assert entanglement_check(mm, method="power").verdict == "separable-consistent"
    # the critical variety is positive-dimensional: the algebraic path refuses
    with pytest.raises(NotZeroDimensionalError):
        separable_max(mm, method="algebraic")


def test_pure_product_state_saturates_bound():
    v = np.kron(np.array([1.0, 0.0]), np.array([0.6, 0.8]))
    rho = DensityState(2, 2, Matrix.from_array(np.outer(v, v)))
    report = entanglement_check(rho, method="power")
    assert report.verdict == "separable-consistent"
    assert report.self_overlap == pytest.approx(1.0, abs=1e-12)
    assert report.sep_max == pytest.approx(1.0, abs=1e-9)


def test_entanglement_check_passes_on_the_algebraic_flags(entangled_state):
    # the pure product state's separability form is 2x2x1, one class short
    product = DensityState(2, 2, Matrix.from_array(np.array(STATE_PURE_PRODUCT)))
    report = entanglement_check(product, method="algebraic")
    assert report.sep_max == pytest.approx(1.0, abs=1e-9)
    assert sum(CLASS_COUNT_FLAG in f for f in report.flags) == 1
    assert entanglement_check(product, method="power").flags == ()
    assert entanglement_check(entangled_state, method="algebraic").flags == ()


def test_separable_max_power_on_slow_joint_state():
    # the joint iteration never settles on this state's form; the reference
    # is the alternating-eigenvector maximum of the unrounded state (50
    # starts x 3000 sweeps)
    entries = [
        0.1742064597067075, 0.027473136815481445, -0.2550184890697052,
        -0.06625498986047401, 0.027473136815481445, 0.23743960700830552,
        0.11702710579163142, -0.07473645759770703, -0.2550184890697052,
        0.11702710579163142, 0.5276925758277413, 0.024356475458807692,
        -0.06625498986047401, -0.07473645759770703, 0.024356475458807692,
        0.060661357457245726,
    ]
    rho = DensityState(2, 2, Matrix.from_array(np.array(entries).reshape(4, 4)))
    t0 = time.perf_counter()
    got = separable_max(rho, method="power")
    assert time.perf_counter() - t0 < 1.0
    assert abs(got - 0.6612623230331514) <= 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_separable_max_methods_agree_on_every_rank(rank):
    # the z slot of the separability form has dimension rank(rho), so the
    # affine chart sees no direction the form does not use
    rng = np.random.default_rng(1)
    for _ in range(2):
        g = rng.standard_normal((4, rank))
        rho = DensityState(2, 2, Matrix.from_array(g @ g.T / np.sum(g * g)))
        power = separable_max(rho, method="power")
        assert separable_max(rho, method="algebraic") == pytest.approx(power, abs=1e-9)


def _random_rank_state(rng, rank):
    g = rng.standard_normal((4, rank))
    return DensityState(2, 2, Matrix.from_array(g @ g.T / np.sum(g * g)))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_separability_form_lies_on_one_decimal_grid(rank):
    # every coefficient's repr is n * 10^e, one e per form and |n| <= 10^12,
    # so the exact solve reads integers of at most 40 bits over one power
    # of ten (a float rounded in binary has a 17-digit repr)
    rng = np.random.default_rng(20 + rank)
    for _ in range(5):
        form = _separability_form(_random_rank_state(rng, rank))
        coeffs = [Decimal(repr(c)) for c in form.coeffs.tolist()]
        e = min(c.as_tuple().exponent for c in coeffs if c)
        for c in coeffs:
            n = c.scaleb(-e)
            assert n == n.to_integral_value() and abs(n) <= 10 ** 12
            assert rationalize(float(c)).numerator.bit_length() <= 40


# (seed, rank, separable maximum) of states from default_rng(300 + seed),
# computed before the coefficients shared one decimal grid
_PINNED_SEPARABLE_MAX = [
    (0, 1, 0.9982240315877211),
    (1, 2, 0.6370916238396394),
    (2, 3, 0.7718670227932908),
    (3, 4, 0.42342920247400473),
    (4, 4, 0.8392376458751022),
]


@pytest.mark.parametrize("seed, rank, pinned", _PINNED_SEPARABLE_MAX)
def test_separable_max_keeps_its_pinned_value(seed, rank, pinned):
    # the grid moves each coefficient by at most 5e-13 here: far below 1e-11
    rho = _random_rank_state(np.random.default_rng(300 + seed), rank)
    for method in ("power", "algebraic"):
        assert abs(separable_max(rho, method=method) - pinned) <= 1e-11


def test_state_within_symmetry_tolerance_is_solved():
    # DensityState accepts an asymmetry up to 1e-10; the spectral
    # decomposition must not refuse what the input check accepted
    a = np.array(STATE_ENTANGLED)
    a[0, 1] += 5e-11
    report = entanglement_check(DensityState(2, 2, Matrix.from_array(a)), method="power")
    assert report.verdict == "entangled"
    assert report.sep_max == pytest.approx(STATE_ENTANGLED_SEPMAX, abs=1e-6)


def test_self_overlap_is_trace_of_square(separable_state):
    a = separable_state.matrix.array
    assert self_overlap(separable_state) == pytest.approx(
        float(np.trace(a @ a)), abs=1e-14
    )
