"""Projective power iteration."""

import math
import time
import warnings

import numpy as np
import pytest

from spheremax import (
    DimensionMismatchError,
    MultilinearForm,
    Status,
    ZeroGradientError,
    bilinear_max,
    multilinear_iterate,
)
from spheremax import cli, poweriter

from conftest import (
    QUADLINEAR_COEFFS,
    QUADLINEAR_MAX,
    TRILINEAR_COEFFS,
    TRILINEAR_MAX,
    random_form,
)


def test_bilinear_two_by_one_instance():
    # l = 4 x1 y + 2 x2 y on S^1 x S^0 has maximum sqrt(20)
    form = MultilinearForm(dims=(2, 1), coeffs=[4, 2])
    result = bilinear_max(form)
    assert result.status is Status.CONVERGED
    assert result.value == pytest.approx(math.sqrt(20), abs=1e-8)


def test_bilinear_matches_svd_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = int(rng.integers(2, 6))
        c = int(rng.integers(2, 6))
        a = rng.standard_normal((r, c))
        form = MultilinearForm(dims=(r, c), coeffs=a.reshape(-1))
        result = bilinear_max(form, seed=int(rng.integers(0, 1000)))
        s1 = float(np.linalg.svd(a, compute_uv=False)[0])
        assert result.value == pytest.approx(s1, abs=1e-8 * (1 + s1))


def test_bilinear_point_is_singular_pair():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 3))
    form = MultilinearForm(dims=(4, 3), coeffs=a.reshape(-1))
    result = bilinear_max(form)
    x, y = [np.asarray(v) for v in result.point]
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(a @ y - result.value * x).max() < 1e-8
    assert np.abs(a.T @ x - result.value * y).max() < 1e-8


def test_converged_results_have_small_residual():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        form = MultilinearForm(dims=(3, 3), coeffs=a.reshape(-1))
        result = bilinear_max(form)
        if result.status is Status.CONVERGED:
            assert result.residual <= 1e-8 * (1 + abs(result.value))


def test_seed_determinism_bitwise():
    # one step at 3x4, many at 50x40 (and its block's one generator)
    rng = np.random.default_rng(3)
    for dims in [(3, 4), (50, 40)]:
        form = MultilinearForm(dims=dims, coeffs=rng.standard_normal(math.prod(dims)))
        a = bilinear_max(form, seed=42)
        b = bilinear_max(form, seed=42)
        assert a.value == b.value and a.iterations == b.iterations
        for u, v in zip(a.point, b.point):
            assert np.array_equal(np.asarray(u), np.asarray(v))


def test_zero_form_raises():
    with pytest.raises(ZeroGradientError):
        bilinear_max(MultilinearForm(dims=(2, 2), coeffs=[0, 0, 0, 0]))


def test_zero_form_raises_in_both_entries():
    # one check in the shared entry refuses a zero form of any order; an
    # invalid tol is refused first
    for dims in [(2, 2), (2, 2, 2)]:
        zero = MultilinearForm(dims=dims, coeffs=np.zeros(math.prod(dims)))
        calls = [multilinear_iterate] + [bilinear_max] * (len(dims) == 2)
        for call in calls:
            with pytest.raises(ZeroGradientError, match="zero form"):
                call(zero)
            with pytest.raises(ValueError, match="tol"):
                call(zero, tol=0.0)


def test_bilinear_requires_two_slots(trilinear_form):
    # a wrong slot count is an input error, as on the algebraic path
    one_slot = MultilinearForm(dims=(3,), coeffs=[1.0, 2.0, 2.0])
    for call, form in [(bilinear_max, trilinear_form), (bilinear_max, one_slot),
                       (multilinear_iterate, one_slot)]:
        with pytest.raises(DimensionMismatchError):
            call(form)


def test_multilinear_delegates_to_bilinear_for_two_slots():
    rng = np.random.default_rng(4)
    form = MultilinearForm(dims=(3, 3), coeffs=rng.standard_normal(9))
    a = bilinear_max(form, seed=5)
    b = multilinear_iterate(form, seed=5)
    assert a.value == b.value and a.status is b.status


def test_trilinear_counterexample_never_converges_at_max(trilinear_form):
    # the maximum of this form is not attractive for the iteration: across
    # many seeds the run must never report convergence at the maximum
    for seed in range(10):
        result = multilinear_iterate(trilinear_form, seed=seed)
        at_max = abs(abs(result.value) - TRILINEAR_MAX) < 1e-6
        assert not (result.status is Status.CONVERGED and at_max), seed


def test_quadlinear_reaches_max_from_some_seed(quadlinear_form):
    hits = 0
    for seed in range(50):
        result = multilinear_iterate(quadlinear_form, seed=seed)
        if abs(abs(result.value) - QUADLINEAR_MAX) < 1e-6:
            hits += 1
    assert hits >= 1


def test_multilinear_point_on_spheres(trilinear_form):
    result = multilinear_iterate(trilinear_form, seed=0)
    for v in result.point:
        assert float(np.linalg.norm(np.asarray(v))) == pytest.approx(1.0, abs=1e-12)


def test_random_multilinear_value_is_a_critical_value():
    # whatever status is reported, the returned value equals the form
    # evaluated at the returned point
    from spheremax import evaluate

    rng = np.random.default_rng(6)
    for _ in range(10):
        form = random_form(rng, (2, 2, 2))
        result = multilinear_iterate(form, seed=int(rng.integers(0, 100)))
        assert result.value == pytest.approx(
            evaluate(form, result.point), abs=1e-10 * (1 + abs(result.value))
        )


@pytest.mark.parametrize("diagonal", [[1, 1], [1, 1, 1], [3, 3, 1]])
def test_tied_top_singular_value_converges(diagonal):
    # a Jacobi update swaps the slots of the identity forever; a block at
    # least as wide as the tie spans the tied top singular subspace at once
    a = np.diag(np.array(diagonal, dtype=float))
    form = MultilinearForm(dims=a.shape, coeffs=a.reshape(-1))
    t0 = time.perf_counter()
    result = bilinear_max(form)
    assert time.perf_counter() - t0 < 1.0
    assert result.status is Status.CONVERGED
    assert abs(result.value - max(diagonal)) <= 1e-12


def _with_singular_values(rng, n, m, sigma):
    u = np.linalg.qr(rng.standard_normal((n, m)))[0]
    v = np.linalg.qr(rng.standard_normal((m, m)))[0]
    return (u * sigma) @ v.T


def _non_generic_matrices():
    rng = np.random.default_rng(12)
    return {
        "rank-1-6x6": np.outer(rng.standard_normal(6), rng.standard_normal(6)),
        "rank-2-6x6": rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6)),
        "1x7": rng.standard_normal((1, 7)),
        "7x1": rng.standard_normal((7, 1)),
        "I_10": np.eye(10),
        "diag-3-3-1": np.diag([3.0, 3.0, 1.0]),
        "scales-1e-8-to-1e8": rng.standard_normal((8, 8)) * 10.0 ** rng.uniform(-8, 8, (8, 8)),
        "tall-200x150": rng.standard_normal((200, 150)),
        "wide-150x200": rng.standard_normal((150, 200)),
        # twenty top singular values within 2e-7, more than the block holds:
        # the block widens to the smaller side
        "cluster-of-20-in-60x50": _with_singular_values(
            rng, 60, 50, np.r_[1.0 - 1e-8 * np.arange(20), np.linspace(0.5, 0.1, 30)]),
    }


_NON_GENERIC = _non_generic_matrices()


@pytest.mark.parametrize("name", list(_NON_GENERIC))
def test_block_kernel_matches_svd_on_non_generic_matrices(name):
    # rank below the block width, a block of width 1, tied and spread-out
    # singular values, large shapes: the top Ritz pair is the SVD's, and
    # no zero or rank-deficient block gives a RuntimeWarning (an error here)
    a = _NON_GENERIC[name]
    form = MultilinearForm(dims=a.shape, coeffs=a.reshape(-1))
    result = bilinear_max(form)
    s1 = float(np.linalg.svd(a, compute_uv=False)[0])
    assert result.status is Status.CONVERGED
    assert abs(result.value - s1) <= 1e-12 * s1
    x, y = result.point
    assert [np.linalg.norm(x), np.linalg.norm(y)] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert np.linalg.norm(a @ y - result.value * x) <= 1e-12 * s1
    assert np.linalg.norm(a.T @ x - result.value * y) <= 1e-12 * s1


def _counted_checks(monkeypatch):
    """(step, block width) of each Ritz check of the runs that follow."""
    checks = []
    ritz_pair = poweriter._ritz_pair

    def counted(a, y, r, iterations, tol):
        checks.append((iterations, y.shape[1]))
        return ritz_pair(a, y, r, iterations, tol)

    monkeypatch.setattr(poweriter, "_ritz_pair", counted)
    return checks


def test_block_starts_in_the_null_space_raise(monkeypatch):
    # A = e1 e1^T: a y block with a zero first row gives A Y = 0
    a = np.zeros((6, 6))
    a[0, 0] = 1.0
    form = MultilinearForm(dims=(6, 6), coeffs=a.reshape(-1))
    default_rng = np.random.default_rng

    class NullRows:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, shape):
            y = self.rng.standard_normal(shape)
            y[0] = 0.0
            return y

    monkeypatch.setattr(np.random, "default_rng", NullRows)
    with pytest.raises(ZeroGradientError, match="A Y = 0"):
        bilinear_max(form)


def _smaller_side_at_most_the_block():
    rng = np.random.default_rng(7)
    shapes = [(int(rng.integers(1, 41)), int(rng.integers(1, poweriter._WIDTH + 1)))
              for _ in range(40)]
    mats = {f"gauss-{n}x{m}": rng.standard_normal((n, m) if k % 2 else (m, n))
            for k, (n, m) in enumerate(shapes)}
    return {**mats, "I_2": np.eye(2), "I_10": np.eye(10), "diag-3-3-1": np.diag([3.0, 3.0, 1.0]),
            "rank-1-16x30": np.outer(rng.standard_normal(16), rng.standard_normal(30)),
            "16x16": rng.standard_normal((16, 16))}


@pytest.mark.parametrize("a", list(_smaller_side_at_most_the_block().values()),
                         ids=list(_smaller_side_at_most_the_block()))
def test_matrices_no_wider_than_the_block_converge_at_step_one(a):
    # a block of min(n, m) columns spans the smaller side, so the first
    # Rayleigh-Ritz step is an exact SVD
    result = bilinear_max(MultilinearForm(dims=a.shape, coeffs=a.reshape(-1)))
    s1 = float(np.linalg.svd(a, compute_uv=False)[0])
    assert (result.status, result.iterations) == (Status.CONVERGED, 1)
    assert abs(result.value - s1) <= 1e-14 * s1


@pytest.mark.parametrize("shape, steps, at", [
    ((50, 40), 21, [1, 2, 4, 8, 16, 21]),
    ((200, 150), 76, [1, 2, 4, 8, 16, 32, 64, 76]),
])
def test_checks_come_where_the_residual_decay_meets_the_stop_test(monkeypatch, shape, steps, at):
    # checks at steps 1 and 2, then at the step the fitted decay of the
    # last two residuals predicts, at most twice the steps so far: fewer
    # than checking each time the steps grow by a quarter, as before
    checks = _counted_checks(monkeypatch)
    a = np.random.default_rng(0).standard_normal(shape)
    result = bilinear_max(MultilinearForm(dims=a.shape, coeffs=a.reshape(-1)))
    s1 = float(np.linalg.svd(a, compute_uv=False)[0])
    assert (result.status, result.iterations) == (Status.CONVERGED, steps)
    assert abs(result.value - s1) <= 1e-14 * s1
    assert [it for it, _ in checks] == at
    quarter, it = [], 1
    while it <= steps:
        quarter.append(it)
        it += 1 + it // 4
    assert len(checks) < len(quarter)


@pytest.mark.parametrize("max_iters", [37, 100, 101])
def test_capped_run_checks_at_the_cap(monkeypatch, max_iters):
    # a stop test no float residual meets: the run goes to the cap, checks
    # are spread out by then, and the last one comes at the cap all the same
    checks = _counted_checks(monkeypatch)
    a = np.random.default_rng(13).standard_normal((30, 20))
    result = bilinear_max(MultilinearForm(dims=a.shape, coeffs=a.reshape(-1)),
                          tol=1e-300, max_iters=max_iters)
    assert (result.status, result.iterations) == (Status.NON_CONVERGED, max_iters)
    steps = [it for it, _ in checks]
    assert steps[-1] == max_iters and steps[-2] < max_iters - 1
    assert len(steps) < 10


def test_cluster_wider_than_the_block_widens_it(monkeypatch):
    # twenty top singular values within 2e-7: the Ritz values of the
    # 16-column block all sit at sigma_1, so it widens to the smaller side
    checks = _counted_checks(monkeypatch)
    a = _NON_GENERIC["cluster-of-20-in-60x50"]
    result = bilinear_max(MultilinearForm(dims=a.shape, coeffs=a.reshape(-1)))
    widths = [k for _, k in checks]
    assert result.status is Status.CONVERGED
    assert widths[0] == poweriter._WIDTH and widths[-1] == min(a.shape)


@pytest.mark.parametrize("a, max_iters", [
    (np.random.default_rng(13).standard_normal((30, 30)), 1),
    # seventeen singular values within 1.6e-5, one more than the block
    # holds: a cap of one step ends the run before the block can widen
    (np.diag(np.r_[1.0 - 1e-6 * np.arange(17), 0.5]), 1),
], ids=["generic-30x30", "cluster-18x18"])
def test_block_iteration_cap_ends_non_converged(a, max_iters):
    form = MultilinearForm(dims=a.shape, coeffs=a.reshape(-1))
    result = bilinear_max(form, max_iters=max_iters)
    assert result.status is Status.NON_CONVERGED
    assert result.iterations == max_iters
    assert [np.linalg.norm(v) for v in result.point] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert math.isfinite(result.residual) and result.residual > 0.0
    assert result.value <= float(np.linalg.svd(a, compute_uv=False)[0]) * (1 + 1e-15)


def test_iteration_cap_below_one_is_refused():
    # a cap that is not a whole number is refused like one below one
    for call, dims in [(bilinear_max, (2, 2)), (multilinear_iterate, (2, 2)),
                       (multilinear_iterate, (2, 2, 2))]:
        form = MultilinearForm(dims=dims, coeffs=np.arange(1.0, 1.0 + math.prod(dims)))
        for max_iters in (0, 2.5, "100"):
            with pytest.raises(ValueError, match="max_iters"):
                call(form, max_iters=max_iters)


def test_integral_float_iteration_cap_is_read_as_an_int():
    # 1e9 raised TypeError from range() for r = 2
    for call, dims in [(bilinear_max, (2, 2)), (multilinear_iterate, (2, 2)),
                       (multilinear_iterate, (2, 2, 2))]:
        form = MultilinearForm(dims=dims, coeffs=np.arange(1.0, 1.0 + math.prod(dims)))
        got, want = call(form, max_iters=1e9), call(form)
        assert (got.value, got.iterations, got.status) == (
            want.value, want.iterations, want.status)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tol_that_is_not_finite_and_positive_is_refused(tol):
    # NaN ran every step to the cap, a negative tol ended "oscillating"
    for call, dims in [(bilinear_max, (2, 2)), (multilinear_iterate, (2, 2)),
                       (multilinear_iterate, (2, 2, 2))]:
        form = MultilinearForm(dims=dims, coeffs=np.arange(1.0, 1.0 + math.prod(dims)))
        with pytest.raises(ValueError, match="tol"):
            call(form, tol=tol)


@pytest.mark.parametrize(
    "form",
    [
        MultilinearForm(dims=(2, 2, 2), coeffs=TRILINEAR_COEFFS),
        MultilinearForm(dims=(2, 2, 2, 2), coeffs=QUADLINEAR_COEFFS),
        random_form(np.random.default_rng(7), (2, 2, 3)),
    ],
    ids=["trilinear", "quadlinear", "random-2x2x3"],
)
def test_batched_starts_match_single_starts(form):
    seed = 11
    seeds = range(seed, seed + poweriter._STARTS)
    tol, max_iters = poweriter.DEFAULT_TOL, poweriter.DEFAULT_MAX_ITERS
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        starts = poweriter._random_starts(form, seeds)
        block = poweriter._joint(form, starts, tol, max_iters)
        alone = [
            poweriter._pick(poweriter._joint(
                form, poweriter._random_starts(form, [s]), tol, max_iters))
            for s in seeds
        ]
        batched = multilinear_iterate(form, seed=seed)
    for k, (got, want) in enumerate(zip(block, alone)):
        assert got.status is want.status, k
        assert abs(got.value - want.value) <= 1e-12, k
    # the batched call applies the sequential restart rule to those starts
    converged = [r for r in alone if r.status is Status.CONVERGED]
    expected = converged[0] if converged else max(alone, key=lambda r: r.value)
    assert batched.status is expected.status
    assert abs(batched.value - expected.value) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 3, 4), (50, 40)])
def test_random_starts_are_slot_by_slot_normal_draws(dims):
    # one draw of sum(dims) normals per seed, cut into slots, is the stream
    # of one draw per slot, and each slot is normalized as np.linalg.norm does
    form = MultilinearForm(dims=dims, coeffs=np.ones(math.prod(dims)))
    blocks = poweriter._random_starts(form, range(50))
    for seed in range(50):
        rng = np.random.default_rng(seed)
        for block, d in zip(blocks, dims):
            v = rng.standard_normal(d)
            assert block[seed].tobytes() == (v / np.linalg.norm(v)).tobytes(), seed


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 3, 3), (2, 2, 2, 2),
                                  (2, 3, 4)])
def test_block_rows_match_lone_starts_bit_for_bit(dims):
    # each row of a block takes exactly the steps it takes alone: a BLAS
    # product in the fused step sums a row differently by block width
    for k in range(15):
        form = MultilinearForm(dims=dims, coeffs=np.random.default_rng(k).standard_normal(
            math.prod(dims)))
        starts = poweriter._random_starts(form, range(poweriter._STARTS))
        block = poweriter._joint(form, starts, poweriter.DEFAULT_TOL, 500)
        for row, got in enumerate(block):
            (alone,) = poweriter._joint(form, [s[row:row + 1] for s in starts],
                                        poweriter.DEFAULT_TOL, 500)
            assert _same_outcome(got, alone), (k, row)


def test_joint_converges_at_once_on_a_rank_one_form():
    # e1 (x) e1 (x) e1 from (e1, e1, e1): the first step is stationary and
    # the fixed-point residual is exactly 0
    e1 = np.eye(2)[0]
    form = MultilinearForm(dims=(2, 2, 2), coeffs=np.multiply.outer(np.outer(e1, e1), e1))
    starts = [e1[None, :].copy() for _ in range(3)]
    (result,) = poweriter._joint(form, starts, poweriter.DEFAULT_TOL, 10)
    assert result.status is Status.CONVERGED
    assert result.iterations == 1
    assert result.residual == 0.0
    assert result.value == 1.0


def test_joint_iteration_cap_ends_non_converged(trilinear_form):
    # one step is not enough to settle: the run ends at its cap with unit
    # vectors and a finite residual
    result = multilinear_iterate(trilinear_form, max_iters=1)
    assert result.status is Status.NON_CONVERGED
    assert result.iterations == 1
    assert [np.linalg.norm(v) for v in result.point] == pytest.approx([1.0] * 3, abs=1e-12)
    assert math.isfinite(result.residual) and result.residual > 0.0


def test_zero_gradient_start_is_discarded_from_its_block():
    # e1 (x) e1 (x) ... has a zero gradient at (e2, e2, ...): that start ends
    # with ZeroGradientError while the generic start beside it runs on
    e1, e2 = np.eye(2)
    for order, kernel in ((2, poweriter._gauss_seidel), (3, poweriter._joint)):
        tensor = e1
        for _ in range(order - 1):
            tensor = np.multiply.outer(tensor, e1)
        form = MultilinearForm(dims=(2,) * order, coeffs=tensor.reshape(-1))
        generic = poweriter._random_starts(form, [0])
        starts = [np.vstack([e2, g[0]]) for g in generic]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcomes = kernel(form, starts, poweriter.DEFAULT_TOL, 1000)
        assert isinstance(outcomes[0], ZeroGradientError)
        assert poweriter._pick(outcomes) is outcomes[1]
        assert outcomes[1].value == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ZeroGradientError):
            poweriter._pick(outcomes[:1])


def test_gradient_whose_squared_norm_underflows_is_a_zero_gradient():
    # (e2, e2, e2) meets the gradient (1e-200, 1e-200, 0, 0, 0, 0): its squared
    # norm is 0, so the step leaves that row infinite, and no RuntimeWarning
    # comes of judging or splitting it
    e1, e2 = np.eye(2)
    t = np.multiply.outer(np.outer(e1, e1), e1) + 1e-200 * np.multiply.outer(
        np.outer(e1 + e2, e2), e2)
    form = MultilinearForm(dims=(2, 2, 2), coeffs=t.reshape(-1))
    generic = poweriter._random_starts(form, [0])
    starts = [np.vstack([e2, g[0]]) for g in generic]
    outcomes = poweriter._joint(form, starts, poweriter.DEFAULT_TOL, 1000)
    assert repr(outcomes[0]) == "ZeroGradientError('zero gradient at iteration 1')"
    assert outcomes[1].value == pytest.approx(1.0, abs=1e-9)


def test_ascent_raises_when_every_start_meets_zero_gradient(monkeypatch):
    # e1 (x) e1 (x) e1 has a zero gradient at (e2, e2, e2); a generic start
    # beside such starts still gives the ascent its answer
    e1, e2 = np.eye(2)
    form = MultilinearForm(dims=(2, 2, 2), coeffs=np.multiply.outer(
        np.multiply.outer(e1, e1), e1).reshape(-1))
    generic = poweriter._random_starts(form, [0])
    monkeypatch.setattr(poweriter, "_random_starts",
                        lambda form, seeds, count: [np.tile(e2, (count, 1))] * 3)
    with pytest.raises(ZeroGradientError):
        poweriter._ascend(form, 0, 4)
    monkeypatch.setattr(poweriter, "_random_starts", lambda form, seeds, count: [
        np.vstack([np.tile(e2, (count - 1, 1)), g]) for g in generic])
    assert poweriter._ascend(form, 0, 4).value == pytest.approx(1.0, abs=1e-9)


def _ascent_table_forms():
    """The forms of _ASCENT_MAXIMA, in its order: Gaussian and integer forms
    of seven shapes, seven of each; sparse, rank-one, rank-two and diagonal
    integer forms of three shapes, three of each; then all-ones 2x2x2,
    e2 (x) e2 (x) e2 and the 3x3x3 form with ones on the diagonal."""
    for dims in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (3, 3, 4), (4, 4, 4), (2, 2, 2, 2)):
        for k in range(7):
            gauss = np.random.default_rng((7, k)).standard_normal(math.prod(dims))
            yield MultilinearForm(dims, gauss)
            yield cli._random_integer_form(dims, np.random.default_rng((8, k)))
    for dims in ((2, 2, 2), (2, 2, 3), (3, 3, 3)):
        for k in range(3):
            rng = np.random.default_rng((9, k, len(dims), dims[-1]))

            def factor(d):
                v = rng.integers(-2, 3, size=d)
                v[0] = v[0] or 1
                return v

            def outer():
                t = np.array(1.0)
                for d in dims:
                    t = np.multiply.outer(t, factor(d))
                return t

            sparse = rng.integers(-3, 4, size=dims) * (rng.random(dims) < 0.3)
            sparse[(0,) * len(dims)] = 2
            diagonal = np.zeros(dims)
            for i in range(min(dims)):
                diagonal[(i,) * len(dims)] = rng.choice([-3, -2, -1, 1, 2, 3])
            for t in (sparse, outer(), outer() + outer(), diagonal):
                yield MultilinearForm(dims, t.reshape(-1))
    e2 = np.eye(2)[1]
    yield MultilinearForm((2, 2, 2), np.ones(8))
    yield MultilinearForm((2, 2, 2), np.multiply.outer(np.outer(e2, e2), e2).reshape(-1))
    yield MultilinearForm((3, 3, 3), np.eye(27)[[0, 13, 26]].sum(axis=0))


# The maximum of each form of _ascent_table_forms(): its exact maximum
# (algsolver._exact_max, its first point within 1e-12) where that answered
# within 6 s, else the best of the ascents from seeds 0-19.  The ascent
# before the Newton polish (Gauss-Seidel alone, one generator per start)
# reached every one from seed 0.
_ASCENT_MAXIMA = (
    1.9327874856631055, 11.604233366209165, 2.4571477448007983, 14.498619349174488,
    1.572469200119987, 13.612829581349576, 2.5709876240059075, 12.315722248027674,
    2.9228332883808217, 11.661903789690601, 1.9395787992842424, 14.468573091143897,
    2.1191292856596737, 12.748606363937741, 1.513162437155942, 16.220000437845986,
    3.267204941989645, 16.047422843691223, 2.003006341727991, 13.294619208269168,
    3.30595039958751, 13.99576995833484, 3.4025433407207495, 12.96752312472387,
    3.115602212875667, 14.50859280631385, 2.1391507949775215, 13.451182158511978,
    2.1059879420620313, 15.924574997376327, 3.717569591571842, 16.457428134674842,
    2.0199392810230057, 14.803150999392633, 3.3301970583695697, 14.48308056801919,
    3.5418989014043802, 15.48247968539402, 3.1436012788702072, 13.809867802143199,
    2.6450377433674723, 13.697853671196222, 3.5233497239273257, 16.927900576425614,
    4.084909800910014, 19.501976670191596, 3.308820375400213, 17.33986921414045,
    4.257211150849083, 15.37959194601778, 3.780082165138243, 19.77278546853805,
    3.43760962534271, 15.311197812071923, 2.6761538706191583, 14.812120940014921,
    3.561289735997681, 22.352437045061578, 3.9304737152785485, 23.102810197099437,
    3.8083888379017514, 19.023370793463375, 3.322220331075437, 18.087746982202106,
    3.9972498331797586, 22.383038876734865, 3.6603552709915026, 16.471369439588273,
    3.3266868441478694, 18.00470213761157, 4.296625815520218, 24.60046580516336,
    4.65770611385615, 27.142821521798407, 4.959005995322337, 20.479310873937507,
    3.830763668598633, 24.190263612714272, 4.432101239045303, 22.9777112353006,
    4.606917768128629, 23.059663597650886, 5.088551611271478, 22.120104280001797,
    2.064523063549448, 12.369646960250897, 2.8327979900027986, 14.559323871627868,
    1.8623370153611563, 13.639880255753049, 2.862557016076995, 12.812534536054722,
    3.2722780483464495, 14.97598004614786, 2.4894414048102678, 15.384195602051966,
    2.584807914463945, 14.814461302184174, 2.2978899527635286, 11.180339887498949,
    18.102025133326652, 2.000000000000006, 2.828427124746197, 4.0, 16.085655387025987,
    2.0000000000000036, 3.000000000000003, 11.180339887498949, 9.341660200712072,
    3.0000000000000053, 4.8802309193717575, 6.70820393249937, 6.733066645378665,
    2.000000000000002, 3.162277660168379, 15.491933384829668, 13.55260883340045,
    3.0000000000000036, 3.6055512754639896, 16.970562748477143, 11.01904083579184,
    3.000000000000005, 4.7719702256294, 29.393876913398145, 10.430723848324241,
    3.0000000000000147, 3.8991103925992645, 7.3484692283495345, 13.440996699079813,
    2.0000000000000098, 4.32114790810708, 6.9282032302755105, 16.040029311342337,
    2.000000000000014, 2.8284271247461907, 1.0, 1.0000000000000073,
)


def test_ascent_reaches_every_maximum_of_its_table():
    # the polish may end a start at another critical point than Gauss-Seidel
    # would: the best of the 48 is never lower than the maximum all the
    # same, and its point is a unit point that passes the stop rule
    forms = list(_ascent_table_forms())
    assert len(forms) == len(_ASCENT_MAXIMA) >= 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, (form, top) in enumerate(zip(forms, _ASCENT_MAXIMA)):
            result = poweriter._ascend(form, 0, poweriter._ASCENTS)
            assert result.status is Status.CONVERGED, k
            assert result.value >= top * (1.0 - 1e-12), k
            unit, scale = poweriter._scaled(form)
            value, residual = poweriter._assess(
                unit.tensor, poweriter._subscripts(form.order), [v[None, :] for v in result.point])
            assert abs(abs(value[0]) - math.ldexp(result.value, -scale)) <= 1e-15 * abs(value[0])
            assert poweriter._stopped(value[0], residual[0], poweriter.DEFAULT_TOL), k
            assert [abs(v @ v - 1.0) <= 1e-15 for v in result.point] == [True] * form.order, k


def test_polish_refuses_a_fall_to_a_lower_critical_point():
    # 1e-3 off the saddle (e1 + e2) / sqrt(2) of the diagonal 3x3x3 form,
    # toward e1, |l| is above the saddle's value, where Newton's steps
    # converge: the polish refuses the row, and Gauss-Seidel climbs from it
    # to the maximum 1
    form = MultilinearForm((3, 3, 3), np.eye(27)[[0, 13, 26]].sum(axis=0))
    angle = math.pi / 4 + 1e-3
    start = np.array([[math.cos(angle), math.sin(angle), 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        taken, *_ = poweriter._polish(form.tensor, poweriter._subscripts(3),
                                      poweriter._pair_subscripts(3), [start] * 3,
                                      poweriter._NEWTON, poweriter.DEFAULT_TOL)
        (result,) = poweriter._gauss_seidel(form, [start] * 3, poweriter.DEFAULT_TOL,
                                            poweriter._ASCENT_SWEEPS)
    assert taken.tolist() == [0]
    assert result.status is Status.CONVERGED
    assert result.value == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("name", ["all-ones-2x2x2", "diagonal-3x3x3", "e1xe1xe1"])
def test_polish_refuses_zero_gradient_rows(monkeypatch, name):
    # each form's two points have a zero partial gradient: Newton's system
    # there is singular, or its step stays at l = 0, and the polish refuses
    # both rows without a warning; Gauss-Seidel ends them with
    # ZeroGradientError, and a generic start beside them gives the maximum
    e = np.eye(3)
    u = np.array([1.0, -1.0]) / math.sqrt(2.0)
    form, zero, top = {
        "all-ones-2x2x2": (MultilinearForm((2, 2, 2), np.ones(8)),
                           [(u, u, u), (e[0, :2], u, u)], math.sqrt(8.0)),
        "diagonal-3x3x3": (MultilinearForm((3, 3, 3), np.eye(27)[[0, 13, 26]].sum(axis=0)),
                           [(e[0], e[1], e[2]), (e[0], e[0], e[1])], 1.0),
        "e1xe1xe1": (MultilinearForm((2, 2, 2), np.eye(8)[0]),
                     [(e[1, :2],) * 3, (e[0, :2], e[1, :2], e[1, :2])], 1.0),
    }[name]
    slots = [np.array([p[i] for p in zero]) for i in range(3)]
    generic = poweriter._random_starts(form, [0])
    monkeypatch.setattr(poweriter, "_random_starts", lambda form, seeds, count: [
        np.vstack([s, g]) for s, g in zip(slots, generic)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        taken, *_ = poweriter._polish(form.tensor, poweriter._subscripts(3),
                                      poweriter._pair_subscripts(3), slots,
                                      poweriter._NEWTON, poweriter.DEFAULT_TOL)
        outcomes = poweriter._gauss_seidel(form, [np.vstack([s, g]) for s, g in zip(
            slots, generic)], poweriter.DEFAULT_TOL, poweriter._ASCENT_SWEEPS)
        result = poweriter._ascend(form, 0, 3)
    assert taken.tolist() == [0, 0]
    assert all(isinstance(out, ZeroGradientError) for out in outcomes[:2])
    assert result.status is Status.CONVERGED
    assert result.value == pytest.approx(top, rel=1e-12)


# (status, iterations) and value of multilinear_iterate for seeds 0-9, as
# the step-by-step joint kernel returned them (``_plain_joint``)
_JOINT_PINS = {
    "trilinear": [(28, 21.955582366933964)] + [(30, 21.955582366933967)] * 6
    + [(29, 21.955582366933967)] * 3,
    "quadlinear": [(37, 16.71262551612544)] * 2 + [(35, 16.71262551612544)] * 2
    + [(35, 16.712625516125435)] * 2 + [(34, 16.712625516125435)] * 2
    + [(43, 15.537021957568351), (36, 16.712625516125435)],
    "random-2x2x3": [(36, 12.984628299332215)] * 4 + [(38, 12.984628299332213)] * 2
    + [(38, 12.984628299332215)] * 2 + [(35, 12.984628299332215)] * 2,
}
_JOINT_FORMS = {
    "trilinear": MultilinearForm(dims=(2, 2, 2), coeffs=TRILINEAR_COEFFS),
    "quadlinear": MultilinearForm(dims=(2, 2, 2, 2), coeffs=QUADLINEAR_COEFFS),
    "random-2x2x3": random_form(np.random.default_rng(7), (2, 2, 3)),
}


def _same_outcome(got, want):
    return (type(got) is type(want) and (
        repr(got) == repr(want) if isinstance(want, Exception) else
        (got.status, got.iterations, got.value, got.residual) ==
        (want.status, want.iterations, want.value, want.residual)
        and all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                for a, b in zip(got.point, want.point))))


@pytest.mark.parametrize("name", list(_JOINT_FORMS))
def test_joint_outcomes_keep_their_pins(name):
    # the block driver judges a block of steps at once; every run still
    # ends at the step, with the status, the step-by-step loop gave it
    for seed, (iterations, value) in enumerate(_JOINT_PINS[name]):
        result = multilinear_iterate(_JOINT_FORMS[name], seed=seed)
        assert (result.status, result.iterations) == (Status.OSCILLATING, iterations), seed
        assert abs(result.value - value) <= 1e-12, seed


def _plain_joint(form, starts, tol, max_iters):
    """``_joint`` one step at a time: each step of the fused step function
    is judged before the next (zero gradient, convergence, oscillation at
    lag 2..4), and a row is dropped once a lower row has converged at an
    earlier step."""
    t, subs = form.tensor, poweriter._subscripts(form.order)
    offsets = np.cumsum((0,) + form.dims).tolist()
    w, gather = poweriter._unfolding(t), poweriter._gather_index(offsets)
    q = np.concatenate(starts, axis=1)
    q /= poweriter._row_norms(q)[:, None]
    outcomes, live = [None] * len(q), list(range(len(q)))
    history = [[] for _ in q]
    converged = [math.inf] * len(q)  # the step each row converged at
    for it in range(1, max_iters + 2):
        live = [k for k in live if min(converged[:k], default=math.inf) >= it]
        if it > max_iters or not live:
            break
        buf, norms = np.empty((2, *q.shape)), np.empty((1, len(q)))
        buf[0] = q
        poweriter._steps(w, gather, buf, norms)
        for k in list(live):
            row, status = buf[1, k:k + 1], None
            if not norms[0, k] > 0.0:
                outcomes[k] = ZeroGradientError(f"zero gradient at iteration {it}")
                live.remove(k)
                continue
            slots, collapsed = poweriter._split_unit(row, offsets)
            if abs(poweriter._row_dots(row, q[k:k + 1])[0]) >= 1.0 - tol:
                value, residual = poweriter._assess(t, subs, slots)
                if collapsed[0] or poweriter._stopped(value, residual, tol)[0]:
                    status = Status.OSCILLATING if collapsed[0] else Status.CONVERGED
            canon = row[0] * (1.0 if row[0, np.argmax(np.abs(row[0]))] >= 0.0 else -1.0)
            dist = [np.linalg.norm(canon - past) for past in history[k][::-1]]
            if status is None and dist and dist[0] > poweriter._OSC_TOL and any(
                    d <= poweriter._OSC_TOL for d in dist[1:]):
                status = Status.OSCILLATING
            history[k] = (history[k] + [canon])[-4:]
            if status is not None:
                (outcomes[k],) = poweriter._results(t, subs, slots, [it], [status])
                converged[k] = it if status is Status.CONVERGED and not collapsed[0] else math.inf
                live.remove(k)
        q = buf[1]
    for k in live:
        (outcomes[k],) = poweriter._results(t, subs, poweriter._split_unit(q[k:k + 1], offsets)[0],
                                            [max_iters], [Status.NON_CONVERGED])
    return outcomes


def _chain_khatri_rao(q, dims):
    """Each slot's Khatri-Rao block of the rows of q by its own chain of
    broadcast products of the other slots, in slot order: the fused step's
    (B, K) buffer as it was formed before the one-gather rule."""
    offsets = np.cumsum((0,) + dims)
    slots = [q[:, a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    blocks = []
    for i in range(len(dims)):
        others = [j for j in range(len(dims)) if j != i]
        # the p-th other slot on axis p + 1, broadcast on the rest
        first, second, *rest = [
            np.expand_dims(slots[j], tuple(1 + o for o in range(len(others)) if o != p))
            for p, j in enumerate(others)]
        block = np.empty((len(q), *[dims[j] for j in others]))
        np.multiply(first, second, out=block)
        for f in rest:
            np.multiply(block, f, out=block)
        blocks.append(block.reshape(len(q), -1))
    return np.concatenate(blocks, axis=1)


@pytest.mark.parametrize("dims", [(2, 2, 3), (3, 2, 4), (2, 2, 2, 2), (2, 3, 2, 2, 2),
                                  (2, 1, 3)])
def test_gathered_khatri_rao_buffer_matches_the_per_slot_chain(dims):
    # one gather of the iterate's columns and r - 2 products in slot order
    # give the per-slot chains' buffer bit for bit, and so the fused step
    # gives that buffer's step
    form = random_form(np.random.default_rng(11), dims)
    q = np.concatenate(poweriter._random_starts(form, range(poweriter._STARTS)), axis=1)
    gather = poweriter._gather_index(np.cumsum((0,) + dims).tolist())
    factors = q.take(gather, axis=1)
    kr = factors[:, 0] * factors[:, 1]
    for p in range(2, len(dims) - 1):
        kr *= factors[:, p]
    chain = _chain_khatri_rao(q, dims)
    assert kr.tobytes() == chain.tobytes()
    w = poweriter._unfolding(form.tensor)
    g = np.einsum("bk,kn->bn", chain, w)
    norm = np.sqrt(np.einsum("bn,bn->b", g, g))
    buf, norms = np.empty((2, *q.shape)), np.empty((1, len(q)))
    buf[0] = q
    poweriter._steps(w, gather, buf, norms)
    assert norms[0].tobytes() == norm.tobytes()
    assert buf[1].tobytes() == (g / norm[:, None]).tobytes()


def _symmetric_case(seed, d):
    # a symmetric form from equal slots: rows converge, one after another,
    # and a row is dropped once a lower one has converged
    rng = np.random.default_rng(seed)
    t = sum(w * np.multiply.outer(np.outer(v, v), v)
            for w, v in zip(rng.standard_normal(d), rng.standard_normal((d, d))))
    form = MultilinearForm(dims=(d,) * 3, coeffs=t.reshape(-1))
    return form, [poweriter._random_starts(form, range(7))[0]] * 3


_STEPWISE_CASES = {
    # the starts of seeds 0-9, as the pins run them
    **{name: (form, poweriter._random_starts(form, range(10 + poweriter._STARTS - 1)))
       for name, form in _JOINT_FORMS.items()},
    "symmetric-3x3x3": _symmetric_case(501, 3),
    "symmetric-4x4x4": _symmetric_case(503, 4),
}


@pytest.mark.parametrize("name", list(_STEPWISE_CASES))
def test_block_judgement_matches_the_step_by_step_loop(name):
    # _BLOCK steps judged at once end every row where judging each step
    # before the next does, with the same outcome, at every cap
    form, starts = _STEPWISE_CASES[name]
    for cap in (1, poweriter._BLOCK - 1, poweriter._BLOCK, poweriter._BLOCK + 1, 2000):
        got = poweriter._joint(form, starts, poweriter.DEFAULT_TOL, cap)
        want = _plain_joint(form, starts, poweriter.DEFAULT_TOL, cap)
        for k, (a, b) in enumerate(zip(got, want)):
            assert a is b is None or _same_outcome(a, b), (cap, k)


@pytest.mark.parametrize("name", list(_JOINT_FORMS))
def test_joint_cap_inside_and_at_block_edges(name):
    # rows that end by the cap are untouched by it; the others end at the
    # cap, NON_CONVERGED, whether it falls inside a block or at its edge
    form, block = _JOINT_FORMS[name], poweriter._BLOCK
    starts = poweriter._random_starts(form, range(3, 3 + poweriter._STARTS))
    free = poweriter._joint(form, starts, poweriter.DEFAULT_TOL, 10**5)
    for cap in (1, block - 1, block, block + 1, 2 * block + 1):
        capped = poweriter._joint(form, starts, poweriter.DEFAULT_TOL, cap)
        for k, (got, want) in enumerate(zip(capped, free)):
            if want.iterations <= cap:
                assert _same_outcome(got, want), (cap, k)
            else:
                assert (got.status, got.iterations) == (Status.NON_CONVERGED, cap), (cap, k)
    end = max(r.iterations for r in free)  # the step the last start ends
    uncapped = multilinear_iterate(form, seed=3)
    for cap in (end, end + 1, 2 * block + 1):
        if cap >= end:
            assert _same_outcome(multilinear_iterate(form, seed=3, max_iters=cap), uncapped)


def test_row_converged_at_step_one_drops_later_rows():
    # e1 (x) e1 (x) e1 from (e1, e1, e1) converges at step 1, inside the
    # first block: the generic row after it, which runs on past step 1
    # alone, is dropped unfinished
    e1 = np.eye(2)[0]
    form = MultilinearForm(dims=(2, 2, 2), coeffs=np.multiply.outer(np.outer(e1, e1), e1))
    generic = poweriter._random_starts(form, [4])
    starts = [np.vstack([e1, g]) for g in generic]
    tol = poweriter.DEFAULT_TOL
    first, second = poweriter._joint(form, starts, tol, 100)
    assert (first.status, first.iterations) == (Status.CONVERGED, 1)
    assert second is None
    (alone,) = poweriter._joint(form, generic, tol, 100)
    assert alone.iterations > 1


def test_row_ending_at_the_step_a_lower_row_converges_keeps_its_outcome():
    # e1 (x) e1 (x) e1: (e1, e1, e1) converges at step 1 and (e2, e2, e2)
    # meets a zero gradient at step 1.  A row is dropped only once a lower
    # row has converged at a strictly earlier step, so both keep their
    # outcomes in either order, and the generic row after them is dropped
    e1, e2 = np.eye(2)
    form = MultilinearForm(dims=(2, 2, 2), coeffs=np.multiply.outer(np.outer(e1, e1), e1))
    generic = poweriter._random_starts(form, [4])
    zero = "ZeroGradientError('zero gradient at iteration 1')"
    for rows, converged in (([e1, e2], 0), ([e2, e1], 1)):
        starts = [np.vstack(rows + [g[0]]) for g in generic]
        outcomes = poweriter._joint(form, starts, poweriter.DEFAULT_TOL, 100)
        assert (outcomes[converged].status, outcomes[converged].iterations) == (
            Status.CONVERGED, 1)
        assert repr(outcomes[1 - converged]) == zero
        assert outcomes[2] is None


def _power_of_two_form(dims, seed):
    # a Gaussian form times the power of two that puts max |c| in [0.5, 1)
    c = np.random.default_rng(seed).standard_normal(math.prod(dims))
    return MultilinearForm(dims=dims, coeffs=np.ldexp(c, -math.frexp(np.abs(c).max())[1]))


_BASE_FORMS = {
    "8x7": lambda: _power_of_two_form((8, 7), 3),
    "2x2x2": lambda: _power_of_two_form((2, 2, 2), 3),
    "2x2x3": lambda: _power_of_two_form((2, 2, 3), 3),
    "8x7-gauss": lambda: MultilinearForm(
        dims=(8, 7), coeffs=np.random.default_rng(3).standard_normal(56)),
    "2x2x2-int": lambda: cli._random_integer_form((2, 2, 2), np.random.default_rng(0)),
    "2x2x3-int": lambda: cli._random_integer_form((2, 2, 3), np.random.default_rng(1)),
}


@pytest.mark.parametrize("exp", [-560, -530, -40, -1, 1, 40, 530, 560])
@pytest.mark.parametrize("base", list(_BASE_FORMS))
def test_form_times_a_huge_or_tiny_power_of_two_runs_as_the_form(base, exp):
    # every form runs scaled by the power of two that puts max |c| in
    # [0.5, 1), with value and residual scaled back exactly, so status,
    # steps and point are the form's own at any power of two, and squared
    # gradients never overflow or underflow
    form = _BASE_FORMS[base]()
    calls = [lambda f: multilinear_iterate(f, seed=2), lambda f: poweriter._ascend(f, 0, 8)]
    for call in calls:
        want = call(form)
        got = call(MultilinearForm(dims=form.dims, coeffs=np.ldexp(form.coeffs, exp)))
        assert got.value == math.ldexp(want.value, exp)
        assert got.residual == math.ldexp(want.residual, exp)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.point, want.point))


@pytest.mark.parametrize("exp", [-300, -170, -160, -100, -20, -12, 155, 300])
def test_badly_scaled_forms_keep_their_relative_accuracy(exp):
    # these raised ZeroGradientError, or (at 1e-160) returned a value off
    # by 2e-5 with residual 0.0, from overflow or underflow in row norms;
    # at 1e-12 to 1e-100 an absolute stop test ended the run at step 1,
    # 2.4e-5 short of sigma_1
    a = np.random.default_rng(3).standard_normal((8, 7))
    result = bilinear_max(MultilinearForm(dims=a.shape, coeffs=a * 10.0**exp))
    s1 = float(np.linalg.svd(a, compute_uv=False)[0])
    assert result.status is Status.CONVERGED
    assert result.value / 10.0**exp == pytest.approx(s1, rel=1e-12)
    assert 0.0 < result.residual <= 1e-12 * result.value
    c = np.random.default_rng(3).standard_normal(8)
    form = MultilinearForm(dims=(2, 2, 2), coeffs=c)
    scaled = MultilinearForm(dims=(2, 2, 2), coeffs=c * 10.0**exp)
    calls = [lambda f: multilinear_iterate(f, seed=0), lambda f: poweriter._ascend(f, 0, 48)]
    for call in calls:
        assert call(scaled).value / 10.0**exp == pytest.approx(call(form).value, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-8, 1e-12, 1e-20, 1e-100])
def test_small_forms_stop_as_the_unscaled_form(scale):
    # the stop test reads relative to the form's own scale: a Gaussian 8x7
    # times a small factor ended at step 1, 2.4e-5 below sigma_1, when the
    # test was absolute; a 40x30, wider than the block, takes the unscaled
    # run's 16 steps
    a = np.random.default_rng(0).standard_normal((40, 30))
    s1 = float(np.linalg.svd(a, compute_uv=False)[0])
    want = bilinear_max(MultilinearForm(dims=a.shape, coeffs=a.reshape(-1)))
    got = bilinear_max(MultilinearForm(dims=a.shape, coeffs=a.reshape(-1) * scale))
    assert (got.status, got.iterations) == (want.status, want.iterations) == (
        Status.CONVERGED, 16)
    assert abs(got.value / scale - s1) <= 2e-15 * s1
    assert got.residual <= 1e-13 * got.value
