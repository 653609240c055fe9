"""Projective power iteration."""

import math
import time
import warnings

import numpy as np
import pytest

from spheremax import (
    MultilinearForm,
    Status,
    ZeroGradientError,
    bilinear_max,
    multilinear_iterate,
)
from spheremax import poweriter

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
    rng = np.random.default_rng(3)
    form = MultilinearForm(dims=(3, 4), coeffs=rng.standard_normal(12))
    a = bilinear_max(form, seed=42)
    b = bilinear_max(form, seed=42)
    assert a.value == b.value and a.iterations == b.iterations
    for u, v in zip(a.point, b.point):
        assert np.array_equal(np.asarray(u), np.asarray(v))


def test_zero_form_raises():
    with pytest.raises(ZeroGradientError):
        bilinear_max(MultilinearForm(dims=(2, 2), coeffs=[0, 0, 0, 0]))


def test_bilinear_requires_two_slots(trilinear_form):
    with pytest.raises(Exception):
        bilinear_max(trilinear_form)


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
    # a Jacobi update swaps the slots of the identity forever; the
    # Gauss-Seidel step settles on the tied top singular subspace
    a = np.diag(np.array(diagonal, dtype=float))
    form = MultilinearForm(dims=a.shape, coeffs=a.reshape(-1))
    t0 = time.perf_counter()
    result = bilinear_max(form)
    assert time.perf_counter() - t0 < 1.0
    assert result.status is Status.CONVERGED
    assert abs(result.value - max(diagonal)) <= 1e-12


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


def test_block_starts_in_the_null_space_raise(monkeypatch):
    # A = e1 e1^T: every y start with a zero first entry gives A Y = 0
    a = np.zeros((6, 6))
    a[0, 0] = 1.0
    form = MultilinearForm(dims=(6, 6), coeffs=a.reshape(-1))
    null = np.random.default_rng(0).standard_normal((poweriter._STARTS, 6))
    null[:, 0] = 0.0
    monkeypatch.setattr(poweriter, "_random_starts", lambda form, seeds: [
        np.tile(np.eye(6)[0], (len(seeds), 1)), null[:len(seeds)]])
    with pytest.raises(ZeroGradientError):
        bilinear_max(form)


@pytest.mark.parametrize("a, max_iters", [
    (np.random.default_rng(13).standard_normal((30, 30)), 1),
    # seven singular values within 6e-6, one more than the block holds
    (np.diag([1.0, 1 - 1e-6, 1 - 2e-6, 1 - 3e-6, 1 - 4e-6, 1 - 5e-6, 1 - 6e-6, 0.5]), 500),
], ids=["generic-30x30", "cluster-8x8"])
def test_block_iteration_cap_ends_non_converged(a, max_iters):
    form = MultilinearForm(dims=a.shape, coeffs=a.reshape(-1))
    result = bilinear_max(form, max_iters=max_iters)
    assert result.status is Status.NON_CONVERGED
    assert result.iterations == max_iters
    assert [np.linalg.norm(v) for v in result.point] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert math.isfinite(result.residual) and result.residual > 0.0
    assert result.value <= float(np.linalg.svd(a, compute_uv=False)[0]) * (1 + 1e-15)


def test_iteration_cap_below_one_is_refused():
    form = MultilinearForm(dims=(2, 2), coeffs=[1.0, 2.0, 3.0, 4.0])
    for call in (bilinear_max, multilinear_iterate):
        with pytest.raises(ValueError):
            call(form, max_iters=0)


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
        block = poweriter._joint(form, starts, False, tol, max_iters)
        alone = [
            poweriter._pick(poweriter._joint(
                form, poweriter._random_starts(form, [s]), True, tol, max_iters))
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


def test_joint_converges_at_once_on_a_rank_one_form():
    # e1 (x) e1 (x) e1 from (e1, e1, e1): the first step is stationary and
    # the fixed-point residual is exactly 0
    e1 = np.eye(2)[0]
    form = MultilinearForm(dims=(2, 2, 2), coeffs=np.multiply.outer(np.outer(e1, e1), e1))
    starts = [e1[None, :].copy() for _ in range(3)]
    (result,) = poweriter._joint(form, starts, True, poweriter.DEFAULT_TOL, 10)
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
            outcomes = kernel(form, starts, True, poweriter.DEFAULT_TOL, 1000)
        assert isinstance(outcomes[0], ZeroGradientError)
        assert poweriter._pick(outcomes) is outcomes[1]
        assert outcomes[1].value == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ZeroGradientError):
            poweriter._pick(outcomes[:1])


def test_ascent_raises_when_every_start_meets_zero_gradient(monkeypatch):
    # e1 (x) e1 (x) e1 has a zero gradient at (e2, e2, e2); a generic start
    # beside such starts still gives the ascent its answer
    e1, e2 = np.eye(2)
    form = MultilinearForm(dims=(2, 2, 2), coeffs=np.multiply.outer(
        np.multiply.outer(e1, e1), e1).reshape(-1))
    generic = poweriter._random_starts(form, [0])
    monkeypatch.setattr(poweriter, "_random_starts",
                        lambda form, seeds: [np.tile(e2, (len(seeds), 1))] * 3)
    with pytest.raises(ZeroGradientError):
        poweriter._ascend(form, 0, 4)
    monkeypatch.setattr(poweriter, "_random_starts", lambda form, seeds: [
        np.vstack([np.tile(e2, (len(seeds) - 1, 1)), g]) for g in generic])
    assert poweriter._ascend(form, 0, 4).value == pytest.approx(1.0, abs=1e-9)
