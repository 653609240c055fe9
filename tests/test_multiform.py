"""Multilinear-form container and calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremax import (
    DimensionMismatchError,
    MultilinearForm,
    MultilinearMap,
    RankOneForm,
    canonical_signs,
    evaluate,
    flatten,
    form_inner,
    form_norm,
    gradient,
    partial_gradient,
    rank_one_to_form,
)


def test_evaluate_bilinear_matches_matrix_product():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    form = MultilinearForm(dims=(3, 2), coeffs=a.reshape(-1))
    x = np.array([1.0, -1.0, 2.0])
    y = np.array([0.5, 3.0])
    assert evaluate(form, [x, y]) == pytest.approx(float(x @ a @ y), abs=1e-12)


def test_evaluate_trilinear_basis_vectors_read_off_coefficients():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((2, 3, 2))
    form = MultilinearForm(dims=(2, 3, 2), coeffs=t.reshape(-1))
    for i in range(2):
        for j in range(3):
            for k in range(2):
                e = [np.eye(2)[i], np.eye(3)[j], np.eye(2)[k]]
                assert evaluate(form, e) == pytest.approx(t[i, j, k], abs=1e-15)


def test_coefficients_are_row_major_first_slot_slowest():
    form = MultilinearForm(dims=(2, 2), coeffs=[1.0, 2.0, 3.0, 4.0])
    assert form.tensor[0, 1] == 2.0
    assert form.tensor[1, 0] == 3.0


def test_dims_mismatch_raises():
    form = MultilinearForm(dims=(2, 2), coeffs=[1, 2, 3, 4])
    with pytest.raises(DimensionMismatchError):
        evaluate(form, [np.ones(3), np.ones(2)])
    with pytest.raises(DimensionMismatchError):
        MultilinearForm(dims=(2, 2), coeffs=[1, 2, 3])
    # a non-integral dim was truncated: (2.7, 2) read as (2, 2)
    for dims in [(2.7, 2), (2, 1.5), (np.float64(3.9), 3)]:
        with pytest.raises(DimensionMismatchError, match="integers"):
            MultilinearForm(dims=dims, coeffs=np.ones(math.prod(int(d) for d in dims)))
    form = MultilinearForm(dims=(2.0, np.int64(3)), coeffs=np.ones(6))
    assert form.dims == (2, 3) and all(type(d) is int for d in form.dims)


@pytest.mark.parametrize("dims", [(np.nan, 2), (2, np.inf), (-np.inf, 2)])
def test_form_refuses_non_finite_dims(dims):
    with pytest.raises(DimensionMismatchError, match="integers"):
        MultilinearForm(dims=dims, coeffs=np.ones(4))


@pytest.mark.parametrize("domain_dims, codomain_dim", [
    ((2.5, 2), 1), ((2, 2.5), 2), ((np.nan, 2), 1), ((2, 2), np.inf),
])
def test_map_refuses_non_integral_dims(domain_dims, codomain_dim):
    # (2.5, 2) was truncated to the component forms' (2, 2)
    form = MultilinearForm(dims=(2, 2), coeffs=np.ones(4))
    with pytest.raises(DimensionMismatchError, match="integers"):
        MultilinearMap(domain_dims, codomain_dim, (form,) * 2)


def test_map_stores_integral_dims_as_ints():
    form = MultilinearForm(dims=(2, 2), coeffs=np.ones(4))
    m = MultilinearMap((2.0, np.int64(2)), 1.0, (form,))
    assert m.domain_dims == (2, 2) and m.codomain_dim == 1
    assert all(type(d) is int for d in (*m.domain_dims, m.codomain_dim))


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.floats(-10, 10, allow_nan=False), min_size=8, max_size=8
    ),
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    slot=st.integers(0, 2),
)
def test_multilinearity_in_each_slot(data, a, b, slot):
    form = MultilinearForm(dims=(2, 2, 2), coeffs=data)
    rng = np.random.default_rng(1)
    pts = [rng.standard_normal(2) for _ in range(3)]
    u, v = rng.standard_normal(2), rng.standard_normal(2)
    left = list(pts)
    left[slot] = a * u + b * v
    with_u = list(pts)
    with_u[slot] = u
    with_v = list(pts)
    with_v[slot] = v
    lhs = evaluate(form, left)
    rhs = a * evaluate(form, with_u) + b * evaluate(form, with_v)
    assert lhs == pytest.approx(rhs, abs=1e-8 * (1 + abs(lhs)))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dims = tuple(rng.integers(2, 4, size=rng.integers(2, 4)))
        form = MultilinearForm(
            dims=dims, coeffs=rng.standard_normal(math.prod(dims))
        )
        pts = [rng.standard_normal(d) for d in dims]
        h = 1e-6
        for s, d in enumerate(dims):
            g = partial_gradient(form, s, pts)
            for i in range(d):
                bumped = [p.copy() for p in pts]
                bumped[s][i] += h
                dipped = [p.copy() for p in pts]
                dipped[s][i] -= h
                fd = (evaluate(form, bumped) - evaluate(form, dipped)) / (2 * h)
                assert abs(g[i] - fd) <= 1e-8 * (1 + abs(fd))


def test_euler_identity_each_slot():
    rng = np.random.default_rng(3)
    for _ in range(20):
        form = MultilinearForm(dims=(2, 3, 2), coeffs=rng.standard_normal(12))
        pts = [rng.standard_normal(d) for d in (2, 3, 2)]
        value = evaluate(form, pts)
        for g, p in zip(gradient(form, pts), pts):
            assert float(g @ p) == pytest.approx(value, abs=1e-10 * (1 + abs(value)))


def test_partial_gradient_ignores_own_slot():
    rng = np.random.default_rng(4)
    form = MultilinearForm(dims=(2, 2), coeffs=rng.standard_normal(4))
    pts = [rng.standard_normal(2), rng.standard_normal(2)]
    g1 = partial_gradient(form, 0, pts)
    pts2 = [rng.standard_normal(2), pts[1]]
    g2 = partial_gradient(form, 0, pts2)
    assert np.allclose(g1, g2)


def test_flatten_norm_equivalence():
    # max ||map(x)|| over the sphere equals max of the flattened form; here
    # checked pointwise: ||map(x)|| = max_y <map(x), y> over unit y.
    rng = np.random.default_rng(5)
    comp = [
        MultilinearForm(dims=(3, 2), coeffs=rng.standard_normal(6))
        for _ in range(4)
    ]
    mlmap = MultilinearMap(domain_dims=(3, 2), codomain_dim=4, component_forms=tuple(comp))
    flat = flatten(mlmap)
    assert flat.dims == (3, 2, 4)
    x, y = rng.standard_normal(3), rng.standard_normal(2)
    vec = np.array([evaluate(f, [x, y]) for f in comp])
    best = evaluate(flat, [x, y, vec / np.linalg.norm(vec)])
    assert best == pytest.approx(float(np.linalg.norm(vec)), abs=1e-10)


def test_form_norm_and_inner():
    a = MultilinearForm(dims=(2, 2), coeffs=[1, 0, 0, 1])
    b = MultilinearForm(dims=(2, 2), coeffs=[0, 1, 1, 0])
    assert form_norm(a) == pytest.approx(math.sqrt(2))
    assert form_inner(a, b) == 0.0
    assert form_inner(a, a) == pytest.approx(2.0)


def test_rank_one_roundtrip():
    x = np.array([0.6, 0.8])
    y = np.array([1.0, 2.0, 2.0]) / 3.0
    form = rank_one_to_form(RankOneForm(factors=(x, y)))
    assert form_norm(form) == pytest.approx(1.0, abs=1e-12)
    assert evaluate(form, [x, y]) == pytest.approx(1.0, abs=1e-12)


def test_canonical_signs_first_nonzero_positive():
    out = canonical_signs(np.array([[-1.0, 2.0], [0.0, -3.0], [0.0, 0.0]]))
    assert out.tolist() == [[1.0, -2.0], [0.0, 3.0], [0.0, 0.0]]


def test_assess_block_matches_pointwise_calculus():
    # value (Euler identity) and fixed-point residual of a block of points,
    # the check shared by the power kernels and solve_argmax
    from spheremax import multiform

    rng = np.random.default_rng(4)
    form = MultilinearForm(dims=(2, 3, 2), coeffs=rng.standard_normal(12))
    slots = [rng.standard_normal((5, d)) for d in form.dims]
    slots = [s / np.linalg.norm(s, axis=1)[:, None] for s in slots]
    value, residual = multiform._assess(form.tensor, multiform._subscripts(3), slots)
    for k in range(5):
        point = [s[k] for s in slots]
        v = evaluate(form, point)
        res = max(
            float(np.linalg.norm(partial_gradient(form, i, point) - v * point[i]))
            for i in range(3)
        )
        assert value[k] == pytest.approx(v, abs=1e-12)
        assert residual[k] == pytest.approx(res, abs=1e-12)
