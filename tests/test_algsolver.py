"""Exact algebraic pipeline: Groebner bases, quotient rings, eigen-solving."""

import functools
import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spheremax import (
    BudgetExceededError,
    DensityState,
    GroebnerBasis,
    Matrix,
    MultilinearForm,
    NotZeroDimensionalError,
    PolySystem,
    RationalPoly,
    build_critical_system,
    canonical_signs,
    closest_rank_one,
    count_extreme_classes,
    evaluate,
    groebner,
    mult_matrix,
    normal_set,
    partial_gradient,
    rationalize,
    solve_argmax,
    solve_max,
    verify_buchberger_certificate,
)
from spheremax import algsolver, cli, intpoly, multiform
from spheremax.apps import _separability_form
from spheremax.algsolver import (
    RESIDUAL_TOL,
    QuotientRing,
    _Budget,
    _Monomials,
    _normal_form,
    _reducer,
    _spoly,
    _to_integer_primitive,
    form_polynomial,
    grevlex_key,
)

from conftest import (
    NON_GENERIC_FORMS,
    TRILINEAR_COEFFS,
    TRILINEAR_CRITICAL_VALUES,
    TRILINEAR_MAX,
    QUADLINEAR_FACTORS,
    QUADLINEAR_MAX,
    random_form,
    sign_aligned_error,
)


def _divides(a, b):
    """x^a | x^b on exponent tuples: the reference for packed divisibility."""
    return all(x <= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# exact coefficient handling
# ---------------------------------------------------------------------------

def test_rationalize_shortest_decimal():
    assert rationalize(0.1) == Fraction(1, 10)
    assert rationalize(-2.5) == Fraction(-5, 2)
    assert rationalize(3) == 3
    assert rationalize(0.0) == 0


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_rationalize_roundtrip(x):
    assert float(rationalize(x)) == x


# ---------------------------------------------------------------------------
# grevlex order
# ---------------------------------------------------------------------------

def _all_monomials(nvars, maxdeg):
    return [
        m
        for m in itertools.product(range(maxdeg + 1), repeat=nvars)
        if sum(m) <= maxdeg
    ]


def test_grevlex_refines_total_degree():
    for a in _all_monomials(3, 3):
        for b in _all_monomials(3, 3):
            if sum(a) < sum(b):
                assert grevlex_key(a) < grevlex_key(b)


def test_grevlex_is_multiplicative():
    monos = _all_monomials(3, 2)
    for a in monos:
        for b in monos:
            if grevlex_key(a) >= grevlex_key(b):
                continue
            for c in monos:
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert grevlex_key(ac) < grevlex_key(bc)


def test_grevlex_classic_tiebreak():
    # among degree-2 monomials in (x, y, z): x^2 > xy > y^2 > xz > yz > z^2
    order = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [grevlex_key(m) for m in order]
    assert keys == sorted(keys, reverse=True)


# ---------------------------------------------------------------------------
# Buchberger on small known ideals
# ---------------------------------------------------------------------------

def _poly(variables, terms):
    return RationalPoly(variables, terms)


def _system(variables, polys):
    return PolySystem(polys=tuple(polys), variables=variables, slot_vars=((0,),))


def test_groebner_univariate_gcd():
    # <x^2 - 1, x^3 - 1> = <x - 1>
    v = ("x",)
    sys_ = _system(v, [
        _poly(v, {(2,): 1, (0,): -1}),
        _poly(v, {(3,): 1, (0,): -1}),
    ])
    gb = groebner(sys_)
    assert len(gb.basis) == 1
    assert gb.basis[0].terms == {(1,): 1, (0,): -1}


def test_groebner_is_monic_and_reduced():
    v = ("x", "y")
    sys_ = _system(v, [
        _poly(v, {(2, 0): 3, (0, 1): 6}),
        _poly(v, {(1, 1): 2, (0, 0): -4}),
    ])
    gb = groebner(sys_)
    for p in gb.basis:
        lm = max(p.terms, key=grevlex_key)
        assert p.terms[lm] == 1
        # no term of any basis element is divisible by another leading term
        for q in gb.basis:
            if q is p:
                continue
            qlm = max(q.terms, key=grevlex_key)
            for m in p.terms:
                assert any(m[i] < qlm[i] for i in range(len(m)))


def test_groebner_certificate_small_systems():
    rng = np.random.default_rng(0)
    v = ("x", "y")
    for _ in range(10):
        polys = []
        for _ in range(2):
            terms = {}
            for m in [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]:
                c = int(rng.integers(-4, 5))
                if c:
                    terms[m] = c
            if terms:
                polys.append(_poly(v, terms))
        if not polys:
            continue
        gb = groebner(_system(v, polys))
        assert verify_buchberger_certificate(gb)


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

_exponents = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 60), min_size=n, max_size=n).map(tuple),
        st.lists(st.integers(0, 60), min_size=n, max_size=n).map(tuple),
    )
)


@settings(max_examples=300, deadline=None)
@given(_exponents)
def test_packed_monomials_match_tuple_definitions(pair):
    a, b = pair
    mono = _Monomials(len(a))
    ka, kb = mono.pack(a), mono.pack(b)
    assert mono.unpack(ka) == a and mono.unpack(kb) == b
    assert (ka < kb) == (grevlex_key(a) < grevlex_key(b))
    assert (ka == kb) == (a == b)
    assert ka + kb == mono.pack(tuple(x + y for x, y in zip(a, b)))
    assert (not (kb - mono.probe(ka)) & mono.guard) == _divides(a, b)
    assert (not (ka - mono.probe(kb)) & mono.guard) == _divides(b, a)
    lcm = mono.lcm(ka, kb)
    assert lcm == mono.pack(tuple(max(x, y) for x, y in zip(a, b)))
    coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
    assert (lcm == ka + kb) == coprime


def test_packed_degree_limit_raises():
    mono = _Monomials(2)
    top = 2**15 - 1
    assert mono.unpack(mono.pack((top, 0))) == (top, 0)
    with pytest.raises(BudgetExceededError):
        mono.pack((top, 1))
    # each factor fits; their lcm would carry a field into its guard bit
    with pytest.raises(BudgetExceededError):
        mono.lcm(mono.pack((2**14, 0)), mono.pack((0, 2**14)))
    # a negative exponent is no monomial: refused, not packed
    with pytest.raises(ValueError):
        RationalPoly(("x", "y"), {(-1, 2): 1})
    # Buchberger checks the lcm of every new pair
    v = ("x", "y")
    system = _system(v, [
        _poly(v, {(2**14, 0): 1, (0, 0): -1}),
        _poly(v, {(0, 2**14): 1, (0, 0): -1}),
    ])
    with pytest.raises(BudgetExceededError):
        groebner(system)


def test_rational_poly_refuses_non_integral_exponents():
    # an exponent is an integer: 1.5 is refused, not truncated to x^1
    for exps in [(1.5, 0), (0.9, 1), (math.nan, 0), (1, math.inf), ("1", 0)]:
        with pytest.raises(ValueError):
            RationalPoly(("x", "y"), {exps: 2})
    # integral floats and numpy ints are exponents, stored as ints
    p = RationalPoly(("x", "y"), {(2.0, np.int64(1)): 3})
    assert p.terms == {(2, 1): 3}
    assert all(type(e) is int for e in next(iter(p.terms)))


@pytest.mark.parametrize("form", [
    cli._random_integer_form((2, 2, 3), np.random.default_rng(1)),
    MultilinearForm((3, 2), np.random.default_rng(2).standard_normal(6)),
], ids=["int-2x2x3", "gauss-3x2"])
def test_solver_built_polys_are_what_the_validating_constructor_gives(form):
    # the solver builds its own polys unvalidated: each must equal, term
    # for term and in order, the poly the public constructor makes of it
    system = build_critical_system(form, chart="affine")
    polys = [form_polynomial(form), *build_critical_system(form).polys, *system.polys,
             *groebner(system).basis]
    for p in polys:
        want = RationalPoly(p.variables, p.terms)
        assert type(p.variables) is tuple and p.variables == want.variables
        assert list(p.terms.items()) == list(want.terms.items())
        assert all(type(e) is int for exps in p.terms for e in exps)
        assert all(type(c) is Fraction for c in p.terms.values())


def test_spolynomial_cancels_leading_terms():
    # the integer S-polynomial that Buchberger's algorithm uses
    mono = _Monomials(2)
    f = {mono.pack((2, 0)): 2, mono.pack((0, 1)): 1}
    g = {mono.pack((1, 1)): 3, mono.pack((1, 0)): 1}
    lm_f, lm_g = mono.pack((2, 0)), mono.pack((1, 1))
    lcm = mono.lcm(lm_f, lm_g)
    assert lcm == mono.pack((2, 1))
    s = _spoly(_reducer(f, mono), _reducer(g, mono), lcm)
    assert lcm not in s
    assert all(m < lcm for m in s)


def test_reduce_poly_exact_and_idempotent():
    v = ("x", "y")
    sys_ = _system(v, [
        _poly(v, {(2, 0): 1, (0, 0): -2}),   # x^2 = 2
        _poly(v, {(0, 1): 1, (1, 0): -1}),   # y = x
    ])
    gb = groebner(sys_)
    ns = normal_set(gb)
    ring = QuotientRing(gb, ns)

    def coords(m):
        vec, den = ring.monomial_vector(m)
        assert den > 0
        return {i: Fraction(x, den) for i, x in vec.items() if x}

    # x^3 y -> x^4 -> 4, in the memoized quotient-ring loop ...
    assert coords((3, 1)) == {ns.monomials.index((0, 0)): 4}
    # ... and in the integer loop Buchberger reduces with
    mono = _Monomials(2)
    reducers = [_reducer(_to_integer_primitive(b.terms, mono), mono) for b in gb.basis]
    reducers.sort()
    budget = _Budget(10**6)
    nf = _normal_form({mono.pack((3, 1)): 1}, reducers, mono, budget)
    assert nf == {mono.pack((0, 0)): 1}  # 4, up to a positive scalar
    # basis elements reduce to zero; normal forms are fixed points
    for b in gb.basis:
        ints = _to_integer_primitive(b.terms, mono)
        assert _normal_form(ints, reducers, mono, budget) == {}
        total = {}
        for m, c in b.terms.items():
            for k, x in coords(m).items():
                total[k] = total.get(k, 0) + c * x
        assert all(x == 0 for x in total.values())
    assert _normal_form(nf, reducers, mono, budget) == nf
    for i, m in enumerate(ns.monomials):
        assert coords(m) == {i: 1}


def test_budget_exceeded_raises():
    form = MultilinearForm(
        dims=(2, 2, 2), coeffs=[6, -14, -6, -11, 3, -15, 16, 8]
    )
    system = build_critical_system(form, chart="sphere")
    with pytest.raises(BudgetExceededError):
        groebner(system, budget=50)


@pytest.mark.parametrize("chart, reductions", [("affine", 105), ("sphere", 1732)])
def test_groebner_reduction_count_is_pinned(chart, reductions):
    # the exact number of reduction steps Buchberger's algorithm takes on
    # the trilinear form: a change to pair selection, the criteria or the
    # reducer choice moves it
    system = build_critical_system(
        MultilinearForm(dims=(2, 2, 2), coeffs=TRILINEAR_COEFFS), chart=chart
    )
    groebner(system, budget=reductions)
    with pytest.raises(BudgetExceededError):
        groebner(system, budget=reductions - 1)


@pytest.mark.parametrize("chart, reductions", [("affine", 84), ("sphere", 415)])
def test_mult_matrix_reduction_count_is_pinned(chart, reductions):
    form = MultilinearForm(dims=(2, 2, 2), coeffs=TRILINEAR_COEFFS)
    gb = groebner(build_critical_system(form, chart=chart))
    ns = normal_set(gb)
    lpoly = form_polynomial(form)
    mult_matrix(lpoly, gb, ns, budget=reductions)
    with pytest.raises(BudgetExceededError):
        mult_matrix(lpoly, gb, ns, budget=reductions - 1)


# ---------------------------------------------------------------------------
# normal sets and multiplication matrices
# ---------------------------------------------------------------------------

def test_normal_set_univariate():
    v = ("x",)
    gb = groebner(_system(v, [_poly(v, {(3,): 1, (1,): -1})]))  # x^3 = x
    ns = normal_set(gb)
    assert ns.monomials == ((0,), (1,), (2,))


def test_normal_set_rejects_positive_dimension():
    v = ("x", "y")
    gb = groebner(_system(v, [_poly(v, {(1, 0): 1, (0, 1): -1})]))  # x = y
    with pytest.raises(NotZeroDimensionalError):
        normal_set(gb)


def test_mult_matrix_eigenvalues_are_roots():
    # quotient by <x^2 - 5x + 6>: multiplication by x has eigenvalues 2, 3
    v = ("x",)
    gb = groebner(_system(v, [_poly(v, {(2,): 1, (1,): -5, (0,): 6})]))
    ns = normal_set(gb)
    m = mult_matrix(_poly(v, {(1,): 1}), gb, ns)
    vals = sorted(np.linalg.eigvals(m.array).real)
    assert vals == pytest.approx([2.0, 3.0], abs=1e-10)


@pytest.mark.parametrize("chart", ["affine", "sphere"])
def test_normal_set_and_quotient_ring_read_the_records_groebner_kept(chart):
    # groebner() keeps its integer records on the basis, so the normal set
    # and the quotient ring do not clear the basis's denominators again; a
    # basis built by hand has none and rebuilds them, to the same answers
    form = MultilinearForm(dims=(2, 2, 2), coeffs=TRILINEAR_COEFFS)
    gb = groebner(build_critical_system(form, chart=chart))
    bare = GroebnerBasis(gb.basis, gb.variables)
    assert bare == gb and repr(bare) == repr(gb)
    lpoly = form_polynomial(form)
    with mock.patch.object(algsolver, "_to_integer_primitive",
                           wraps=_to_integer_primitive) as rebuild:
        ns = normal_set(gb)
        kept = QuotientRing(gb, ns).mult_matrix_exact(lpoly)
        assert verify_buchberger_certificate(gb)
        assert rebuild.call_count == 0
        assert normal_set(bare) == ns
        assert QuotientRing(bare, ns).mult_matrix_exact(lpoly) == kept
        assert rebuild.call_count == 2 * len(gb.basis)


# ---------------------------------------------------------------------------
# critical systems and solve pipelines
# ---------------------------------------------------------------------------

def test_critical_system_shapes():
    form = MultilinearForm(dims=(2, 3), coeffs=np.arange(6, dtype=float) + 1)
    sphere = build_critical_system(form, chart="sphere")
    affine = build_critical_system(form, chart="affine")
    # minors: C(2,2) + C(3,2) = 4; plus one closure equation per slot
    assert len(sphere.polys) == 4 + 2
    assert len(affine.polys) == 4 + 2
    assert sphere.variables == ("x1", "x2", "y1", "y2", "y3")
    with pytest.raises(ValueError):
        build_critical_system(form, chart="cylinder")


def _oracle_form(rng, dims, kind):
    n = math.prod(dims)
    if kind == "sparse":  # most entries zero, so some minors vanish
        coeffs = rng.integers(-3, 4, n) * (rng.random(n) < 0.3)
        coeffs[0] = coeffs[0] or 1
    elif kind == "decimal":
        coeffs = rng.integers(-999, 1000, n) / 100
    else:
        coeffs = rng.integers(-9, 10, n)
    return MultilinearForm(dims=dims, coeffs=coeffs)


@pytest.mark.parametrize("chart", ["affine", "sphere"])
@pytest.mark.parametrize("dims, kind", [
    ((2, 3), "dense"), ((3, 3), "sparse"), ((2, 3, 3), "sparse"), ((2, 2, 2, 2), "sparse"),
    ((1, 3), "dense"), ((2, 1, 3), "dense"), ((3, 1), "sparse"),
    ((2, 2, 3), "decimal"), ((3, 4), "decimal"),
])
def test_critical_system_evaluates_like_its_definition(dims, kind, chart):
    # each minor is x_j dl/dx_i - x_i dl/dx_j of a slot (by partial_gradient,
    # in floats), one per index pair i < j that some term of l holds, and
    # each closure ||x||^2 - 1 or x_1 - 1; the polynomials are evaluated
    # exactly at random rational points, then rounded
    rng = np.random.default_rng([*dims, len(kind)])
    form = _oracle_form(rng, dims, kind)
    system = build_critical_system(form, chart=chart)
    for _ in range(3):
        point = [Fraction(int(n), 8) for n in rng.integers(-16, 17, len(system.variables))]
        got = [
            float(sum(c * math.prod(x ** e for x, e in zip(point, exps))
                      for exps, c in p.terms.items()))
            for p in system.polys
        ]
        vecs = [np.array([float(point[v]) for v in svars]) for svars in system.slot_vars]
        expected = []
        for s, x in enumerate(vecs):
            g = partial_gradient(form, s, vecs)
            for i, j in itertools.combinations(range(dims[s]), 2):
                if np.any(np.take(form.tensor, [i, j], axis=s)):
                    expected.append(x[j] * g[i] - x[i] * g[j])
        expected += [x @ x - 1 if chart == "sphere" else x[0] - 1 for x in vecs]
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_form_polynomial_evaluates_like_form():
    # one term per nonzero entry: entry (i, j) is the exact coefficient of
    # x_{i+1} y_{j+1}
    form = MultilinearForm(dims=(2, 3), coeffs=[0.5, 0, -3, 1.25, 7, -0.1])
    poly = form_polynomial(form)
    assert poly.variables == ("x1", "x2", "y1", "y2", "y3")
    expected = {}
    for (i, j), c in np.ndenumerate(form.tensor):
        if c:
            exps = tuple(int(k == i) for k in range(2)) + tuple(int(k == j) for k in range(3))
            expected[exps] = Fraction(str(c))
    assert poly.terms == expected
    # so the polynomial takes the form's values
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(2), rng.standard_normal(3)
    point = np.concatenate([x, y])
    value = sum(float(c) * np.prod(point ** np.array(m)) for m, c in poly.terms.items())
    assert value == pytest.approx(evaluate(form, [x, y]), abs=1e-12)


def test_solve_max_trilinear_instance(trilinear_form):
    report = solve_max(trilinear_form)
    assert report.max_value == pytest.approx(TRILINEAR_MAX, abs=1e-6)
    # sphere chart: 2^r points per class
    assert report.quotient_dim == 8 * count_extreme_classes((2, 2, 2))
    # every frozen critical value shows up among the real eigenvalues
    reals = sorted(
        {round(abs(v.real), 6) for v in report.eigenvalues if abs(v.imag) < 1e-8}
    )
    for cv in TRILINEAR_CRITICAL_VALUES:
        assert any(abs(cv - r) < 1e-5 for r in reals)


def test_solve_max_sparse_trilinear_form():
    # 1 at x1 y1 z1 and 2 at x2 y2 z2: critical points with a zero first
    # coordinate, which the x_1 = 1 chart cannot see, carry the maximum
    coeffs = np.zeros(8)
    coeffs[0], coeffs[7] = 1.0, 2.0
    report = solve_max(MultilinearForm(dims=(2, 2, 2), coeffs=coeffs))
    assert report.max_value == pytest.approx(2.0, abs=1e-9)
    assert not report.genericity_flags


def test_solve_max_diagonal_matrix():
    # diag(0, 1) = e2 (x) e2 has its maximum at ||l||_F, the bound on |l|
    # above which solve_max drops real eigenvalues
    for coeffs, want in (([3, 0, 0, 2], 3.0), ([0, 0, 0, 1], 1.0)):
        report = solve_max(MultilinearForm(dims=(2, 2), coeffs=coeffs))
        assert report.max_value == pytest.approx(want, abs=1e-9)
        assert report.genericity_flags == ()


def test_solve_reports_stage_times(trilinear_form):
    stages = {"system", "groebner", "normalSet", "eigen"}
    for report in (solve_max(trilinear_form), solve_argmax(trilinear_form)):
        assert set(report.timings) == stages
        assert all(t >= 0.0 for t in report.timings.values())


def test_solve_argmax_quadlinear_instance(quadlinear_form):
    report = solve_argmax(quadlinear_form)
    assert report.quotient_dim == count_extreme_classes((2, 2, 2, 2))
    assert report.genericity_flags == ()
    assert report.max_value == pytest.approx(QUADLINEAR_MAX, abs=1e-6)
    best = report.points[0]
    assert best.residual <= 1e-6 * (1 + abs(best.value))
    for got, expected in zip(best.vectors, QUADLINEAR_FACTORS):
        assert sign_aligned_error(got, expected) < 1e-6


def test_solve_argmax_bilinear_matches_svd():
    rng = np.random.default_rng(2)
    a = rng.integers(-9, 10, size=(3, 3)).astype(float)
    form = MultilinearForm(dims=(3, 3), coeffs=a.reshape(-1))
    u, s, vt = np.linalg.svd(a)
    report = solve_argmax(form)
    assert report.max_value == pytest.approx(s[0], abs=1e-8)
    best = report.points[0]
    assert sign_aligned_error(best.vectors[0], u[:, 0]) < 1e-6
    assert sign_aligned_error(best.vectors[1], vt[0]) < 1e-6


def test_solve_argmax_reports_unit_vectors_and_residuals(trilinear_form):
    report = solve_argmax(trilinear_form)
    assert report.points, "expected real critical points"
    assert report.genericity_flags == ()
    values = sorted(abs(p.value) for p in report.points)
    assert values == pytest.approx(sorted(TRILINEAR_CRITICAL_VALUES), abs=1e-6)
    for p in report.points:
        for v in p.vectors:
            assert float(np.linalg.norm(v)) == pytest.approx(1.0, abs=1e-9)
        assert p.residual <= 1e-6 * (1 + abs(p.value))
        # the batched scoring agrees with the pointwise calculus
        assert p.value == pytest.approx(evaluate(trilinear_form, p.vectors), abs=1e-12)
        for v in p.vectors:
            assert np.array_equal(v, canonical_signs(v[None])[0])
    # points sorted by decreasing |value|
    mags = [abs(p.value) for p in report.points]
    assert mags == sorted(mags, reverse=True)


@pytest.mark.parametrize("dims, c", [((1, 1), 3.0), ((1, 1, 1), -2.0), ((1, 1, 1, 1), 0.25)])
def test_solve_argmax_with_every_slot_of_dimension_one(dims, c):
    # no free variable to separate the one solution: the constant 1 does
    report = solve_argmax(MultilinearForm(dims=dims, coeffs=[c]))
    assert report.quotient_dim == 1 and report.genericity_flags == ()
    assert report.max_value == abs(c)
    (point,) = report.points
    assert point.value == c and point.residual == 0.0
    assert [v.tolist() for v in point.vectors] == [[1.0]] * len(dims)


def test_solve_argmax_orders_tied_points_by_vectors():
    # four critical points share |value| 2/sqrt(5) up to rounding; they
    # come out in the lexicographic order of their canonical vectors
    coeffs = np.zeros(8)
    coeffs[0], coeffs[7] = 1.0, 2.0
    report = solve_argmax(MultilinearForm(dims=(2, 2, 2), coeffs=coeffs))
    tied = [p for p in report.points
            if abs(abs(p.value) - 2 / np.sqrt(5)) <= 1e-12]
    assert len(tied) == 4
    signs = [tuple(int(np.sign(v[1])) for v in p.vectors) for p in tied]
    assert signs == [(-1, -1, 1), (-1, 1, -1), (1, -1, -1), (1, 1, 1)]


def test_solve_argmax_non_square_matches_svd():
    # no dimension precondition: a non-square matrix fails 2 n_i <= sum n_j,
    # yet its min(m, n) singular pairs, the class count, all lie on the chart
    rng = np.random.default_rng(4)
    forms = [MultilinearForm(dims=(4, 2), coeffs=np.arange(8, dtype=float) + 1)]
    forms += [random_form(rng, dims) for dims in [(3, 2), (2, 3), (4, 2), (5, 3)]]
    for form in forms:
        s1 = float(np.linalg.svd(form.tensor, compute_uv=False)[0])
        report = solve_argmax(form)
        assert report.quotient_dim == count_extreme_classes(form.dims) == min(form.dims)
        assert report.max_value == pytest.approx(s1, abs=1e-8)
        assert report.genericity_flags == ()
    # force is accepted and ignored
    assert solve_argmax(form, force=True).eigenvalues == report.eigenvalues


@pytest.mark.parametrize("dims, coeffs, quotient", [
    ((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 2], 5),  # the maximum 2 sits at x_1 = 0
    ((2, 2), [0, 0, 0, 1], 1),  # e2 (x) e2
    ((2, 2), [3, 0, 0, 2], 1),  # diag(3, 2)
], ids=["sparse-2x2x2", "e2xe2", "diag-3-2"])
def test_solve_argmax_flags_quotient_below_class_count(dims, coeffs, quotient):
    # a non-generic form whose critical points leave the x_1 = 1 chart: the
    # answer is flagged, never refused
    report = solve_argmax(MultilinearForm(dims=dims, coeffs=coeffs))
    classes = count_extreme_classes(dims)
    assert report.quotient_dim == quotient < classes
    assert report.genericity_flags[0] == (
        f"quotient dimension {quotient} differs from the extreme-class count "
        f"{classes}: non-generic form, critical points may be missing"
    )
    assert sum("extreme-class count" in f for f in report.genericity_flags) == 1


def test_solve_argmax_refuses_a_form_it_cannot_separate():
    # the diagonal 3x3x3 form: every multiplication matrix, of the first
    # free variable and of the random combinations after it, repeats an
    # eigenvalue; the algebraic closest rank-one form takes the sphere
    # chart after the refusal, and its distance is sqrt(3 + 1 - 2 * 1)
    form = MultilinearForm(*NON_GENERIC_FORMS["diagonal-3x3x3"])
    with pytest.raises(NotZeroDimensionalError, match="could not separate"):
        solve_argmax(form)
    approx = closest_rank_one(form, method="algebraic")
    assert approx.distance == pytest.approx(math.sqrt(2.0), rel=1e-12, abs=0.0)
    assert approx.flags[0].startswith("affine chart refused: could not separate")


def _integer_form(seed):
    return cli._random_integer_form((2, 2, 2), np.random.default_rng(seed))


@pytest.mark.parametrize("seed, scale, rel", [
    pytest.param(32, 1e-9, 1e-9, id="1e-9"),
    pytest.param(32, 2.0**-40, 1e-9, id="2^-40"),
    pytest.param(16, 2.0**-30, 4e-16, id="16-2^-30"),
    pytest.param(16, 2.0**-40, 4e-16, id="16-2^-40"),
    pytest.param(16, 2.0**-45, 4e-16, id="16-2^-45"),
])
def test_solve_max_judges_realness_at_the_forms_scale(seed, scale, rel):
    # seed 32: a complex critical value has real part 13.92, above the
    # maximum 10.81; an absolute realness tolerance read it as real once the
    # form was scaled down.  Seed 16: the 17-digit reprs of c 2^-j made a
    # perturbed system whose real eigenvalues reached 8797.5 (2^-30) and
    # 44.25 (2^-40) against 9.9756; the unit-scaled form reads c 2^-k exactly
    form = _integer_form(seed)
    want = solve_max(form).max_value
    got = solve_max(MultilinearForm(form.dims, form.coeffs * scale))
    assert got.max_value == pytest.approx(scale * want, rel=rel, abs=0.0)
    assert got.genericity_flags == ()


@pytest.mark.parametrize("scale", [0.1, 1e-9], ids=["0.1", "1e-9"])
def test_solve_max_drops_eigenvalues_no_point_reaches(scale):
    # neither scale is a power of two, so the decimal reprs perturb the
    # system.  The affine chart's points are proved, so solve_max lifts them
    # and answers 9.9755848121 times the scale, with points and no flag.
    # Forced to the sphere chart, it reads M_l, whose spurious real
    # eigenvalues (2354.3 and 4744.9 times the scale) lie above ||l||_F,
    # which bounds |l| on the spheres: they are dropped, with a flag
    form = _integer_form(16)
    small = MultilinearForm(form.dims, form.coeffs * scale)
    got = solve_max(small)
    assert got.max_value == pytest.approx(9.9755848121 * scale, rel=1e-10, abs=0.0)
    assert got.points and got.genericity_flags == ()
    assert got.max_value == pytest.approx(solve_argmax(small).max_value, rel=1e-12, abs=0.0)
    fallback = _matrix_path(small)
    assert fallback.quotient_dim == got.quotient_dim and fallback.points == ()
    assert fallback.max_value == pytest.approx(got.max_value, rel=1e-6, abs=0.0)
    assert any("above ||l||_F" in f for f in fallback.genericity_flags)


@pytest.mark.parametrize("seed, scale", [
    pytest.param(2, 2.0**-40, id="2^-40"),
    pytest.param(2, 2.0**-45, id="2^-45"),
    pytest.param(2, 1e-12, id="1e-12"),
    pytest.param(2, 2.0**-30, id="2-2^-30"),
    pytest.param(9, 2.0**-30, id="9-2^-30"),
    pytest.param(9, 2.0**-40, id="9-2^-40"),
    pytest.param(9, 2.0**-45, id="9-2^-45"),
])
def test_solve_argmax_scores_points_at_the_forms_scale(seed, scale):
    # seed 2: an absolute tie tolerance counted every value of the scaled
    # form as a tie, so the points came out in the order of their vectors
    # and the reported maximum was whichever came first (10.00 or 2.20, not
    # 10.77).  Seed 9: the 17-digit reprs of c 2^-j made a perturbed system
    # whose eigenvalues could not be separated.  A power of two scales the
    # unit-scaled form not at all, so the report is the unscaled one times it
    form = _integer_form(seed)
    want = solve_argmax(form)
    small = MultilinearForm(form.dims, form.coeffs * scale)
    got = solve_argmax(small)
    exact = math.frexp(scale)[0] == 0.5
    rel = 0.0 if exact else 1e-9
    assert got.max_value == pytest.approx(scale * want.max_value, rel=rel, abs=0.0)
    assert got.genericity_flags == want.genericity_flags == ()
    assert len(got.points) == len(want.points)
    for p, q in zip(got.points, want.points):
        assert p.value == pytest.approx(scale * q.value, rel=rel, abs=0.0)
        assert p.residual <= RESIDUAL_TOL * (scale + abs(p.value))
    for u, v in zip(got.points[0].vectors, want.points[0].vectors):
        assert sign_aligned_error(u, v) < 1e-9
    r1 = closest_rank_one(small, method="algebraic")
    assert r1.max_value == pytest.approx(scale * want.max_value, rel=1e-9, abs=0.0)
    for u, v in zip(r1.factors.factors, want.points[0].vectors):
        assert sign_aligned_error(u, v) < 1e-9


def test_quotient_dimension_matches_class_count():
    rng = np.random.default_rng(3)
    for dims in [(2, 2), (3, 3), (2, 2, 2)]:
        for _ in range(3):
            form = random_form(rng, dims)
            system = build_critical_system(form, chart="affine")
            gb = groebner(system)
            ns = normal_set(gb)
            assert len(ns) == count_extreme_classes(dims), (dims, form.coeffs)


def test_certificate_on_critical_system(trilinear_form):
    system = build_critical_system(trilinear_form, chart="affine")
    gb = groebner(system)
    assert verify_buchberger_certificate(gb)


# ---------------------------------------------------------------------------
# the zero test mod p and its exact certificate
# ---------------------------------------------------------------------------

def _all_pairs_certificate(gb):
    """Reference: every S-polynomial of the basis, no pair pruned, reduces
    to zero."""
    mono = _Monomials(len(gb.variables))
    records = [_reducer(_to_integer_primitive(p.terms, mono), mono) for p in gb.basis]
    reducers = sorted(records, key=lambda r: r[1])
    budget = _Budget(10**7)
    for f, g in itertools.combinations(records, 2):
        s = _spoly(f, g, mono.lcm(f[1], g[1]))
        if _normal_form(s, reducers, mono, budget):
            return False
    return True


def _certificate_bases():
    """Reduced bases of small systems, each also with one element dropped
    and with one tail coefficient changed."""
    rng = np.random.default_rng(11)
    v = ("x", "y", "z")
    monomials = _all_monomials(3, 2)
    bases = []
    for k in range(40):
        if k % 2:
            dims = [(2, 2), (2, 3), (2, 2, 2)][k % 3]
            system = build_critical_system(random_form(rng, dims), chart="affine")
        else:
            coeffs = rng.integers(-3, 4, size=(3, len(monomials)))
            polys = [_poly(v, {m: int(c) for m, c in zip(monomials, row)}) for row in coeffs]
            system = _system(v, [p for p in polys if not p.is_zero()])
        gb = groebner(system)
        bases.append(gb)
        if len(gb.basis) > 1:
            drop = int(rng.integers(len(gb.basis)))
            bases.append(GroebnerBasis(gb.basis[:drop] + gb.basis[drop + 1:], gb.variables))
        tailed = [i for i, p in enumerate(gb.basis) if len(p.terms) > 1]
        if tailed:
            i = tailed[int(rng.integers(len(tailed)))]
            p = gb.basis[i]
            m = sorted(p.terms, key=grevlex_key)[int(rng.integers(len(p.terms) - 1))]
            changed = _poly(p.variables, {**p.terms, m: p.terms[m] + 1})
            bases.append(GroebnerBasis(gb.basis[:i] + (changed,) + gb.basis[i + 1:], gb.variables))
    return bases


def test_certificate_agrees_with_all_pairs_reference():
    bases = _certificate_bases()
    verdicts = [verify_buchberger_certificate(gb) for gb in bases]
    assert verdicts == [_all_pairs_certificate(gb) for gb in bases]
    assert len(bases) >= 100
    assert 20 <= verdicts.count(False) <= len(bases) - 20


def _terms(gb):
    """Every basis element's terms, in dict order."""
    return [list(p.terms.items()) for p in gb.basis]


def _exact(system):
    """The basis with the zero test never started."""
    with mock.patch.object(algsolver, "_ZERO_TEST_BITS", math.inf):
        return groebner(system)


def _recording(name="_certify"):
    """The verdicts of algsolver.<name> (by default the certificate), and
    the patch that records them."""
    verdicts = []
    check = getattr(algsolver, name)

    def record(*args):
        verdicts.append(check(*args))
        return verdicts[-1]

    return verdicts, mock.patch.object(algsolver, name, record)


def test_false_zero_is_caught_by_the_certificate(quadlinear_form):
    # the zero test, started at once, reports the first S-pair that does
    # not vanish mod p as zero: the certificate rejects the basis and the
    # skipped pairs are reduced exactly
    system = build_critical_system(quadlinear_form, chart="affine")
    reference = _exact(system)
    vanishes = algsolver._Engine._vanishes_mod_p
    lied = []

    def lie_once(self, l, i, j):
        if vanishes(self, l, i, j):
            return True
        lied.append((l, i, j))
        return len(lied) == 1

    verdicts, recording = _recording()
    with recording, mock.patch.object(algsolver, "_ZERO_TEST_BITS", 0), \
            mock.patch.object(algsolver._Engine, "_vanishes_mod_p", lie_once):
        gb = groebner(system)
    assert verdicts == [False]
    assert _terms(gb) == _terms(reference)


def _separability_rank4():
    g = np.random.default_rng(4).standard_normal((4, 4))
    rho = g @ g.T
    return _separability_form(DensityState(2, 2, Matrix.from_array(rho / np.trace(rho))))


# forms whose basis coefficients pass the zero test's line, with their chart
_HEAVY = {
    "2x3x3-affine": (random_form(np.random.default_rng(1), (2, 3, 3)), "affine"),
    "2x2x2x2-affine": (random_form(np.random.default_rng(2), (2, 2, 2, 2)), "affine"),
    "2x2x3-sphere": (random_form(np.random.default_rng(2), (2, 2, 3)), "sphere"),
    "separability-rank4": (_separability_rank4(), "affine"),
}


@functools.cache
def _heavy_basis(name):
    form, chart = _HEAVY[name]
    return groebner(build_critical_system(form, chart=chart))


# the budget each heavy run spends, zero test and certificate included
_HEAVY_BUDGET = {"2x3x3-affine": 3332, "2x2x2x2-affine": 2297, "2x2x3-sphere": 8978,
                 "separability-rank4": 1214}


def _recording_budgets():
    budgets = []

    class Recording(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    return budgets, mock.patch.object(algsolver, "_Budget", Recording)


@pytest.mark.parametrize("form, chart, used",
                         [(*_HEAVY[k], _HEAVY_BUDGET[k]) for k in _HEAVY], ids=list(_HEAVY))
def test_zero_test_leaves_heavy_bases_unchanged(form, chart, used):
    # forms whose basis coefficients pass the line: pairs are skipped, the
    # certificate passes, and the basis is the exact run's, term for term;
    # a zero test that calls true zeros nonzero returns the same basis too,
    # so the budget it spends is pinned
    system = build_critical_system(form, chart=chart)
    verdicts, recording = _recording()
    budgets, recording_budgets = _recording_budgets()
    with recording, recording_budgets:
        gb = groebner(system)
    assert verdicts == [True]
    assert budgets[0].used == used
    assert _terms(gb) == _terms(_exact(system))


# the budget each heavy run spends when it stops at the generic quotient
# dimension: the mod-p tests of the pairs left then are not run.  The runs
# stop at the count whether or not a pair was skipped; on the affine chart
# their points prove the basis, so no certificate runs, and on the sphere
# chart the certificate does
_HEAVY_STOP_BUDGET = {"2x3x3-affine": 776, "2x2x2x2-affine": 893, "2x2x3-sphere": 2884,
                      "separability-rank4": 455}


def _generic_dim(form, chart):
    """The quotient dimension of a generic form's critical system: the class
    count, times 2^r on the sphere chart."""
    return count_extreme_classes(form.dims) << (form.order if chart == "sphere" else 0)


@pytest.mark.parametrize("name", list(_HEAVY))
def test_stop_at_the_generic_quotient_dim_leaves_heavy_bases_unchanged(name):
    # _quotient passes the generic dimension to groebner, whose run stops
    # once the live leading monomials leave that many standard monomials:
    # on the affine chart the point proof passes (the certificate never
    # runs), on the sphere chart no point proof runs and the certificate
    # passes; the basis is the full run's, term for term, and the budget
    # falls to its pin
    form, chart = _HEAVY[name]
    verdicts, recording = _recording()
    proofs, recording_proofs = _recording("_prove_points")
    budgets, recording_budgets = _recording_budgets()
    with recording, recording_proofs, recording_budgets:
        _, gb, ns, dim, _, _ = algsolver._quotient(form, chart,
                                                   algsolver.DEFAULT_REDUCTION_BUDGET)
    assert dim == len(ns) == _generic_dim(form, chart)
    assert (proofs, verdicts) == (([True], []) if chart == "affine" else ([], [True]))
    assert budgets[0].used == _HEAVY_STOP_BUDGET[name] < _HEAVY_BUDGET[name]
    assert _terms(gb) == _terms(_heavy_basis(name))


@pytest.mark.parametrize("name", list(_HEAVY))
def test_kept_standard_set_is_the_fresh_walks(name):
    # a run given the count walks the staircase once every variable has a
    # pure power among its leading monomials, keeps the set once a walk ends
    # within twice the generic dimension, and then filters it by each new
    # leading monomial: at every count the kept set is what a fresh walk of
    # the live leading monomials finds, and these runs walk once
    form, chart = _HEAVY[name]
    meets_count = algsolver._Engine._meets_count
    standard_monomials = algsolver._standard_monomials
    kept, walks = [], []

    def checked(self):
        out = meets_count(self)
        if self.standard is not None:
            _, fresh = standard_monomials(self.reducers, self.mono)
            kept.append(sorted(self.standard) == sorted(fresh))
        return out

    def walk(records, mono, cap=math.inf):
        walks.append(cap)
        return standard_monomials(records, mono, cap)

    with mock.patch.object(algsolver._Engine, "_meets_count", checked), \
            mock.patch.object(algsolver, "_standard_monomials", walk):
        algsolver._quotient(form, chart, algsolver.DEFAULT_REDUCTION_BUDGET)
    assert kept and all(kept)
    assert [cap for cap in walks if cap < math.inf] == [2 * _generic_dim(form, chart)]


def test_stop_at_a_count_passed_early_fails_the_certificate_and_resumes():
    # the count of standard monomials falls through 71 ... 65 to 64 on
    # this run; told 71, the run stops before its basis is complete, the
    # certificate fails once, and the resumed run returns the exact basis
    form, chart = _HEAVY["2x2x3-sphere"]
    assert _generic_dim(form, chart) == 64
    verdicts, recording_certificate = _recording()
    with recording_certificate:
        gb = groebner(build_critical_system(form, chart=chart), quotient_dim=71)
    assert verdicts == [False]
    assert _terms(gb) == _terms(_heavy_basis("2x2x3-sphere"))


# ---------------------------------------------------------------------------
# the point proof
# ---------------------------------------------------------------------------

def _fallback_run(form, chart="affine"):
    """The _quotient of ``form`` on ``chart``, the verdicts groebner() took
    from the point proof (an exception in it reads False) and the
    certificate's."""
    proofs, recording_proofs = _recording("_proves")
    verdicts, recording = _recording()
    with recording_proofs, recording:
        out = algsolver._quotient(form, chart, algsolver.DEFAULT_REDUCTION_BUDGET)
    return out, proofs, verdicts


def test_point_proof_falls_back_on_a_form_that_meets_the_count_early():
    # a sparse 2x2x3 form with 7 solutions on the chart against 8 classes:
    # its run leaves 8 standard monomials before its basis is complete, so
    # its points cannot be boxed, the certificate fails and the resumed run
    # returns the full run's basis, whose 7 points then prove nothing
    form = MultilinearForm((2, 2, 3), [2, -2, 1, 0, 0, 0, 0, 0, 1, 1, 1, -1])
    (system, gb, ns, classes, _, solutions), proofs, verdicts = _fallback_run(form)
    assert (proofs, verdicts) == ([False, False], [False])
    assert solutions[3] is None
    assert len(ns) == 7 < classes == 8
    assert _terms(gb) == _terms(_exact(system))
    assert solve_argmax(form).quotient_dim == 7


def _damaging_interreduce(damage):
    """_Engine._interreduce whose first result goes through ``damage``."""
    interreduce = algsolver._Engine._interreduce
    calls = []

    def damaged(self):
        out = interreduce(self)
        calls.append(len(calls))
        return damage(out) if len(calls) == 1 else out

    return mock.patch.object(algsolver._Engine, "_interreduce", damaged)


def _drop_middle(records):
    return records[:len(records) // 2] + records[len(records) // 2 + 1:]


def _shift_largest_tail_term(records):
    probe, lm, lc, tail = records[len(records) // 2]
    m = max(tail)
    changed = (probe, lm, lc, {**tail, m: tail[m] + lc})  # monic coefficient + 1
    return records[:len(records) // 2] + [changed] + records[len(records) // 2 + 1:]


@pytest.mark.parametrize("damage", [_drop_middle, _shift_largest_tail_term],
                         ids=["drop", "tail"])
@pytest.mark.parametrize("name", ["2x3x3-affine", "separability-rank4"])
def test_point_proof_rejects_damaged_candidates(name, damage):
    # mutation check: a candidate basis with one element dropped, or one
    # tail coefficient moved, is not proved by its points; the certificate
    # rejects it too, and the resumed run returns the exact basis, whose
    # points are then proved
    form, _ = _HEAVY[name]
    with _damaging_interreduce(damage):
        (_, gb, ns, classes, _, solutions), proofs, verdicts = _fallback_run(form)
    assert (proofs, verdicts) == ([False, True], [False])
    assert solutions[3].shape[1] == classes
    assert len(ns) == classes
    assert _terms(gb) == _terms(_heavy_basis(name))


@pytest.mark.parametrize("damage", [_drop_middle, _shift_largest_tail_term],
                         ids=["drop", "tail"])
def test_sphere_point_proof_rejects_damaged_candidates(damage):
    # the same mutation check for solve_max, whose sphere points are the
    # affine chart's proved points lifted: the damaged candidate's points
    # are not proved, the certificate rejects it, the resumed run's points
    # are proved, and the report is the undamaged one, bit for bit
    form, _ = _HEAVY["2x2x3-sphere"]
    want = solve_max(form)
    proofs, recording_proofs = _recording("_proves")
    verdicts, recording = _recording()
    with _damaging_interreduce(damage), recording_proofs, recording:
        got = solve_max(form)
    assert (proofs, verdicts) == ([False, True], [False])
    assert got.quotient_dim == _generic_dim(form, "sphere") and got.points
    assert _report_bits(got) == _report_bits(want)


def _report_bits(report):
    """A report's answer, every float as its bytes."""
    return (report.quotient_dim, report.eigenvalues, report.max_value.hex(),
            [(p.value, [v.tobytes() for v in p.vectors]) for p in report.points],
            report.genericity_flags)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3), (4, 4), (2, 2, 3)],
                         ids=["2x2x2", "3x3", "4x4", "2x2x3"])
def test_sphere_bases_are_proved_by_their_points(dims):
    # the shapes solve_max's benchmark runs, through the charts (solve_max
    # sends a matrix the Gram kernel certifies to it first, see
    # test_gram_kernel_answers_without_a_groebner_basis): the affine points
    # prove the affine basis, the certificate never runs and no
    # sphere-chart system is built; the lifts and their 2^r sign images are
    # zeros of the sphere chart's system, 2^r D of them, the dimension of
    # its quotient
    form = cli._random_integer_form(dims, np.random.default_rng(5))
    proofs, recording_proofs = _recording("_prove_points")
    verdicts, recording = _recording()
    charts = []

    def build(form, chart="sphere", **kwargs):
        charts.append(chart)
        return build_critical_system(form, chart, **kwargs)

    with recording_proofs, recording, mock.patch.object(algsolver, "build_critical_system", build):
        report = algsolver._charted_max(form)
    assert (proofs, verdicts, charts) == ([True], [], ["affine"])
    system = build_critical_system(form, chart="sphere")
    assert report.quotient_dim == len(normal_set(groebner(system))) == _generic_dim(form, "sphere")
    affine_system, _, _, _, _, (_, _, _, coords) = algsolver._quotient(
        form, "affine", algsolver.DEFAULT_REDUCTION_BUDGET)
    blocks = [coords[list(svars)] for svars in affine_system.slot_vars]
    lifts = [b / np.sqrt((b * b).sum(axis=0)) for b in blocks]
    for signs in itertools.product((1, -1), repeat=form.order):
        point = np.concatenate([s * b for s, b in zip(signs, lifts)])
        bound = 1e-12 * np.abs(form.coeffs).max() * max(1.0, np.abs(point).max()) ** form.order
        for p in system.polys:
            value = sum(complex(c) * np.prod([point[v] ** e for v, e in enumerate(m) if e], axis=0)
                        for m, c in p.terms.items())
            assert np.abs(value).max() <= bound


def _matrix_path(form):
    """The charts' report (solve_max's but for the Gram kernel) when its
    points prove nothing: the certificate proves the basis, and the report
    reads the multiplication matrix."""
    with mock.patch.object(algsolver, "_prove_points", lambda *args: False):
        return algsolver._charted_max(form)


def _matrix_reference(form):
    """The eigenvalues, by decreasing |.|, and the maximum of solve_max's
    multiplication-matrix rule, from a fresh ring of the full run's basis:
    the real eigenvalues within ||l||_F (1 + 1e-9), read at the form's
    unit scale."""
    unit, k = multiform._scaled(form)
    gb = groebner(build_critical_system(unit))
    m = mult_matrix(form_polynomial(unit), gb, normal_set(gb)).array
    eig = np.linalg.eigvals(np.ldexp(m, k))
    scale, norm = math.ldexp(1.0, k), math.ldexp(multiform.form_norm(unit), k)
    real = [abs(x.real) for x in eig if abs(x.imag) <= algsolver.REALNESS_TOL * (scale + abs(x))]
    top = max(v for v in real if v <= norm * (1 + 1e-9))
    return tuple(complex(eig[i]) for i in np.argsort(-np.abs(eig))), top


@pytest.mark.parametrize("form", [
    *(pytest.param(cli._random_integer_form(dims, np.random.default_rng(5)),
                   id="x".join(map(str, dims)))
      for dims in [(2, 2), (3, 3), (4, 4), (2, 2, 2), (2, 2, 3)]),
    # coefficients in -2..2: the sphere chart's own basis of a -9..9 form
    # takes 5-20 s on these shapes
    pytest.param(random_form(np.random.default_rng(4), (2, 2, 4), -2, 2), id="2x2x4"),
    pytest.param(random_form(np.random.default_rng(1), (2, 2, 2, 2), -2, 2), id="2x2x2x2"),
])
def test_proved_sphere_report_reads_l_at_its_points(form):
    # proved affine points are every critical class, so solve_max lifts
    # them to the spheres and reads l there in place of the eigenvalues of
    # M_l: the same multiset, within 1e-12 of the largest, as M_l on the
    # sphere chart's own basis, with the same quotient; a maximum within
    # 1e-14 of the affine chart's (of the top singular value on a matrix);
    # and the real lifts as points
    unit, k = multiform._scaled(form)
    _, _, ns, _, _, ring = algsolver._quotient(unit, "sphere", algsolver.DEFAULT_REDUCTION_BUDGET)
    m = algsolver._float_matrix(ring.mult_matrix_exact(form_polynomial(unit)), len(ns))
    rest = list(np.linalg.eigvals(np.ldexp(m, k)))
    report = solve_max(form)
    assert report.quotient_dim == len(ns) == _generic_dim(form, "sphere")
    scale = max(map(abs, rest))
    for value in report.eigenvalues:
        nearest = min(range(len(rest)), key=lambda i: abs(rest[i] - value))
        assert abs(rest.pop(nearest) - value) <= 1e-12 * scale
    magnitudes = np.abs(report.eigenvalues)
    assert np.all(magnitudes[:-1] >= magnitudes[1:])
    # l at the slot-normalized points: the 2^r sign images of the best
    # point read its value within 1e-14
    top = report.max_value
    assert np.sum(np.abs(magnitudes - top) <= 1e-14 * top) == 2 ** form.order
    affine = solve_argmax(form)
    want = (np.linalg.svd(form.tensor, compute_uv=False)[0] if form.order == 2
            else affine.max_value)
    assert report.max_value == pytest.approx(want, rel=1e-14, abs=0.0)
    assert len(report.points) == len(affine.points) > 0
    assert abs(report.points[0].value) == report.max_value
    for p in report.points:
        assert p.residual <= RESIDUAL_TOL
    assert report.genericity_flags == ()


@pytest.mark.parametrize("form", [
    *(pytest.param(cli._random_integer_form(dims, np.random.default_rng(5)),
                   id="x".join(map(str, dims)))
      for dims in [(2, 2, 2), (3, 3), (4, 4), (2, 2, 3)]),
    *(pytest.param(MultilinearForm((2, 2, 2), _integer_form(16).coeffs * scale),
                   id=f"16-{scale}")
      for scale in (0.1, 1e-9)),
])
def test_unproved_sphere_report_reads_the_multiplication_matrix(form):
    # with no point proof (patched to fail; the decimal-perturbed
    # default_rng(16) forms' sphere systems carry spurious real eigenvalues)
    # the report is the sphere chart's multiplication matrix's: its
    # eigenvalues bit for bit, its maximum, and no points
    report = _matrix_path(form)
    eigenvalues, top = _matrix_reference(form)
    assert report.eigenvalues == eigenvalues
    assert report.max_value == top
    assert report.points == ()


def test_point_proof_boxes_solutions_far_out_on_the_chart():
    # one of this form's 24 solutions lies so far out on the affine chart
    # that the constant coordinate of its eigenvector is below 1e-8 of the
    # eigenvector's norm: the report leaves it unscored, with a flag, but
    # the proof boxes all 24, so the certificate never runs, and the report
    # is the one the certificate's path gives, bit for bit
    form = cli._random_integer_form((2, 2, 2, 2), np.random.default_rng(522))
    proofs, recording_proofs = _recording("_prove_points")
    verdicts, recording = _recording()
    with recording_proofs, recording:
        report = solve_argmax(form)
    assert (proofs, verdicts) == ([True], [])
    assert report.quotient_dim == 24
    assert report.genericity_flags == (
        "eigenvectors with near-zero constant coordinate skipped: 1",)
    with mock.patch.object(algsolver, "_proves", lambda proof, gb: False):
        certified = solve_argmax(form)
    assert report.eigenvalues == certified.eigenvalues
    assert report.max_value == certified.max_value
    assert len(report.points) == len(certified.points) > 0
    for p, q in zip(report.points, certified.points):
        assert (p.value, p.residual) == (q.value, q.residual)
        assert all(u.tobytes() == v.tobytes() for u, v in zip(p.vectors, q.vectors))


@pytest.mark.parametrize("form, count, top", [
    # the affine chart cannot separate its solutions, so nothing is lifted
    # and the sphere chart reads M_l: its value comes with the best ascent
    pytest.param(MultilinearForm((2, 2, 2), _integer_form(9).coeffs * 1e-9), 1,
                 11.31196502654238e-9, id="refused"),
    # the affine chart misses classes, so nothing is lifted: the value 2
    # comes with one point, the best ascent's, of value 2 (the affine
    # chart's best point has value 1)
    pytest.param(MultilinearForm(*NON_GENERIC_FORMS["sparse-2x2x2"]), 1, 2.0,
                 id="sparse-2x2x2"),
    # one affine eigenvector is left unscored, so the affine report does not
    # answer, but its points are proved: solve_max's lifts are the points
    pytest.param(cli._random_integer_form((2, 2, 2, 2), np.random.default_rng(522)), 8,
                 16.400611783894952, id="lifted"),
])
def test_sphere_fallback_reports_its_own_points_else_the_best_ascent(form, count, top):
    chart, report = algsolver._exact_max(form, seed=0)
    sphere = solve_max(form)
    assert chart == "sphere" and report.max_value == sphere.max_value
    assert len(report.points) == count
    assert abs(report.points[0].value) == pytest.approx(top, rel=1e-12, abs=0.0)
    if sphere.points:
        assert _report_bits(report)[3] == _report_bits(sphere)[3]
        assert abs(report.points[0].value) == report.max_value


def test_point_proof_is_taken_by_every_exact_solver(quadlinear_form):
    # solve_argmax, _exact_max, the apps and solve_max reach the affine
    # chart through _quotient, so each takes the point proof
    for call in (solve_argmax, functools.partial(algsolver._exact_max, seed=0),
                 functools.partial(closest_rank_one, method="algebraic")):
        proofs, recording_proofs = _recording("_proves")
        verdicts, recording = _recording()
        with recording_proofs, recording:
            call(quadlinear_form)
        assert (proofs, verdicts) == ([True], [])
    matrix = MultilinearForm((2, 2), [3.0, 1.0, -2.0, 4.0])
    proofs, recording_proofs = _recording("_proves")
    verdicts, recording = _recording()
    with recording_proofs, recording:
        algsolver._charted_max(matrix)
    assert (proofs, verdicts) == ([True], [])
    # solve_max answers that matrix from the Gram kernel: no chart, no proof
    proofs, recording_proofs = _recording("_proves")
    with recording_proofs:
        assert solve_max(matrix).quotient_dim == 8
    assert proofs == []


def test_point_proof_needs_one_point_per_class(trilinear_form):
    # the proof counts: the normal set, the class count and the solutions
    # must agree, so one point short, or one class more, proves nothing
    system, _, ns, classes, _, (_, _, _, coords) = algsolver._quotient(
        trilinear_form, "affine", algsolver.DEFAULT_REDUCTION_BUDGET)
    prove = functools.partial(algsolver._prove_points,
                              form_polynomial(trilinear_form).terms, system)
    assert prove(coords, len(ns), classes)
    assert not prove(coords[:, 1:], len(ns), classes)
    assert not prove(coords, len(ns) + 1, classes)
    assert not prove(coords, len(ns), classes + 1)


@pytest.mark.parametrize("points, proved", [
    ([1.0001, -0.9999, 2e-4], True),   # near the three zeros
    ([1.0, 1.0 + 1e-9, -1.0], False),  # two boxes around one zero
    ([10.0, -10.0], False),            # far from every zero, boxes disjoint
])
def test_krawczyk_boxes_distinct_zeros_only(points, proved):
    # x^3 - x has the zeros -1, 0, 1.  From 10 and -10 one Newton step
    # leaves boxes of radius about 4.4 around +-6.69, far apart but with no
    # zero inside: only the contraction test refuses them; the near-equal
    # pair passes it, and only the disjointness test refuses it
    polys = [{(3,): Fraction(1), (1,): Fraction(-1)}]
    f = algsolver._Discs(polys, 1)
    jac = algsolver._Discs(algsolver._jacobian(polys, 1), 1)
    x = np.array([points], dtype=complex)
    assert algsolver._krawczyk(f, jac, x) is proved


def test_krawczyk_refuses_a_box_whose_norm_disc_holds_zero():
    # x^2 - x has the zeros 0 and 1, and Krawczyk's test boxes both.  Kept
    # off the zeros of x.x = x^2, the box around 0 is refused, as its disc
    # of x^2 holds 0, and the box beside it, around 1, passes; the affine
    # chart's 1 + x^2 is off zero over both
    polys = [{(2,): Fraction(1), (1,): Fraction(-1)}]
    f = algsolver._Discs(polys, 1)
    jac = algsolver._Discs(algsolver._jacobian(polys, 1), 1)
    norm = algsolver._Discs([{(2,): Fraction(1)}], 1)
    chart_norm = algsolver._Discs([{(0,): Fraction(1), (2,): Fraction(1)}], 1)
    both = np.array([[1e-3, 1.0001]], dtype=complex)
    assert algsolver._krawczyk(f, jac, both)
    assert not algsolver._krawczyk(f, jac, both, norm)
    assert not algsolver._krawczyk(f, jac, both[:, :1], norm)
    assert algsolver._krawczyk(f, jac, both[:, 1:], norm)
    assert algsolver._krawczyk(f, jac, both, chart_norm)


def test_sphere_point_proof_refuses_boxes_on_a_first_coordinate_zero():
    # diag(3, 1) has its critical classes at (e1, e1) and (e2, e2): the
    # second has x1 = y1 = 0, off the affine chart, which holds one point
    # against two classes, so the proof refuses it and nothing is lifted;
    # the sphere chart finds all 8 points.  (solve_max answers it from the
    # Gram kernel, with both points: test_gram_kernel_gives_diag_3_1_both_points)
    form = MultilinearForm((2, 2), [3.0, 0.0, 0.0, 1.0])
    proofs, recording_proofs = _recording("_prove_points")
    with recording_proofs:
        report = algsolver._charted_max(form)
    assert proofs == [False]
    assert report.quotient_dim == 8 and report.points == ()
    assert report.max_value == pytest.approx(3.0, rel=1e-14, abs=0.0)


def test_affine_proof_refuses_isotropic_points():
    # default_rng(1)'s 2x2x2x2 form has all 24 classes on the affine chart,
    # but some with x_s.x_s = 0 (|x_s.x_s| about 4e-14 at their computed
    # points): no sphere point lies over them.  Krawczyk's boxes hold them
    # and are disjoint, but their x_s.x_s discs hold 0, so the proof is
    # refused, nothing is lifted, and the sphere chart's quotient is 352 of
    # the generic 384
    form = cli._random_integer_form((2, 2, 2, 2), np.random.default_rng(1))
    calls = []
    krawczyk = algsolver._krawczyk

    def recording(*args):
        calls.append((args, krawczyk(*args)))
        return calls[-1][1]

    with mock.patch.object(algsolver, "_krawczyk", recording):
        report = solve_max(form)
    ((f, jac, x, nonzero), proved), = calls
    assert not proved and krawczyk(f, jac, x)
    assert report.quotient_dim == 352 < 384 and report.points == ()


def _dyadic(k):
    """Rationals n 2^-k, |n| < 2^12."""
    return st.integers(-2**12 + 1, 2**12 - 1).map(lambda n: Fraction(n, 2**k))


_decimal12 = st.integers(-10**12 + 1, 10**12 - 1).map(lambda n: Fraction(n, 10**12))


def _disc_case(coeff):
    """(polys, center, radius, a point inside as unit-disc offsets): up to
    3 polys in 2 or 3 variables of degree <= 3, exponents <= 2."""
    return st.integers(2, 3).flatmap(lambda n: st.tuples(
        st.lists(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 3),
            coeff, min_size=1, max_size=6), min_size=1, max_size=3),
        st.lists(st.tuples(_dyadic(6), _dyadic(6)), min_size=n, max_size=n),
        st.sampled_from([0.0, 2.0**-20, 1e-6, 0.125]),
        st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=n, max_size=n),
    ))


def _exact_value(poly, point):
    """p(point) exactly, complex numbers as (re, im) Fraction pairs."""
    re = im = Fraction(0)
    for e, c in poly.items():
        mr, mi = c, Fraction(0)
        for (xr, xi), k in zip(point, e):
            for _ in range(k):
                mr, mi = mr * xr - mi * xi, mr * xi + mi * xr
        re, im = re + mr, im + mi
    return re, im


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_disc_case(_dyadic(10)), _disc_case(_decimal12)))
def test_discs_hold_the_exact_values_over_the_polydisc(case):
    # the discs of F at a center (radius 0) and of F and its Jacobian over
    # a polydisc hold the exact rational values at rational points inside
    polys, center, rho, offsets = case
    n = len(center)
    x = np.array([[complex(float(a), float(b))] for a, b in center])
    scale = Fraction(rho) / 8 / 2  # |offset| <= 8 sqrt 2 < 16 per coordinate
    point = [(a + p * scale, b + q * scale) for (a, b), (p, q) in zip(center, offsets)]
    assert all((p * scale) ** 2 + (q * scale) ** 2 <= Fraction(rho) ** 2 for p, q in offsets)
    for table in (polys, algsolver._jacobian(polys, n)):
        discs = algsolver._Discs(table, n)
        assert discs.sound
        for at, r in ((center, 0.0), (point, rho)):
            mid, radius = discs.discs(x, np.array([r]))
            for p, m, rad in zip(table, mid[:, 0], radius[:, 0]):
                vr, vi = _exact_value(p, at)
                dr, di = vr - Fraction(m.real), vi - Fraction(m.imag)
                assert dr * dr + di * di <= Fraction(rad) ** 2


def _quadratic_new_pairs(lmh, others, mono):
    """Reference: the Gebauer-Moeller filter of the new pairs that tests
    every candidate lcm against every other one."""
    guard = mono.guard
    cand = [(mono.lcm(lmh, lm), g, lm) for g, lm in others]
    kept = []
    for pos, (l, g, lm) in enumerate(cand):
        if l == lmh + lm:
            continue
        top = l - guard - 1
        if not any(not (top - l2) & guard and (l2 != l or pos2 < pos)
                   for pos2, (l2, _, _) in enumerate(cand) if pos2 != pos):
            kept.append((l, g))
    return kept


def test_lcm_ordered_pair_filter_keeps_the_quadratic_rules_pairs_on_heavy_runs():
    new_pairs = algsolver._new_pairs
    calls = []

    def compared(lmh, others, mono):
        kept = new_pairs(lmh, others, mono)
        calls.append(kept == _quadratic_new_pairs(lmh, others, mono))
        return kept

    with mock.patch.object(algsolver, "_new_pairs", compared):
        for form, chart in _HEAVY.values():
            groebner(build_critical_system(form, chart=chart))
    assert len(calls) > 100 and all(calls)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(0, 3)] * n),
    st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=12, unique=True),
)))
def test_lcm_ordered_pair_filter_keeps_the_quadratic_rules_pairs(case):
    # small exponents, so that lcms often tie and divide one another
    h, lms = case
    mono = _Monomials(len(h))
    others = [(g, mono.pack(m)) for g, m in enumerate(lms)]
    lmh = mono.pack(h)
    assert algsolver._new_pairs(lmh, others, mono) == _quadratic_new_pairs(lmh, others, mono)


@pytest.mark.parametrize("name", list(_HEAVY))
def test_heavy_bases_are_reduced(name):
    # the ascending interreduction leaves every element monic and no tail
    # term divisible by any leading monomial
    gb = _heavy_basis(name)
    lms = [max(p.terms, key=grevlex_key) for p in gb.basis]
    for p, lm in zip(gb.basis, lms):
        assert p.terms[lm] == 1
        assert not any(_divides(q, m) for m in p.terms if m != lm for q in lms)


def test_certificate_rejects_damaged_heavy_bases():
    # heavy negative controls: a heavy reduced basis with one element
    # dropped, and with 1 added to one tail coefficient, is no Groebner
    # basis; the certificate by linearity says so, like the term-wise
    # reference
    for name in ("2x3x3-affine", "separability-rank4"):
        gb = _heavy_basis(name)
        i = len(gb.basis) // 2
        p = gb.basis[i]
        m = sorted(p.terms, key=grevlex_key)[-2]  # the largest tail term
        changed = _poly(p.variables, {**p.terms, m: p.terms[m] + 1})
        for damaged in (gb.basis[:i] + gb.basis[i + 1:],
                        gb.basis[:i] + (changed,) + gb.basis[i + 1:]):
            bad = GroebnerBasis(damaged, gb.variables)
            assert verify_buchberger_certificate(bad) is False
            assert _all_pairs_certificate(bad) is False


def test_separability_basis_coefficient_bits_are_pinned():
    # the separability form's coefficients share one 12-digit decimal grid,
    # so its reduced basis stays at most 2,136 bits wide (numerators and
    # denominators); rounded in binary, with 17-digit reprs, it was 2,753
    gb = groebner(build_critical_system(_separability_rank4(), chart="affine"))
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for p in gb.basis for c in p.terms.values())
    assert bits <= 2136


def test_budget_covers_the_zero_test(quadlinear_form):
    # a heavy form's run, zero test and certificate included, spends its
    # whole budget; one step less raises
    system = build_critical_system(quadlinear_form, chart="affine")
    budgets = []

    class Recording(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    with mock.patch.object(algsolver, "_Budget", Recording):
        groebner(system)
    used = budgets[0].used
    groebner(system, budget=used)
    with pytest.raises(BudgetExceededError):
        groebner(system, budget=used - 1)


_small_forms = st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)]).flatmap(
    lambda dims: st.tuples(
        st.just(dims),
        st.lists(st.integers(-4, 4), min_size=math.prod(dims), max_size=math.prod(dims))
        .filter(any),
        st.sampled_from(["affine", "sphere"]),
    )
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_small_forms)
def test_zero_test_on_every_pair_matches_exact_run(case):
    # with the line at 0 every S-pair goes through the mod-p test first
    dims, coeffs, chart = case
    system = build_critical_system(MultilinearForm(dims=dims, coeffs=coeffs), chart=chart)
    with mock.patch.object(algsolver, "_ZERO_TEST_BITS", 0):
        gb = groebner(system)
    assert _terms(gb) == _terms(_exact(system))


def test_zero_test_with_a_small_prime_matches_exact_run():
    # with p = 2 or 5 and the line at 0, leading coefficients vanish mod p
    # (the pair goes to exact reduction) and false zeros fail the
    # certificate (the run resumes): every basis is still the exact run's
    rng = np.random.default_rng(5)
    forms = [random_form(rng, dims, -4, 4) for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2)] * 2]
    systems = [build_critical_system(f, chart=c) for f in forms for c in ("affine", "sphere")]
    reference = [_terms(_exact(system)) for system in systems]
    image = algsolver._Engine._image
    vanished = []

    def recording_image(self, i):
        out = image(self, i)
        vanished.append(out is None)
        return out

    verdicts, recording = _recording()
    for prime in (2, 5):
        with recording, mock.patch.object(algsolver, "_PRIME", prime), \
                mock.patch.object(algsolver, "_ZERO_TEST_BITS", 0), \
                mock.patch.object(algsolver._Engine, "_image", recording_image):
            bases = [groebner(system) for system in systems]
        assert [_terms(gb) for gb in bases] == reference
    assert any(vanished)
    assert False in verdicts


# ---------------------------------------------------------------------------
# the Gram kernel: bilinear forms without a Groebner basis
# ---------------------------------------------------------------------------

def _det(m):
    """Exact determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(c) for c in row] for row in m]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


def test_berkowitz_is_the_characteristic_polynomial():
    # det(mu I - a) at n + 1 integer points fixes the degree-n polynomial
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        for _ in range(5):
            a = rng.integers(-9, 10, size=(n, n)).tolist()
            p = intpoly.berkowitz(a)
            assert len(p) == n + 1 and p[0] == 1
            for mu in range(n + 1):
                shifted = [[mu * (i == j) - a[i][j] for j in range(n)] for i in range(n)]
                assert sum(c * mu ** (n - i) for i, c in enumerate(p)) == _det(shifted)


def _expand(roots, extra):
    """Integer coefficients, highest first, of prod (x - r) times extra."""
    p = list(extra)
    for r in roots:
        p = [a - r * b for a, b in zip(p + [0], [0] + p)]
    return p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6),
       st.sampled_from([[1], [3], [-2], [1, 0, 1], [1, 0, -2], [2, 0, 0, 0, 1]]))
def test_sturm_counts_distinct_real_roots(roots, extra):
    # roots repeat freely, and the extra factor adds a constant, no real
    # root, or the irrational roots +-sqrt(2): the counts above each dyadic
    # point that is not a root are the distinct real roots above it, and
    # the largest is bracketed
    p = _expand(roots, extra)
    seq = intpoly.sturm(p)
    real = set(roots) | ({math.sqrt(2), -math.sqrt(2)} if extra == [1, 0, -2] else set())
    for num, e in itertools.product(range(-15, 16), (0, 1, 2)):
        x = num / 2 ** e
        if x in real or (extra == [1, 0, -2] and x * x == 2):
            continue
        assert intpoly.roots_above(seq, num, e) == sum(r > x for r in real)
    lo, hi, e = intpoly.largest_root(seq)
    if max(real) == math.sqrt(2):
        assert 0 < lo and lo * lo < 2 << 2 * e < hi * hi
    else:
        assert lo < max(real) << e < hi
    # 2^-64 relative, or 2^-64 from 0
    assert (hi - lo) << 64 <= max(abs(lo), abs(hi), 1 << e)


@pytest.mark.parametrize("dims", [(3, 3), (4, 4), (2, 3), (8, 7)],
                         ids=["3x3", "4x4", "2x3", "8x7"])
def test_gram_kernel_answers_without_a_groebner_basis(dims):
    # the kernel's counterpart of test_sphere_bases_are_proved_by_their_points:
    # solve_max certifies the matrix by a Sturm count and runs no Groebner
    # basis, nor does _exact_max, whose answer is solve_max's bit for bit;
    # 4 min(n, m) is the sphere chart's quotient dimension, its points and
    # their four sign images are zeros of the sphere chart's system, and
    # its answer is the charts' and the top singular value's
    form = cli._random_integer_form(dims, np.random.default_rng(5))

    def refuse(*args, **kwargs):
        raise AssertionError("groebner() ran")

    with mock.patch.object(algsolver, "groebner", refuse):
        report = solve_max(form)
        chart, exact = algsolver._exact_max(form, seed=3)
    assert chart == "sphere" and _report_bits(exact) == _report_bits(report)
    d = min(dims)
    assert report.quotient_dim == 4 * d == _generic_dim(form, "sphere")
    assert set(report.timings) == set(algsolver._GRAM_STAGES)
    assert report.genericity_flags == () and len(report.points) == d
    sigma = np.linalg.svd(form.tensor, compute_uv=False)
    assert report.max_value == pytest.approx(sigma[0], rel=1e-15, abs=0.0)
    assert sorted(abs(p.value) for p in report.points) == pytest.approx(sorted(sigma), rel=1e-14)
    if dims != (8, 7):  # the sphere chart's own basis takes minutes there
        system = build_critical_system(form, chart="sphere")
        assert report.quotient_dim == len(normal_set(groebner(system)))
        for p, signs in itertools.product(report.points, itertools.product((1, -1), repeat=2)):
            point = np.concatenate([s * v for s, v in zip(signs, p.vectors)])
            for poly in system.polys:
                value = sum(float(c) * np.prod([point[v] ** e for v, e in enumerate(m) if e])
                            for m, c in poly.terms.items())
                assert abs(value) <= 1e-12 * np.abs(form.coeffs).max()
        charted = algsolver._charted_max(form)
        assert report.max_value == pytest.approx(charted.max_value, rel=1e-15, abs=0.0)
        scale = abs(charted.eigenvalues[0])
        ours, theirs = (np.sort(np.real(r.eigenvalues)) for r in (report, charted))
        assert np.abs(ours - theirs).max() <= 1e-13 * scale


def test_gram_kernel_gives_diag_3_1_both_points():
    # the charts lift nothing here (one class is off the affine chart) and
    # report 3.000000000000001 with no point; the kernel reports both pairs
    report = solve_max(MultilinearForm((2, 2), [3.0, 0.0, 0.0, 1.0]))
    assert report.quotient_dim == 8 and report.genericity_flags == ()
    assert [abs(p.value) for p in report.points] == [3.0, 1.0]
    assert report.max_value == 3.0


@pytest.mark.parametrize("coeffs, want", [
    ([1, 0, 0, 1], 1.0), ([3, 0, 0, 0, 3, 0, 0, 0, 1], 3.0), ([1, 1, 1, -1], math.sqrt(2)),
], ids=["I_2", "diag(3,3,1)", "hadamard-2x2"])
def test_tied_top_singular_value_answers_from_the_largest_root(coeffs, want):
    # the critical set is a circle: solve_max refuses, as it should, and
    # _exact_max, where both charts refuse, answers from the largest root
    # of det(mu I - G), with the top singular pair as its point, flagged;
    # the polynomial is formed once, for the declined kernel and the root
    n = math.isqrt(len(coeffs))
    form = MultilinearForm((n, n), coeffs)
    with pytest.raises(NotZeroDimensionalError):
        solve_max(form)
    with mock.patch.object(intpoly, "berkowitz", wraps=intpoly.berkowitz) as berkowitz:
        chart, report = algsolver._exact_max(form, seed=0)
    assert berkowitz.call_count == 1
    assert chart == "sphere" and report.quotient_dim == 0
    assert report.max_value == want
    assert abs(report.points[0].value) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert "not zero-dimensional" in report.genericity_flags[-1]


@st.composite
def _integer_matrices(draw):
    """Nonzero integer matrices, 1x1 to 6x6, entries in -9..9: dense, of
    lower rank (factors in -1..1), or with a tied singular value (a signed
    permutation of a diagonal with a repeated entry, or a 2x2 Hadamard
    block beside one)."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    d = min(n, m)
    ints = lambda size, lo, hi: np.array(draw(st.lists(
        st.integers(lo, hi), min_size=size, max_size=size)), dtype=float)
    kind = draw(st.sampled_from(["dense", "low-rank", "tied"]))
    if kind == "dense":
        a = ints(n * m, -9, 9).reshape(n, m)
    elif kind == "low-rank":
        r = draw(st.integers(1, max(1, d - 1)))
        a = ints(n * r, -1, 1).reshape(n, r) @ ints(r * m, -1, 1).reshape(r, m)
    else:
        diag = ints(d, 1, 3)
        diag[-1] = diag[0]
        a = np.zeros((n, m))
        a[range(d), range(d)] = diag * ints(d, -1, 1)
        if d >= 2 and draw(st.booleans()):
            a[:2, :2] = diag[0] * np.array([[1, 1], [1, -1]])
        a = a[draw(st.permutations(range(n)))][:, draw(st.permutations(range(m)))]
    assume(a.any())
    return a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_integer_matrices())
@example(np.eye(2))
@example(np.diag([3.0, 3.0, 1.0]))
@example(np.array([[1.0, 1.0], [1.0, -1.0]]))
@example(np.array([[3.0, -9.0, 4.0, 1.0, 7.0]]))
@example(np.array([[3.0], [-9.0], [4.0]]))
@example(np.kron(np.eye(3), np.ones((2, 2))))
def test_gram_kernel_property(a):
    # where the kernel certifies, solve_max's quotient is 4 min(n, m) and
    # its maximum the top singular value within 1e-14; where it does not,
    # solve_max is the charts' (_charted_max) untouched; _exact_max raises
    # on none of them.  Well separated nonzero singular values are
    # certified, and tied or zero ones never are.
    form = MultilinearForm(a.shape, a.reshape(-1))
    sigma = np.linalg.svd(a, compute_uv=False)
    unit, k = multiform._scaled(form)
    certified = algsolver._gram_max(unit, k, algsolver._gram_poly(unit)) is not None
    charted = object()
    with mock.patch.object(algsolver, "_charted_max", lambda form, budget: charted):
        report = solve_max(form)
    if certified:
        assert report.quotient_dim == 4 * min(a.shape)
        assert report.max_value == pytest.approx(sigma[0], rel=1e-14, abs=0.0)
    else:
        assert report is charted
    gaps = np.append(-np.diff(sigma), sigma[-1]) / sigma[0]
    if gaps.min() > 1e-8:
        assert certified
    if gaps.min() < 1e-12:
        assert not certified
    _, exact = algsolver._exact_max(form, seed=0)
    assert exact.max_value == pytest.approx(sigma[0], rel=1e-12, abs=0.0)
    assert abs(exact.points[0].value) == pytest.approx(sigma[0], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("dims, seed, seconds", [((20, 15), 1, 0.5), ((8, 7), 0, 0.05)],
                         ids=["20x15", "8x7"])
def test_gram_kernel_answers_large_integer_matrices_quickly(dims, seed, seconds):
    # 356 s and 86 ms through the charts
    form = cli._random_integer_form(dims, np.random.default_rng(seed))
    start = time.perf_counter()
    report = solve_max(form)
    assert time.perf_counter() - start < seconds
    assert report.quotient_dim == 4 * min(dims)
    sigma = np.linalg.svd(form.tensor, compute_uv=False)[0]
    assert report.max_value == pytest.approx(sigma, rel=1e-15, abs=0.0)
