"""Exact algebraic pipeline: Groebner bases, quotient rings, eigen-solving."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremax import (
    BudgetExceededError,
    MultilinearForm,
    NotZeroDimensionalError,
    PolySystem,
    RationalPoly,
    build_critical_system,
    canonical_signs,
    count_extreme_classes,
    evaluate,
    groebner,
    mult_matrix,
    normal_set,
    rationalize,
    solve_argmax,
    solve_max,
    verify_buchberger_certificate,
)
from spheremax.algsolver import (
    QuotientRing,
    _Budget,
    _divides,
    _Monomials,
    _normal_form,
    _reducer,
    _spoly,
    _to_integer_primitive,
    form_polynomial,
    grevlex_key,
)

from conftest import (
    TRILINEAR_COEFFS,
    TRILINEAR_CRITICAL_VALUES,
    TRILINEAR_MAX,
    QUADLINEAR_FACTORS,
    QUADLINEAR_MAX,
    random_form,
    sign_aligned_error,
)


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
    import itertools

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
        lm = p.leading_monomial()
        assert p.terms[lm] == 1
        # no term of any basis element is divisible by another leading term
        for q in gb.basis:
            if q is p:
                continue
            qlm = q.leading_monomial()
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
    assert mono.divides(ka, kb) == _divides(a, b)
    assert mono.divides(kb, ka) == _divides(b, a)
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


def test_spolynomial_cancels_leading_terms():
    # the integer S-polynomial that Buchberger's algorithm uses
    mono = _Monomials(2)
    f = {mono.pack((2, 0)): 2, mono.pack((0, 1)): 1}
    g = {mono.pack((1, 1)): 3, mono.pack((1, 0)): 1}
    lm_f, lm_g = mono.pack((2, 0)), mono.pack((1, 1))
    lcm = mono.lcm(lm_f, lm_g)
    assert lcm == mono.pack((2, 1))
    s = _spoly(lm_f, f, lm_g, g, lcm)
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
    reducers = [_reducer(_to_integer_primitive(b.terms, mono)) for b in gb.basis]
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
    report = solve_max(MultilinearForm(dims=(2, 2), coeffs=[3, 0, 0, 2]))
    assert report.max_value == pytest.approx(3.0, abs=1e-9)


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
        for v, w in zip(p.vectors, canonical_signs(p.vectors)):
            assert np.array_equal(v, w)
    # points sorted by decreasing |value|
    mags = [abs(p.value) for p in report.points]
    assert mags == sorted(mags, reverse=True)


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
