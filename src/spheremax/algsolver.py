"""Exact algebraic pipeline for the sphere-product maximum.

The critical points of a multilinear form over a product of unit spheres are
the solutions of a polynomial system: the 2x2 minors x_j dl/dx_i = x_i dl/dx_j
per slot, closed off either by sphere equations ||x||^2 = 1 (one per slot) or
by affine chart equations x_first = 1.  The system is solved exactly: a
reduced Groebner basis over Q, the standard-monomial basis of the quotient
ring, and multiplication matrices whose eigenvalues are the values of a
polynomial at the solutions (Eigenvalue Theorem).  Floating point enters only
at the eigenvalue stage.

The exact loops run on plain Python ints.  A monomial is one packed int (see
_Monomials), Buchberger's algorithm reduces fraction-free integer
polynomials, and the quotient ring keeps each normal form as an integer
vector over one positive denominator.  Rationals (fractions.Fraction) appear
only at the boundary: in RationalPoly, GroebnerBasis and the input
coefficients.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from decimal import Decimal

import numpy as np

from . import chowcount, multiform
from .errors import BudgetExceededError, DimensionMismatchError, NotZeroDimensionalError
from .linalg import Matrix
from .multiform import MultilinearForm

_Q = Fraction
_ZERO = _Q(0)
_ONE = _Q(1)

DEFAULT_REDUCTION_BUDGET = 10**6
REALNESS_TOL = 1e-8
RESIDUAL_TOL = 1e-6
_TIE_TOL = 1e-12

_SLOT_LETTERS = "xyztuw"


def rationalize(value) -> "_Q":
    """Exact rational from the decimal representation of a scalar.

    Floats go through their shortest round-tripping decimal string, so JSON
    input like 0.5435016101 becomes 5435016101/10^10 exactly.
    """
    if isinstance(value, (int, np.integer)):
        return _Q(int(value))
    if isinstance(value, float) or isinstance(value, np.floating):
        return _Q(Decimal(repr(float(value))))
    return _Q(value)


# ---------------------------------------------------------------------------
# monomial order: graded reverse lexicographic over the full variable list
# ---------------------------------------------------------------------------

def grevlex_key(m):
    """Sort key; larger key = larger monomial in grevlex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# packed monomials for the exact loops
# ---------------------------------------------------------------------------

_FIELD = 16                          # bits per exponent field
_DEGREE_LIMIT = 1 << (_FIELD - 1)    # the field's top bit is its guard bit


class _Monomials:
    """Monomials in ``nvars`` variables packed into one int.

    x^e is K = deg(e) * 2^L - P(e), where P(e) holds the exponents in
    16-bit fields, the last variable in the most significant one, and
    L = 16 nvars.  Then:

    - x^a x^b is K_a + K_b;
    - grevlex compares like the ints: a higher degree wins, and at equal
      degree the smaller P wins, i.e. the smaller exponent of the last
      variable where the two differ;
    - x^a | x^b iff no field of P_b - P_a borrows, which one subtraction and
      a mask test on every field's guard bit decide (``divides``).

    Every degree stays below the guard bit, 2^15, so no field can overflow:
    ``pack`` checks the degree of each input monomial, ``lcm`` that of every
    pair Buchberger's algorithm forms and QuotientRing.mult_matrix_exact
    that of its products, and reduction never raises a degree.  Past the
    limit they raise BudgetExceededError.
    """

    __slots__ = ("nvars", "shift", "mask", "ones", "guard")

    def __init__(self, nvars):
        self.nvars = nvars
        self.shift = _FIELD * nvars
        self.mask = (1 << self.shift) - 1
        self.ones = sum(1 << (_FIELD * i) for i in range(nvars))  # 1 per field
        self.guard = self.ones << (_FIELD - 1)

    def pack(self, m) -> int:
        deg = _checked_degree(sum(m))
        p = 0
        for e in reversed(m):
            p = (p << _FIELD) | e
        return (deg << self.shift) - p

    def unpack(self, k) -> tuple:
        p = -k & self.mask
        field = (1 << _FIELD) - 1
        return tuple((p >> (_FIELD * i)) & field for i in range(self.nvars))

    def probe(self, a) -> int:
        """x^a | x^b iff not (b - probe(a)) & guard."""
        return a + self.guard + 1

    def divides(self, a, b) -> bool:
        return not (b - self.probe(a)) & self.guard

    def lcm(self, a, b) -> int:
        pa = -a & self.mask
        pb = -b & self.mask
        ge = ((pa | self.guard) - pb) & self.guard  # guard bit where e_a >= e_b
        keep = ge - (ge >> (_FIELD - 1))            # exponent bits of those fields
        p = (pa & keep) | (pb & ~keep)
        # field nvars-1 of p * ones sums every field (each sum is < 2^16)
        deg = (p * self.ones) >> (self.shift - _FIELD) & ((1 << _FIELD) - 1)
        return (_checked_degree(deg) << self.shift) - p


def _checked_degree(deg):
    if deg >= _DEGREE_LIMIT:
        raise BudgetExceededError(
            f"monomial degree {deg} exceeds the exact engine's limit "
            f"{_DEGREE_LIMIT - 1}"
        )
    return deg


# ---------------------------------------------------------------------------
# polynomial surface types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalPoly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (one entry per variable) to nonzero
    rationals.
    """

    variables: tuple
    terms: dict

    def __post_init__(self):
        variables = tuple(self.variables)
        nvars = len(variables)
        clean = {}
        for exps, c in self.terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DimensionMismatchError(
                    f"exponent tuple {exps} does not match {nvars} variables"
                )
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            c = _Q(c)
            if c:
                clean[exps] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self):
        return max(self.terms, key=grevlex_key)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


@dataclass(frozen=True)
class PolySystem:
    """Critical system plus one chart closure equation per slot."""

    polys: tuple
    variables: tuple
    slot_vars: tuple  # per slot, tuple of variable indices


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced, monic Groebner basis under grevlex."""

    basis: tuple
    variables: tuple


@dataclass(frozen=True)
class NormalSet:
    """Standard monomials of the quotient ring, ascending, constant first."""

    monomials: tuple
    variables: tuple

    def __len__(self):
        return len(self.monomials)


@dataclass(frozen=True)
class CriticalPoint:
    vectors: tuple
    value: float
    residual: float


@dataclass(frozen=True)
class SolveReport:
    quotient_dim: int
    eigenvalues: tuple
    max_value: float
    points: tuple
    genericity_flags: tuple
    timings: dict = field(default_factory=dict)  # seconds per stage


# ---------------------------------------------------------------------------
# Buchberger engine.  Basis polynomials are dicts {packed monomial: int},
# primitive (content 1) with a positive leading coefficient; reduction is
# fraction-free (pseudo-division with content stripping), which keeps the
# classic coefficient swell of monic rational reduction in check.  Rationals
# appear only where groebner() converts its input and its result.  Exact
# normal forms against the final reduced basis live in QuotientRing below.
# ---------------------------------------------------------------------------

class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"reduction budget {self.limit} exhausted"
            )


def _to_integer_primitive(terms, mono):
    """Packed integer polynomial from {exponent tuple: rational}: clear
    denominators and strip content; leading coefficient positive."""
    if not terms:
        return {}
    den = math.lcm(*(c.denominator for c in terms.values()))
    ints = {mono.pack(m): c.numerator * (den // c.denominator)
            for m, c in terms.items()}
    return _strip_content(ints)


def _strip_content(ints):
    if not ints:
        return {}
    g = 0
    for c in ints.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    if ints[max(ints)] < 0:
        g = -g
    if g not in (1, 0):
        ints = {m: c // g for m, c in ints.items()}
    elif g == -1:
        ints = {m: -c for m, c in ints.items()}
    return ints


def _reducer(p):
    """(leading monomial, leading coefficient, tail) of an integer poly."""
    lm = max(p)
    return lm, p[lm], {m: c for m, c in p.items() if m != lm}


def _normal_form(p, reducers, mono, budget):
    """Fraction-free full normal form of a packed integer polynomial.

    reducers: list of _reducer triples with integer primitive coefficients;
    the first whose leading monomial divides a term reduces it.  The result
    equals the true normal form up to a positive rational scalar; it is
    returned content-stripped.
    """
    guard = mono.guard
    probes = [(mono.probe(lm), lm, lc, tail) for lm, lc, tail in reducers]
    work = {m: c for m, c in p.items() if c}
    heap = [-m for m in work]  # pops the grevlex-largest monomial first
    heapq.heapify(heap)
    rem = {}
    steps = 0
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for probe, lm, lc, tail in probes:
            if not (m - probe) & guard:
                break
        else:
            rem[m] = c
            continue
        budget.spend()
        g = math.gcd(c, lc)
        mult = lc // g
        fac = c // g
        if mult != 1:
            for k in work:
                work[k] *= mult
            for k in rem:
                rem[k] *= mult
        shift = m - lm
        for t, tc in tail.items():
            mm = t + shift
            prev = work.get(mm)
            if prev is None:
                work[mm] = -fac * tc
                heapq.heappush(heap, -mm)
            else:
                nv = prev - fac * tc
                if nv:
                    work[mm] = nv
                else:
                    del work[mm]
        steps += 1
        if steps % 32 == 0 and work:
            g = 0
            for c2 in work.values():
                g = math.gcd(g, c2)
                if g == 1:
                    break
            if g > 1:
                for c2 in rem.values():
                    g = math.gcd(g, c2)
                    if g == 1:
                        break
            if g > 1:
                for k in work:
                    work[k] //= g
                for k in rem:
                    rem[k] //= g
    return _strip_content(rem)


def _spoly(lm_f, f, lm_g, g, lcm):
    """Integer S-polynomial of primitive integer polys f, g; lcm is the
    packed lcm of their leading monomials."""
    sf = lcm - lm_f
    sg = lcm - lm_g
    lcf = f[lm_f]
    lcg = g[lm_g]
    d = math.gcd(lcf, lcg)
    af = lcg // d
    ag = lcf // d
    out = {}
    for m, c in f.items():
        out[m + sf] = af * c
    for m, c in g.items():
        mm = m + sg
        prev = out.get(mm)
        nv = (prev - ag * c) if prev is not None else -ag * c
        if nv:
            out[mm] = nv
        elif prev is not None:
            del out[mm]
    return out


class _Engine:
    """Buchberger with the Gebauer-Moeller pair criteria and normal
    (minimal-lcm) selection.  All polynomials are primitive integer dicts
    over packed monomials."""

    def __init__(self, mono, budget):
        self.mono = mono
        self.budget = budget
        self.polys = []   # full primitive integer dicts
        self.lms = []
        self.reducers = []  # _reducer triple of each poly
        self.alive = []
        self.pairs = []   # heap of (lcm, i, j)

    def _reducers(self):
        idx = [i for i in range(len(self.polys)) if self.alive[i]]
        idx.sort(key=self.lms.__getitem__)
        return [self.reducers[i] for i in idx]

    def add(self, p):
        r = _normal_form(p, self._reducers(), self.mono, self.budget)
        if r:
            self._update(r)

    def _update(self, h):
        mono = self.mono
        guard = mono.guard
        lmh = max(h)
        hidx = len(self.polys)
        self.polys.append(h)
        self.lms.append(lmh)
        self.reducers.append(_reducer(h))
        self.alive.append(True)
        others = [i for i in range(hidx) if self.alive[i]]
        # Gebauer-Moeller: filter new pairs (h, g)
        cand = [(mono.lcm(lmh, self.lms[g]), g) for g in others]
        kept = []
        for pos, (l, g) in enumerate(cand):
            if l == lmh + self.lms[g]:  # coprime leading monomials
                kept.append((l, g, True))
                continue
            top = l - guard - 1  # l2 | l iff not (top - l2) & guard
            dominated = any(
                not (top - l2) & guard and (l2 != l or pos2 < pos)
                for pos2, (l2, _) in enumerate(cand)
                if pos2 != pos
            )
            if not dominated:
                kept.append((l, g, False))
        # filter old pairs against the new leading monomial
        probe = mono.probe(lmh)
        newpairs = []
        for l, i, j in self.pairs:
            if (
                (l - probe) & guard
                or mono.lcm(self.lms[i], lmh) == l
                or mono.lcm(self.lms[j], lmh) == l
            ):
                newpairs.append((l, i, j))
        for l, g, coprime_pair in kept:
            if not coprime_pair:
                newpairs.append((l, g, hidx))
        heapq.heapify(newpairs)
        self.pairs = newpairs
        for g in others:
            if not (self.lms[g] - probe) & guard:
                self.alive[g] = False

    def run(self):
        while self.pairs:
            l, i, j = heapq.heappop(self.pairs)
            s = _spoly(self.lms[i], self.polys[i], self.lms[j], self.polys[j], l)
            r = _normal_form(s, self._reducers(), self.mono, self.budget)
            if r:
                self._update(r)
        return self._interreduce()

    def _interreduce(self):
        idx = [i for i in range(len(self.polys)) if self.alive[i]]
        # drop redundant leading monomials
        minimal = []
        for i in sorted(idx, key=self.lms.__getitem__):
            if not any(self.mono.divides(self.lms[j], self.lms[i]) for j in minimal):
                minimal.append(i)
        out = []
        for i in minimal:
            others = [self.reducers[j] for j in minimal if j != i]
            r = _normal_form(self.polys[i], others, self.mono, self.budget)
            lc = r[max(r)]
            out.append({m: Fraction(c, lc) for m, c in r.items()})
        out.sort(key=max)
        return out


def groebner(system: PolySystem, budget: int = DEFAULT_REDUCTION_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the system's ideal, exact arithmetic.

    Raises BudgetExceededError when the configured number of reduction steps
    is exhausted (the instance is too large).
    """
    variables = system.variables
    mono = _Monomials(len(variables))
    eng = _Engine(mono, _Budget(budget))
    polys = sorted(
        (_to_integer_primitive(p.terms, mono) for p in system.polys if not p.is_zero()),
        key=max,
    )
    for t in polys:
        eng.add(t)
    return GroebnerBasis(
        basis=tuple(
            RationalPoly(variables, {mono.unpack(m): c for m, c in p.items()})
            for p in eng.run()
        ),
        variables=variables,
    )


def verify_buchberger_certificate(gb: GroebnerBasis,
                                  budget: int = DEFAULT_REDUCTION_BUDGET) -> bool:
    """Every S-polynomial of the basis reduces to zero (exact check)."""
    mono = _Monomials(len(gb.variables))
    int_polys = sorted(
        (_to_integer_primitive(p.terms, mono) for p in gb.basis), key=max
    )
    reducers = [_reducer(p) for p in int_polys]
    b = _Budget(budget)
    for f, g in itertools.combinations(int_polys, 2):
        lm_f, lm_g = max(f), max(g)
        s = _spoly(lm_f, f, lm_g, g, mono.lcm(lm_f, lm_g))
        if _normal_form(s, reducers, mono, b):
            return False
    return True


# ---------------------------------------------------------------------------
# normal set and multiplication matrices
# ---------------------------------------------------------------------------

def normal_set(gb: GroebnerBasis) -> NormalSet:
    """Standard monomials (those outside the leading-term ideal), ascending
    under grevlex, constant monomial first.  Raises NotZeroDimensionalError
    when the quotient ring is infinite-dimensional."""
    nvars = len(gb.variables)
    lms = [p.leading_monomial() for p in gb.basis]
    for v in range(nvars):
        if not any(
            lm[v] > 0 and all(lm[w] == 0 for w in range(nvars) if w != v)
            for lm in lms
        ):
            raise NotZeroDimensionalError(
                f"no pure power of {gb.variables[v]} among leading terms"
            )
    one = (0,) * nvars
    seen = {one}
    standard = []
    queue = [one]
    while queue:
        m = queue.pop()
        if any(_divides(lm, m) for lm in lms):
            continue
        standard.append(m)
        for v in range(nvars):
            child = tuple(e + 1 if i == v else e for i, e in enumerate(m))
            if child not in seen:
                seen.add(child)
                queue.append(child)
    standard.sort(key=grevlex_key)
    return NormalSet(monomials=tuple(standard), variables=gb.variables)


class QuotientRing:
    """Quotient ring C[vars]/<gb> with memoized monomial normal forms.

    A normal form is kept as an (integer vector, positive denominator) pair,
    the vector a sparse {standard-monomial index: nonzero int} dict: the
    coordinates are vector / denominator, with the common content of the
    pair divided out."""

    def __init__(self, gb: GroebnerBasis, ns: NormalSet,
                 budget: int = DEFAULT_REDUCTION_BUDGET):
        self.gb = gb
        self.ns = ns
        self.mono = mono = _Monomials(len(gb.variables))
        self.budget = _Budget(budget)
        self.standard = [mono.pack(m) for m in ns.monomials]
        self._top_degree = max(map(sum, ns.monomials), default=0)
        self._cache = {k: ({i: 1}, 1) for i, k in enumerate(self.standard)}
        # (probe, leading monomial, denominator, [(monomial, -numerator)])
        # per basis element, the monic tail over one denominator
        self.reducers = []
        for p in gb.basis:
            lm = p.leading_monomial()
            tail = {m: c / p.terms[lm] for m, c in p.terms.items() if m != lm}
            den = math.lcm(*(c.denominator for c in tail.values()))
            k = mono.pack(lm)
            self.reducers.append((mono.probe(k), k, den, [
                (mono.pack(m), -c.numerator * (den // c.denominator))
                for m, c in tail.items()
            ]))
        self.reducers.sort(key=lambda r: r[1])

    def monomial_vector(self, m) -> tuple:
        """NF(x^m) as an (integer vector, positive denominator) pair."""
        vec, den = self._vector(self.mono.pack(m))
        return dict(vec), den

    def _vector(self, k):
        cache = self._cache
        guard = self.mono.guard
        stack = [k]
        while stack:
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            for probe, lm, den, tail in self.reducers:
                if not (cur - probe) & guard:
                    break
            else:  # pragma: no cover - gb/ns inconsistency
                raise NotZeroDimensionalError(
                    f"monomial {self.mono.unpack(cur)} neither standard nor reducible"
                )
            shift = cur - lm
            terms = [(t + shift, a) for t, a in tail]
            missing = [t for t, _ in terms if t not in cache]
            if missing:
                stack.extend(missing)
                continue
            self.budget.spend()
            cache[cur] = self._combine(terms, den)
            stack.pop()
        return cache[k]

    def _combine(self, terms, den):
        """sum(a NF(x^t)) / den over [(t, a)], every NF(x^t) cached."""
        parts = [(a, self._cache[t]) for t, a in terms]
        scale = math.lcm(*(d for _, (_, d) in parts))
        acc = {}
        for a, (vec, d) in parts:
            f = a * (scale // d)
            for i, v in vec.items():
                acc[i] = acc.get(i, 0) + f * v
        acc = {i: v for i, v in acc.items() if v}
        den *= scale
        g = math.gcd(den, *acc.values())
        if g > 1:
            acc = {i: v // g for i, v in acc.items()}
            den //= g
        return acc, den

    def mult_matrix_exact(self, f: RationalPoly):
        """Columns of the multiplication-by-f map over the standard basis,
        exact, as (integer vector, positive denominator) pairs."""
        mono = self.mono
        _checked_degree(max(map(sum, f.terms), default=0) + self._top_degree)
        den = math.lcm(*(c.denominator for c in f.terms.values()))
        terms = [(mono.pack(m), c.numerator * (den // c.denominator))
                 for m, c in f.terms.items()]
        cols = []
        for b in self.standard:
            products = [(m + b, a) for m, a in terms]
            for t, _ in products:
                self._vector(t)
            cols.append(self._combine(products, den))
        return cols


def _float_matrix(cols, rows: int) -> np.ndarray:
    """Dense float matrix from exact (integer vector, denominator) columns.
    int / int is correctly rounded, like float() of the reduced fraction."""
    out = np.zeros((rows, len(cols)))
    for j, (vec, den) in enumerate(cols):
        for i, x in vec.items():
            out[i, j] = x / den
    return out


def mult_matrix(f: RationalPoly, gb: GroebnerBasis, ns: NormalSet,
                budget: int = DEFAULT_REDUCTION_BUDGET) -> Matrix:
    """Multiplication matrix of f on the quotient ring: column j holds the
    coordinates of NF(f * b_j) over the standard monomials.  Computed exactly,
    converted to floating point only here at the output."""
    ring = QuotientRing(gb, ns, budget)
    return Matrix.from_array(_float_matrix(ring.mult_matrix_exact(f), len(ns)))


# ---------------------------------------------------------------------------
# critical system construction
# ---------------------------------------------------------------------------

def _variable_layout(dims):
    names = []
    slot_vars = []
    for s, d in enumerate(dims):
        letter = _SLOT_LETTERS[s]
        idx = []
        for i in range(d):
            idx.append(len(names))
            names.append(f"{letter}{i + 1}")
        slot_vars.append(tuple(idx))
    return tuple(names), tuple(slot_vars)


def form_polynomial(form: MultilinearForm) -> RationalPoly:
    """The form as an exact multilinear polynomial in the slot variables."""
    names, slot_vars = _variable_layout(form.dims)
    nvars = len(names)
    terms = {}
    tensor = form.tensor
    for index in itertools.product(*(range(d) for d in form.dims)):
        c = tensor[index]
        if c == 0:
            continue
        exps = [0] * nvars
        for s, i in enumerate(index):
            exps[slot_vars[s][i]] = 1
        terms[tuple(exps)] = rationalize(c)
    return RationalPoly(names, terms)


def _partial_terms(poly_terms, var):
    """d/dvar of a multilinear polynomial (exponents are 0/1)."""
    out = {}
    for exps, c in poly_terms.items():
        if exps[var]:
            e = list(exps)
            e[var] = 0
            out[tuple(e)] = c
    return out


def _times_var(terms, var):
    out = {}
    for exps, c in terms.items():
        e = list(exps)
        e[var] += 1
        out[tuple(e)] = c
    return out


def _poly_sub(a, b):
    out = dict(a)
    for m, c in b.items():
        prev = out.get(m)
        nv = (prev - c) if prev is not None else -c
        if nv:
            out[m] = nv
        elif prev is not None:
            del out[m]
    return out


def build_critical_system(form: MultilinearForm, chart: str = "sphere") -> PolySystem:
    """The exact critical system of the form.

    Minor equations x_j dl/dx_i - x_i dl/dx_j = 0 for every slot and index
    pair i < j, plus one closure equation per slot: the unit sphere
    ||x||^2 = 1 ('sphere' chart) or the first coordinate x_1 = 1 ('affine'
    chart).  Coefficients are rationalized exactly from their decimal
    representation.
    """
    if form.order < 2:
        raise DimensionMismatchError("critical system needs r >= 2 slots")
    if form.order > len(_SLOT_LETTERS):
        raise DimensionMismatchError(f"at most {len(_SLOT_LETTERS)} slots supported")
    if chart not in ("sphere", "affine"):
        raise ValueError(f"unknown chart {chart!r}")
    names, slot_vars = _variable_layout(form.dims)
    nvars = len(names)
    lpoly = form_polynomial(form)
    partials = [_partial_terms(lpoly.terms, v) for v in range(nvars)]
    polys = []
    for s, svars in enumerate(slot_vars):
        for a, b in itertools.combinations(svars, 2):
            minor = _poly_sub(
                _times_var(partials[a], b), _times_var(partials[b], a)
            )
            if minor:
                polys.append(RationalPoly(names, minor))
    for s, svars in enumerate(slot_vars):
        if chart == "sphere":
            terms = {}
            for v in svars:
                e = [0] * nvars
                e[v] = 2
                terms[tuple(e)] = _ONE
            terms[(0,) * nvars] = terms.get((0,) * nvars, _ZERO) - _ONE
            polys.append(RationalPoly(names, terms))
        else:
            e = [0] * nvars
            e[svars[0]] = 1
            polys.append(
                RationalPoly(names, {tuple(e): _ONE, (0,) * nvars: -_ONE})
            )
    return PolySystem(polys=tuple(polys), variables=names, slot_vars=slot_vars)


# ---------------------------------------------------------------------------
# solve pipelines
# ---------------------------------------------------------------------------

_STAGES = ("system", "groebner", "normalSet", "eigen")


def _quotient(form: MultilinearForm, chart: str, budget: int):
    """The chart's critical system, its Groebner basis and its normal set,
    with the perf_counter marks taken before and after each stage."""
    marks = [time.perf_counter()]
    system = build_critical_system(form, chart=chart)
    marks.append(time.perf_counter())
    gb = groebner(system, budget=budget)
    marks.append(time.perf_counter())
    ns = normal_set(gb)
    marks.append(time.perf_counter())
    return system, gb, ns, marks


def _stage_times(marks) -> dict:
    """Seconds per stage of _STAGES; the last stage ends now."""
    marks = marks + [time.perf_counter()]
    return {s: b - a for s, a, b in zip(_STAGES, marks, marks[1:])}


def solve_max(
    form: MultilinearForm,
    budget: int = DEFAULT_REDUCTION_BUDGET,
) -> SolveReport:
    """Certified maximum of |l| over the product of spheres (sphere-chart
    pipeline of the eigenvalue method).

    The eigenvalues of the multiplication-by-l matrix are the values of l at
    the critical points; the answer is the largest magnitude among the real
    ones.
    """
    _, gb, ns, marks = _quotient(form, "sphere", budget)
    lpoly = form_polynomial(form)
    m = mult_matrix(lpoly, gb, ns, budget=budget)
    eigenvalues = np.linalg.eigvals(m.array)
    flags = []
    real = [
        lam.real
        for lam in eigenvalues
        if abs(lam.imag) <= REALNESS_TOL * (1.0 + abs(lam))
    ]
    if not real:
        flags.append("no real eigenvalues within tolerance")
        max_value = float("nan")
    else:
        max_value = max(abs(v) for v in real)
    order = np.argsort(-np.abs(eigenvalues))
    return SolveReport(
        quotient_dim=len(ns),
        eigenvalues=tuple(complex(eigenvalues[i]) for i in order),
        max_value=float(max_value),
        points=(),
        genericity_flags=tuple(flags),
        timings=_stage_times(marks),
    )


def _point_order(a: CriticalPoint, b: CriticalPoint) -> int:
    """Decreasing |value|; values equal within _TIE_TOL (1 + |value|) fall
    back to the canonical vectors, compared lexicographically with the same
    tolerance, so that tied points do not come out in rounding order."""
    keys_a = (-abs(a.value), *itertools.chain.from_iterable(a.vectors))
    keys_b = (-abs(b.value), *itertools.chain.from_iterable(b.vectors))
    for x, y in zip(keys_a, keys_b):
        if abs(x - y) > _TIE_TOL * (1.0 + abs(x)):
            return -1 if x < y else 1
    return 0


def solve_argmax(
    form: MultilinearForm,
    budget: int = DEFAULT_REDUCTION_BUDGET,
    force: bool = False,
    seed: int = 0,
) -> SolveReport:
    """Maximizing point(s) of |l| via the affine-chart pipeline.

    Builds the affine critical system (first coordinate of each slot set
    to 1) and takes the multiplication matrix of the first free variable,
    or of a random integer combination of the free variables when its
    eigenvalues repeat.  Its left eigenvectors, scaled to 1 at the constant
    monomial, hold the values of the standard monomials at the solutions;
    every coordinate of every solution is then one row of N @ V, where row v
    of N is the exact normal form of the variable x_v.  Real solutions are
    normalized back to the spheres, scored in one batch (value and
    fixed-point residual), and reported by decreasing |l|, tied values in
    the lexicographic order of their canonical vectors.

    The chart's one guard is the paper's count: for a generic form the
    quotient dimension is count_extreme_classes(dims) in every format
    (Friedland and Ottaviani, 2014).  When it differs (a non-generic form,
    e.g. with critical points at x_1 = 0), a flag names both numbers, since
    points and the true maximum may be missing.  ``force`` is ignored; it
    stays because perfbench/workloads.py passes force=True.
    """
    system, gb, ns, marks = _quotient(form, "affine", budget)
    dim = len(ns)
    flags = []
    classes = chowcount.count_extreme_classes(form.dims)
    if dim != classes:
        flags.append(
            f"quotient dimension {dim} differs from the extreme-class count "
            f"{classes}: non-generic form, critical points may be missing"
        )
    ring = QuotientRing(gb, ns, budget)
    nvars = len(system.variables)
    var_monomials = [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]
    # the separating form's variables: all but each slot's chart coordinate
    free_vars = [var_monomials[v] for svars in system.slot_vars for v in svars[1:]]

    rng = np.random.default_rng(seed)
    eigvals = eigvecs = None
    for attempt in range(4):
        if attempt == 0 and free_vars:
            f = RationalPoly(system.variables, {free_vars[0]: _ONE})
        else:
            coeffs = rng.integers(-9, 10, size=len(free_vars))
            terms = {m: _Q(int(c)) for m, c in zip(free_vars, coeffs) if c}
            if not terms:
                continue
            f = RationalPoly(system.variables, terms)
        marr = _float_matrix(ring.mult_matrix_exact(f), dim)
        vals, vecs = np.linalg.eig(marr.T)
        scale = 1.0 + float(np.abs(vals).max(initial=0.0))
        sv = np.sort_complex(vals)
        if not np.any(np.abs(np.diff(sv)) <= 1e-7 * scale):
            eigvals, eigvecs = vals, vecs
            break
        flags.append(
            "repeated eigenvalue for multiplication matrix of "
            f"{f}; retrying with a random linear form"
        )
    if eigvals is None:
        raise NotZeroDimensionalError(
            "could not separate solutions: multiplication matrices have "
            "repeated eigenvalues after retries (non-generic form?)"
        )

    const = eigvecs[ns.monomials.index((0,) * nvars)]
    solved = np.abs(const) > 1e-8 * np.linalg.norm(eigvecs, axis=0)
    nf = _float_matrix([ring.monomial_vector(m) for m in var_monomials], dim).T
    coords = nf @ (eigvecs[:, solved] / const[solved])
    blocks = [coords[list(svars)] for svars in system.slot_vars]
    real = np.all([
        np.abs(b.imag).max(axis=0) <= REALNESS_TOL * (1.0 + np.linalg.norm(b, axis=0))
        for b in blocks
    ], axis=0)
    slots = [b.real[:, real].T for b in blocks]
    for s in slots:  # unit rows, then multiform.canonical_signs row by row
        s /= np.linalg.norm(s, axis=1)[:, None]
        lead = s[np.arange(len(s)), np.argmax(s != 0.0, axis=1)]
        s *= np.where(lead < 0.0, -1.0, 1.0)[:, None]
    values, residuals = multiform._assess(
        form.tensor, multiform._subscripts(form.order), slots
    )
    dropped = residuals > RESIDUAL_TOL * (1.0 + np.abs(values))
    flags += [f"discarded point with residual {r:.3e} above tolerance"
              for r in residuals[dropped]]
    points = [
        CriticalPoint(tuple(s[k].copy() for s in slots), float(values[k]),
                      float(residuals[k]))
        for k in np.flatnonzero(~dropped)
    ]
    degenerate = dim - int(solved.sum())
    if degenerate:
        flags.append(
            f"{degenerate} eigenvector(s) with near-zero constant coordinate skipped"
        )
    points.sort(key=functools.cmp_to_key(_point_order))
    max_value = abs(points[0].value) if points else float("nan")
    if not points:
        flags.append("no real critical points recovered")
    return SolveReport(
        quotient_dim=dim,
        eigenvalues=tuple(complex(x) for x in eigvals),
        max_value=float(max_value),
        points=tuple(points),
        genericity_flags=tuple(flags),
        timings=_stage_times(marks),
    )
