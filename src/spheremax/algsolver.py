"""Exact algebraic pipeline for the sphere-product maximum.

The critical points of a multilinear form over a product of unit spheres are
the solutions of a polynomial system: the 2x2 minors x_j dl/dx_i = x_i dl/dx_j
per slot, closed off either by sphere equations ||x||^2 = 1 (one per slot) or
by affine chart equations x_first = 1.  The system is solved exactly: a
reduced Groebner basis over Q, the standard-monomial basis of the quotient
ring, and multiplication matrices whose eigenvalues are the values of a
polynomial at the solutions (Eigenvalue Theorem).  Floating point enters only
at the eigenvalue stage.

Rational arithmetic uses gmpy2.mpq when available and fractions.Fraction
otherwise.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from decimal import Decimal

import numpy as np

from . import multiform
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NotZeroDimensionalError,
    PreconditionViolatedError,
)
from .linalg import Matrix
from .multiform import MultilinearForm

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    _Q = Fraction

_ZERO = _Q(0)
_ONE = _Q(1)

DEFAULT_REDUCTION_BUDGET = 10**6
REALNESS_TOL = 1e-8
RESIDUAL_TOL = 1e-6

_SLOT_LETTERS = "xyztuw"


def rationalize(value) -> "_Q":
    """Exact rational from the decimal representation of a scalar.

    Floats go through their shortest round-tripping decimal string, so JSON
    input like 0.5435016101 becomes 5435016101/10^10 exactly.
    """
    if isinstance(value, (int, np.integer)):
        return _Q(int(value))
    if isinstance(value, Fraction):
        return _Q(value.numerator, value.denominator)
    if isinstance(value, float) or isinstance(value, np.floating):
        f = Fraction(Decimal(repr(float(value))))
        return _Q(f.numerator, f.denominator)
    return _Q(value)


# ---------------------------------------------------------------------------
# monomial order: graded reverse lexicographic over the full variable list
# ---------------------------------------------------------------------------

def grevlex_key(m):
    """Sort key; larger key = larger monomial in grevlex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _heap_key(m):
    """Min-heap key so the heap pops the grevlex-largest monomial first."""
    return (-sum(m), tuple(reversed(m)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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
            c = _Q(c)
            if c:
                clean[exps] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self):
        return max(self.terms, key=grevlex_key)

    def evaluate(self, values: dict):
        total = _ZERO
        for exps, c in self.terms.items():
            t = c
            for name, e in zip(self.variables, exps):
                if e:
                    t = t * values[name] ** e
            total += t
        return total

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
    """Critical system plus chart closure; chart is 'sphere' or 'affine'."""

    polys: tuple
    chart: str
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
# Buchberger engine.  Basis polynomials are kept as dicts {exps: int} with
# integer coefficients, primitive (content 1) and positive leading
# coefficient; reduction is fraction-free (pseudo-division with content
# stripping), which keeps the classic coefficient swell of monic rational
# reduction in check.  Exact rational normal forms against the final reduced
# basis live in QuotientRing below.
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


def _to_integer_primitive(terms):
    """Clear denominators and strip content; leading coefficient positive."""
    if not terms:
        return {}
    den = 1
    for c in terms.values():
        den = den * int(c.denominator) // math.gcd(den, int(c.denominator))
    ints = {m: int(c.numerator) * (den // int(c.denominator)) for m, c in terms.items()}
    return _strip_content(ints)


def _strip_content(ints):
    if not ints:
        return {}
    g = 0
    for c in ints.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    lm = max(ints, key=grevlex_key)
    if ints[lm] < 0:
        g = -g
    if g not in (1, 0):
        ints = {m: c // g for m, c in ints.items()}
    elif g == -1:
        ints = {m: -c for m, c in ints.items()}
    return ints


def _normal_form(p, reducers, budget):
    """Fraction-free full normal form of an integer dict-poly.

    reducers: list of (lm, lc, tail) with integer primitive coefficients,
    tail excluding the leading term.  The result equals the true normal form
    up to a positive rational scalar; it is returned content-stripped.
    """
    work = {m: c for m, c in p.items() if c}
    heap = [(_heap_key(m), m) for m in work]
    heapq.heapify(heap)
    rem = {}
    steps = 0
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        hit = None
        for lm, lc, tail in reducers:
            if _divides(lm, m):
                hit = (lm, lc, tail)
                break
        if hit is None:
            rem[m] = c
            continue
        budget.spend()
        lm, lc, tail = hit
        g = math.gcd(c, lc)
        mult = lc // g
        fac = c // g
        if mult != 1:
            for k in work:
                work[k] *= mult
            for k in rem:
                rem[k] *= mult
        shift = _sub(m, lm)
        for t, tc in tail.items():
            mm = _mul(t, shift)
            prev = work.get(mm)
            if prev is None:
                work[mm] = -fac * tc
                heapq.heappush(heap, (_heap_key(mm), mm))
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


def _spoly(lm_f, f, lm_g, g):
    """Integer S-polynomial of primitive integer polys f, g."""
    l = _lcm(lm_f, lm_g)
    sf = _sub(l, lm_f)
    sg = _sub(l, lm_g)
    lcf = f[lm_f]
    lcg = g[lm_g]
    d = math.gcd(lcf, lcg)
    af = lcg // d
    ag = lcf // d
    out = {}
    for m, c in f.items():
        out[_mul(m, sf)] = af * c
    for m, c in g.items():
        mm = _mul(m, sg)
        prev = out.get(mm)
        nv = (prev - ag * c) if prev is not None else -ag * c
        if nv:
            out[mm] = nv
        elif prev is not None:
            del out[mm]
    return out


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class _Engine:
    """Buchberger with the Gebauer-Moeller pair criteria and normal
    (minimal-lcm) selection.  All polynomials are primitive integer dicts."""

    def __init__(self, nvars, budget):
        self.nvars = nvars
        self.budget = budget
        self.polys = []   # full primitive integer dicts
        self.lms = []
        self.lcs = []
        self.tails = []   # dicts excluding the leading term
        self.alive = []
        self.pairs = []   # heap of (heap_key(lcm), lcm, i, j)

    def _reducers(self):
        idx = [i for i in range(len(self.polys)) if self.alive[i]]
        idx.sort(key=lambda i: grevlex_key(self.lms[i]))
        return [(self.lms[i], self.lcs[i], self.tails[i]) for i in idx]

    def add(self, p):
        r = _normal_form(p, self._reducers(), self.budget)
        if r:
            self._update(r)

    def _update(self, h):
        lmh = max(h, key=grevlex_key)
        hidx = len(self.polys)
        self.polys.append(h)
        self.lms.append(lmh)
        self.lcs.append(h[lmh])
        self.tails.append({m: c for m, c in h.items() if m != lmh})
        self.alive.append(True)
        others = [i for i in range(hidx) if self.alive[i]]
        # Gebauer-Moeller: filter new pairs (h, g)
        cand = [(_lcm(lmh, self.lms[g]), g) for g in others]
        kept = []
        for pos, (l, g) in enumerate(cand):
            if _coprime(lmh, self.lms[g]):
                kept.append((l, g, True))
                continue
            dominated = False
            for pos2, (l2, g2) in enumerate(cand):
                if pos2 == pos:
                    continue
                if _divides(l2, l) and l2 != l:
                    dominated = True
                    break
                if l2 == l and pos2 < pos:
                    dominated = True
                    break
            if not dominated:
                kept.append((l, g, False))
        # filter old pairs against the new leading monomial
        newpairs = []
        for key, l, i, j in self.pairs:
            if (
                not _divides(lmh, l)
                or _lcm(self.lms[i], lmh) == l
                or _lcm(self.lms[j], lmh) == l
            ):
                newpairs.append((key, l, i, j))
        for l, g, coprime_pair in kept:
            if not coprime_pair:
                newpairs.append((grevlex_key(l), l, g, hidx))
        heapq.heapify(newpairs)
        self.pairs = newpairs
        for g in others:
            if _divides(lmh, self.lms[g]):
                self.alive[g] = False

    def run(self):
        while self.pairs:
            _, l, i, j = heapq.heappop(self.pairs)
            s = _spoly(self.lms[i], self.polys[i], self.lms[j], self.polys[j])
            r = _normal_form(s, self._reducers(), self.budget)
            if r:
                self._update(r)
        return self._interreduce()

    def _interreduce(self):
        idx = [i for i in range(len(self.polys)) if self.alive[i]]
        # drop redundant leading monomials
        minimal = []
        for i in sorted(idx, key=lambda i: grevlex_key(self.lms[i])):
            if not any(_divides(self.lms[j], self.lms[i]) for j in minimal):
                minimal.append(i)
        out = []
        for i in minimal:
            others = [
                (self.lms[j], self.lcs[j], self.tails[j])
                for j in minimal
                if j != i
            ]
            r = _normal_form(self.polys[i], others, self.budget)
            lm = max(r, key=grevlex_key)
            lc = r[lm]
            out.append({m: _Q(c, lc) for m, c in r.items()})
        out.sort(key=lambda p: grevlex_key(max(p, key=grevlex_key)))
        return out


def groebner(system: PolySystem, budget: int = DEFAULT_REDUCTION_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the system's ideal, exact arithmetic.

    Raises BudgetExceededError when the configured number of reduction steps
    is exhausted (the instance is too large).
    """
    variables = system.variables
    eng = _Engine(len(variables), _Budget(budget))
    polys = sorted(
        (_to_integer_primitive(p.terms) for p in system.polys if not p.is_zero()),
        key=lambda t: grevlex_key(max(t, key=grevlex_key)),
    )
    for t in polys:
        eng.add(t)
    basis = eng.run()
    return GroebnerBasis(
        basis=tuple(RationalPoly(variables, p) for p in basis),
        variables=variables,
    )


def verify_buchberger_certificate(gb: GroebnerBasis,
                                  budget: int = DEFAULT_REDUCTION_BUDGET) -> bool:
    """Every S-polynomial of the basis reduces to zero (exact check)."""
    int_polys = []
    for p in gb.basis:
        ints = _to_integer_primitive(p.terms)
        int_polys.append((max(ints, key=grevlex_key), ints))
    int_polys.sort(key=lambda t: grevlex_key(t[0]))
    reducers = [
        (lm, d[lm], {m: c for m, c in d.items() if m != lm})
        for lm, d in int_polys
    ]
    b = _Budget(budget)
    for (lm_f, f), (lm_g, g) in itertools.combinations(int_polys, 2):
        s = _spoly(lm_f, f, lm_g, g)
        if _normal_form(s, reducers, b):
            return False
    return True


def _monic_reducers(gb: GroebnerBasis):
    """(leading monomial, monic tail) pairs, ascending leading monomial."""
    pairs = []
    for p in gb.basis:
        lm = p.leading_monomial()
        inv = _ONE / p.terms[lm]
        pairs.append((lm, {m: c * inv for m, c in p.terms.items() if m != lm}))
    pairs.sort(key=lambda t: grevlex_key(t[0]))
    return pairs


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
    """Quotient ring C[vars]/<gb> with memoized monomial normal forms,
    expressed as coordinate vectors over the standard-monomial basis."""

    def __init__(self, gb: GroebnerBasis, ns: NormalSet,
                 budget: int = DEFAULT_REDUCTION_BUDGET):
        self.gb = gb
        self.ns = ns
        self.index = {m: i for i, m in enumerate(ns.monomials)}
        self.reducers = _monic_reducers(gb)
        self.budget = _Budget(budget)
        self._cache = {}

    def monomial_vector(self, m) -> dict:
        """NF(x^m) as a sparse {basis index: coefficient} dict."""
        cache = self._cache
        idx = self.index
        stack = [m]
        while stack:
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            i = idx.get(cur)
            if i is not None:
                cache[cur] = {i: _ONE}
                stack.pop()
                continue
            hit = None
            for lm, tail in self.reducers:
                if _divides(lm, cur):
                    hit = (lm, tail)
                    break
            if hit is None:  # pragma: no cover - gb/ns inconsistency
                raise NotZeroDimensionalError(
                    f"monomial {cur} neither standard nor reducible"
                )
            lm, tail = hit
            shift = _sub(cur, lm)
            children = [(_mul(t, shift), tc) for t, tc in tail.items()]
            missing = [ch for ch, _ in children if ch not in cache]
            if missing:
                stack.extend(missing)
                continue
            self.budget.spend()
            vec = {}
            for ch, tc in children:
                for k, v in cache[ch].items():
                    nv = vec.get(k, _ZERO) - tc * v
                    if nv:
                        vec[k] = nv
                    elif k in vec:
                        del vec[k]
            cache[cur] = vec
            stack.pop()
        return cache[m]

    def mult_matrix_exact(self, f: RationalPoly):
        """Columns of the multiplication-by-f map over the standard basis,
        exact, as a list of sparse column dicts."""
        cols = []
        for b in self.ns.monomials:
            col = {}
            for m, c in f.terms.items():
                for k, v in self.monomial_vector(_mul(m, b)).items():
                    nv = col.get(k, _ZERO) + c * v
                    if nv:
                        col[k] = nv
                    elif k in col:
                        del col[k]
            cols.append(col)
        return cols


def _float_matrix(cols, rows: int) -> np.ndarray:
    """Dense float matrix from exact sparse column dicts."""
    out = np.zeros((rows, len(cols)))
    for j, col in enumerate(cols):
        for i, c in col.items():
            out[i, j] = float(c)
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
    return PolySystem(
        polys=tuple(polys), chart=chart, variables=names, slot_vars=slot_vars
    )


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
    fixed-point residual), and reported by decreasing |l|.
    """
    n = [d - 1 for d in form.dims]
    if not force and any(2 * ni > sum(n) for ni in n):
        raise PreconditionViolatedError(
            f"dimension inequality 2*n_i <= sum(n_j) fails for dims {form.dims}; "
            "pass force=True to run the affine chart anyway"
        )
    system, gb, ns, marks = _quotient(form, "affine", budget)
    ring = QuotientRing(gb, ns, budget)
    nvars = len(system.variables)
    var_monomials = [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]
    # the separating form's variables: all but each slot's chart coordinate
    free_vars = [var_monomials[v] for svars in system.slot_vars for v in svars[1:]]
    flags = []

    rng = np.random.default_rng(seed)
    dim = len(ns)
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

    const = eigvecs[ring.index[(0,) * nvars]]
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
    points.sort(key=lambda p: -abs(p.value))
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
