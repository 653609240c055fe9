"""Exact algebraic pipeline for the sphere-product maximum.

The critical points of a multilinear form over a product of unit spheres are
the solutions of a polynomial system: the 2x2 minors x_j dl/dx_i = x_i dl/dx_j
per slot, closed off either by affine chart equations x_first = 1 or by
sphere equations ||x||^2 = 1 (one per slot).  The system is solved exactly:
a reduced Groebner basis over Q, the standard-monomial basis of the quotient
ring, and multiplication matrices whose eigenvalues are the values of a
polynomial at the solutions (Eigenvalue Theorem).  Floating point enters only
at the eigenvalue stage, and in the point proof of the basis, whose every
rounding is bounded.

The exact loops run on plain Python ints.  A monomial is one packed int (see
_Monomials), Buchberger's algorithm reduces fraction-free integer
polynomials, and the quotient ring keeps each normal form as an integer
vector over one positive denominator.  A basis element has one layout, the
reducer record (probe, leading monomial, leading coefficient, tail), which
Buchberger's loop, its zero test and certificate, the normal set and the
quotient ring all read.  Rationals (fractions.Fraction) appear only at the
boundary: in RationalPoly, GroebnerBasis and the input coefficients.

Once the basis coefficients pass _ZERO_TEST_BITS bits, Buchberger's
algorithm first reduces each S-polynomial modulo one 61-bit prime, in the
mod-p mode of the same _normal_form loop (no content strip there: p may
divide the content of unreduced coefficients), and skips the exact reduction
of those that vanish (Traverso's trace idea).  The result is interreduced by
ascending leading monomial and certified exactly, once: every S-pair of the
final basis that survives the Gebauer-Moeller criteria, and every input,
reduces to zero (the verify-once step of Arnold's modular algorithms), read
by linearity from the memoized normal forms of its monomials.  A failed
certificate sends the skipped pairs back through exact reduction, so the
basis is always the exact one.

The solvers also pass groebner() the quotient dimension D of a generic
form's system (the class count of Friedland and Ottaviani, 2^r times it on
the sphere chart).  A run given D stops as soon as its live leading
monomials leave exactly D standard monomials, and the pairs still queued
join the skipped ones, unreduced (the Hilbert-driven stop of Traverso,
1996).  That is sound: every basis element is an exact reduction, so the
basis lies in the ideal, and the certificate checks every surviving pair
and every input, so a passing one proves a Groebner basis.  For a generic
form the leading ideal is then complete, as a smaller one would leave more
than D standard monomials, and the certificate passes; a non-generic form
can meet D early, fail it and resume.

The affine chart's runs prove the basis by its solutions in place of the
certificate: the eigen-solve of the candidate basis yields D points, and
Krawczyk's test boxes each in its own polydisc around a zero of the chart's
square subsystem that is a zero of the ideal, every slot's x_s.x_s off zero
over the box, so the ideal has at least D zeros and a quotient of dimension
at least D = |std(G)|, and the leading ideals agree (see _prove_points).  A
failed proof runs the certificate, and a failed certificate resumes the
run; a basis groebner() gave without a proof gets its points proved after
it.  Proved points are every zero of the ideal, each simple, so they are
the answer too: solve_argmax scores them, and solve_max lifts them to the
spheres, each slot divided by sqrt(x_s.x_s).  A proved quotient equal to
the class count leaves no class off the chart, and where every x_s.x_s is
nonzero the map from sphere points to classes is 2^r-to-1 and étale, so
the lifts and their sign images are every zero of the sphere chart's ideal,
each simple, and l at them is the spectrum of M_l there (Eigenvalue
Theorem).  Only a form whose affine points are not proved runs the sphere
chart's system, its basis proved by the count stop and the certificate, and
reads the eigenvalues of M_l.

A bilinear form l = x^T A y needs no Groebner basis when its singular values
are distinct and nonzero.  Its critical values are +-sigma_i, and sigma_i^2
are the roots of p = det(mu I - G), G the integer Gram matrix of A's
smaller side (d = min(n, m) rows), read at unit scale through rationalize
over one common denominator.  p comes from Berkowitz's division-free
algorithm and its distinct roots in (0, infinity) are counted by one exact
Sturm sequence, both over Python ints (intpoly).  When that count is d, the minors
give A y = lambda x, A^T x = lambda y with lambda != 0, so G y = lambda^2 y
on the smaller side: y = +-v_i, lambda = +-sigma_i and x = A y / lambda,
exactly 4d zeros of the sphere chart's ideal, each simple, since a tangent
vector (xi, eta) solves G eta = sigma^2 eta with v.eta = 0 (solve_max
writes the proof out).  The quotient dimension is 4d, and the points are
np.linalg.svd's pairs, scored like the lift's.  When the count is short (a
tied or zero singular value) solve_max runs the charts as above, and
_exact_max answers a nonzero matrix from the largest root of p, which the
Sturm counts locate whether roots repeat or not, and runs no chart.

A trilinear form with a slot of dimension 2 needs no Groebner basis
either, generic or not (the pencil kernel: _pencil_max and the pencil
module).  With that slot first, l(x, y, z) = y^T (x_1 a + x_2 b) z, so
max |l| is the largest top singular value of the pencil x_1 a + x_2 b over
the unit circle.  Read a
and b through rationalize over one common denominator D, so A = D a and
B = D b are integer, and take x = u / |u|, u = (1, t): G(t) = G_0 + t G_1 +
t^2 G_2, the integer Gram matrix of A + t B on its smaller side (size k),
is (1 + t^2) times that of D (x_1 a + x_2 b).  Let top(t) be the largest
squared singular value of the latter, continuous on the circle (the real
line and the point t = infinity, x = (0, 1), where it is G_2's largest
eigenvalue), and mu* its maximum: the maximum of |l| is sqrt(mu*) / D.
T(mu) asks whether mu is a squared singular value somewhere on the
circle: whether P_mu(t) = det(mu (1 + t^2) I - G(t)), an integer polynomial
of degree at most 2k whose t^2k coefficient is det(mu I - G_2), drops
degree (a root at t = infinity, checked apart, as it is when P_mu vanishes
identically) or else has a real root, which one Sturm sequence over the
line counts (intpoly.real_roots).  Then:

- T(mu) true gives mu <= mu*, as no squared singular value exceeds the top
  one at its point.
- T is monotone above the top branch's minimum.  The circle is connected,
  so top takes every value between top(t0) and mu*, for any t0: T(mu) is
  true on [top(t0), mu*] and false above mu*.  So T(mu) false and
  mu >= top(t0) give mu > mu*.  The top(t0) check is needed, because
  below the top branch's minimum T can read false in a gap between
  branches.  A pencil whose top singular value is constant shows it: for
  a = I and b a rotation by 90 degrees, P_mu = (mu - 1)^2 (1 + t^2)^2 has no
  real root for mu < 1 = mu* and vanishes identically at mu = 1.
- mu <= top(t0) is decided exactly too: at the direction (alpha, beta),
  two ints, t0 = beta / alpha, the matrix mu (alpha^2 + beta^2) I -
  (alpha^2 G_0 + alpha beta G_1 + beta^2 G_2) is not positive definite,
  which the signs of its characteristic polynomial show (Berkowitz); the
  point t = infinity is (0, 1) there, no special case.

So every mu is decided: mu <= mu* when mu <= top(t0) or T(mu), else
mu > mu*.  A float search gives the point (a batched eigh of the Gram
matrix over a grid of angles, then Newton steps on the derivative of top in
the angle); its |value| v, times D, squared, is mu-hat, and t0 is its
direction.  The certificate: mu-hat (1 - 2^-44) <= top(t0), and mu-hat (1 +
2^-44) > top(t0) with T false there, one Sturm test and two k x k
Berkowitz runs in all; the lower end needs no Sturm test, and reads true
below the top branch's minimum, where T might not.  Then v is the maximum
within 2^-44 relative.  A failed certificate bisects on mu with the same
two predicates, from the ends it established, to a bracket 2^-44 of its
upper end wide.  No chart runs, so the critical set need not be
zero-dimensional, and the report holds no quotient.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from decimal import Decimal

import numpy as np

from . import chowcount, intpoly, multiform, pencil, poweriter
from .errors import (BudgetExceededError, DimensionMismatchError, NotZeroDimensionalError,
                     SphereMaxError, integers)
from .linalg import Matrix
from .multiform import MultilinearForm

_Q = Fraction
_ONE = _Q(1)

DEFAULT_REDUCTION_BUDGET = 10**6
REALNESS_TOL = 1e-8
RESIDUAL_TOL = 1e-6
_TIE_TOL = 1e-12
_NORM_TOL = 1e-9
_AGREE_TOL = 1e-9      # an ascent backs solve_max's value within this, relative

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
      a mask test on every field's guard bit decide (``probe``).

    Every degree stays below the guard bit, 2^15, so no field can overflow:
    ``pack`` checks the degree of each input monomial, ``lcm`` that of every
    pair Buchberger's algorithm forms and QuotientRing.mult_matrix_exact
    that of its products, and reduction never raises a degree.  Past the
    limit they raise BudgetExceededError.
    """

    __slots__ = ("nvars", "shift", "mask", "ones", "guard", "units", "tops")

    def __init__(self, nvars):
        self.nvars = nvars
        self.shift = _FIELD * nvars
        self.mask = (1 << self.shift) - 1
        self.ones = sum(1 << (_FIELD * i) for i in range(nvars))  # 1 per field
        self.guard = self.ones << (_FIELD - 1)
        # each variable packed: degree 1, a 1 in its field
        self.units = [(1 << self.shift) - (1 << (_FIELD * v)) for v in range(nvars)]
        # x_v to the top degree: a monomial other than 1 divides it iff it is
        # a power of x_v
        self.tops = [(_DEGREE_LIMIT - 1) * unit for unit in self.units]

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
            exps = integers(exps, "exponents", ValueError)
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

    @classmethod
    def _trusted(cls, variables, terms):
        """The poly of a tuple of names and a dict of nonzero Fractions keyed
        by tuples of ints, as the solver builds them, without re-validating
        them: what __post_init__ would return."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def is_zero(self) -> bool:
        return not self.terms

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


class GroebnerBasis:
    """Reduced, monic Groebner basis under grevlex.  groebner() keeps the
    basis's _reducer records, which the normal set, the quotient ring and
    the certificate read, and builds the monic rational ``basis`` from them
    only when it is first read; a basis built any other way has no records."""

    __slots__ = ("_basis", "variables", "_records")
    __hash__ = None

    def __init__(self, basis, variables):
        self._basis = basis
        self.variables = variables
        self._records = None

    @classmethod
    def _from_records(cls, records, variables):
        gb = cls(None, variables)
        gb._records = tuple(records)
        return gb

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            mono = _Monomials(len(self.variables))
            self._basis = tuple(
                RationalPoly._trusted(self.variables, {
                    mono.unpack(m): Fraction(c, lc) for m, c in {lm: lc, **tail}.items()})
                for _, lm, lc, tail in self._records)
        return self._basis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.basis, self.variables) == (other.basis, other.variables)

    def __repr__(self):
        return f"GroebnerBasis(basis={self.basis!r}, variables={self.variables!r})"


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
# primitive (content 1) with a positive leading coefficient, each laid out
# once as its _reducer record (probe, leading monomial, leading coefficient,
# tail); every exact reduction reads that record.  Reduction is
# fraction-free (pseudo-division with content stripping), which keeps the
# classic coefficient swell of monic rational reduction in check.  Rationals
# appear only where groebner() converts its input and its result.  Exact
# normal forms against the final reduced basis live in QuotientRing below.
#
# Most S-pairs reduce to zero, and on the heavy forms the intermediate basis
# holds ~3,600-bit coefficients against ~300 bits in the final one, so those
# zero reductions are most of the time.  Past _ZERO_TEST_BITS a pair is
# first reduced mod _PRIME by _normal_form itself, against the monic images
# of the live polys: the same loop, heap order, reducer choice and budget
# spend, minus the content strip (p may divide the content of the lazily
# reduced coefficients).  A zero there skips the exact reduction.  Skipping a
# true zero changes nothing, since a zero remainder adds no basis element;
# a false zero (a nonzero remainder divisible by _PRIME) is caught by the
# exact certificate in groebner().  The line is the measured break-even:
# below ~2,000 bits the mod-p pass costs about what it saves.
# _interreduce reduces the minimal elements in ascending order, each against
# those already reduced (a reducer of a tail term t has lm <= t), so the wide
# unreduced ones never enter.  _certify passes sum(c x^t) when
# sum(c NF(x^t)) = 0, NF memoized per monomial: each x^t - NF(x^t) is a sum
# of basis multiples with leading monomials <= t, so a passing S-pair has a
# standard representation below its lcm (Buchberger's criterion,
# Cox-Little-O'Shea 2.9); on a Groebner basis NF is unique and linear, so
# every pair passes.
# ---------------------------------------------------------------------------

_PRIME = 2**61 - 1        # modulus of the zero test
_ZERO_TEST_BITS = 2048    # basis coefficient bit length that starts it

class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(
                f"reduction budget {self.limit} exhausted"
            )


def _clear_denominators(terms, mono):
    """(den, {packed monomial: int}) from {exponent tuple: rational}, den the
    least common denominator: the one step from rationals to integers."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {mono.pack(m): c.numerator * (den // c.denominator)
                 for m, c in terms.items()}


def _to_integer_primitive(terms, mono):
    """Packed integer polynomial from {exponent tuple: rational}: clear
    denominators and strip content; leading coefficient positive."""
    return _strip_content(_clear_denominators(terms, mono)[1])


def _content(*polys):
    """The gcd of every coefficient of the packed polys, stopping at 1."""
    g = 0
    for p in polys:
        for c in p.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
    return g


def _strip_content(ints):
    if not ints:
        return {}
    g = _content(ints)
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {m: c // g for m, c in ints.items()}
    return ints


def _reducer(p, mono):
    """The record (probe, leading monomial, leading coefficient, tail) of a
    primitive integer poly: the one layout every exact reduction reads."""
    lm = max(p)
    return mono.probe(lm), lm, p[lm], {m: c for m, c in p.items() if m != lm}


def _records(gb, mono):
    """The _reducer records of a GroebnerBasis, ascending by leading
    monomial: those groebner() kept, else built from the basis."""
    if gb._records is not None:
        return list(gb._records)
    records = (_reducer(_to_integer_primitive(p.terms, mono), mono) for p in gb.basis)
    return sorted(records, key=lambda r: r[1])


def _normal_form(p, reducers, mono, budget, modulus=0):
    """Fraction-free full normal form of a packed integer polynomial.

    reducers: _reducer records with integer primitive coefficients; the
    first whose leading monomial divides a term reduces it.  The result
    equals the true normal form up to a positive rational scalar; it is
    returned content-stripped.

    With a prime ``modulus`` and monic reducers it is the zero test mod p:
    each popped coefficient is reduced mod p, a term that vanishes there is
    dropped unspent, and the first term no reducer divides is returned
    alone, so the result is nonzero iff the normal form mod p is.  The
    content strip is off then: p can divide the content of the lazily
    reduced coefficients, and dividing it out would make zeros nonzero.
    """
    guard = mono.guard
    work = {m: c for m, c in p.items() if c}
    heap = [-m for m in work]  # pops the grevlex-largest monomial first
    heapq.heapify(heap)
    rem = {}
    steps = 0
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, 0)
        if modulus:
            c %= modulus
        if not c:
            continue
        for probe, lm, lc, tail in reducers:
            if not (m - probe) & guard:
                break
        else:
            if modulus:
                return {m: c}
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
        if steps % 32 == 0 and work and not modulus:
            g = _content(work, rem)
            if g > 1:
                for k in work:
                    work[k] //= g
                for k in rem:
                    rem[k] //= g
    return _strip_content(rem)


def _spoly(f, g, lcm):
    """Integer S-polynomial of the records f, g, formed from the tails (the
    leading terms cancel); lcm is the packed lcm of their leading monomials."""
    _, lm_f, lcf, tail_f = f
    _, lm_g, lcg, tail_g = g
    sf = lcm - lm_f
    sg = lcm - lm_g
    d = math.gcd(lcf, lcg)
    af = lcg // d
    ag = lcf // d
    out = {m + sf: af * c for m, c in tail_f.items()}
    for m, c in tail_g.items():
        mm = m + sg
        prev = out.get(mm)
        nv = (prev - ag * c) if prev is not None else -ag * c
        if nv:
            out[mm] = nv
        elif prev is not None:
            del out[mm]
    return out


def _new_pairs(lmh, others, mono):
    """The pairs (g, h) of a new leading monomial lmh that survive the
    Gebauer-Moeller criteria, as [(lcm, g)] in the order of ``others``, the
    (g, lm_g) of the live polys.  Walked in (lcm, g) order, a pair is
    dominated iff the lcm of an earlier undominated pair divides its lcm: a
    divisor of an lcm sorts before it in grevlex, and of equal lcms the
    lowest g stays.  A coprime pair is never kept, but its lcm dominates."""
    guard = mono.guard
    cand = [(mono.lcm(lmh, lm), g, lm) for g, lm in others]
    undominated = []
    keep = set()
    for l, g, lm in sorted(cand):
        top = l - guard - 1  # l2 | l iff not (top - l2) & guard
        if any(not (top - l2) & guard for l2 in undominated):
            continue
        undominated.append(l)
        if l != lmh + lm:
            keep.add(g)
    return [(l, g) for l, g, _ in cand if g in keep]


class _Engine:
    """Buchberger with the Gebauer-Moeller pair criteria and normal
    (minimal-lcm) selection.  Past ``line`` basis coefficient bits, run()
    skips the pairs that vanish mod _PRIME and keeps them in ``skipped``.
    Given the quotient dimension of a generic system, run() stops once the
    live leading monomials leave exactly that many standard monomials; the
    pairs still queued join ``skipped``, for the point proof or the
    certificate to decide."""

    def __init__(self, mono, budget, quotient_dim=None):
        self.mono = mono
        self.budget = budget
        self.quotient_dim = quotient_dim
        self.records = []  # _reducer record of each poly, by index
        self.live = []     # indices no later leading monomial divides, by lm
        self.reducers = []  # their records, in that order
        self.pairs = []   # heap of (lcm, i, j)
        self.bits = 0     # peak coefficient bit length of the basis
        self.line = _ZERO_TEST_BITS
        self.images = {}  # poly index -> _image, built at its first use
        self.live_images = None  # _image of each live poly, built at first use
        self.skipped = []  # pairs whose S-polynomial vanished mod _PRIME
        self.counted = 0   # the record count at the last count of the live set
        self.standard = None  # the standard set, once a walk ends within 2 D
        self.unbounded = list(range(mono.nvars))  # variables with no pure power lm

    def add(self, p):
        r = _normal_form(p, self.reducers, self.mono, self.budget)
        if r:
            self._update(_reducer(r, self.mono))

    def _update(self, rec):
        mono = self.mono
        guard = mono.guard
        records = self.records
        probe, lmh, lc, tail = rec
        hidx = len(records)
        records.append(rec)
        self.bits = max(self.bits, max([lc, *map(abs, tail.values())]).bit_length())
        # filter old pairs against the new leading monomial
        newpairs = []
        for l, i, j in self.pairs:
            if (
                (l - probe) & guard
                or mono.lcm(records[i][1], lmh) == l
                or mono.lcm(records[j][1], lmh) == l
            ):
                newpairs.append((l, i, j))
        # by index: the order the new pairs join the heap in
        others = [(g, records[g][1]) for g in sorted(self.live)]
        newpairs += [(l, g, hidx) for l, g in _new_pairs(lmh, others, mono)]
        heapq.heapify(newpairs)
        self.pairs = newpairs
        self.live = [g for g in self.live if (records[g][1] - probe) & guard]
        bisect.insort(self.live, hidx, key=lambda g: records[g][1])
        self.reducers = [records[g] for g in self.live]
        self.live_images = None

    def run(self):
        while self.pairs:
            if (self.quotient_dim and self.counted != len(self.records)
                    and self._meets_count()):
                self.skipped += self.pairs
                self.pairs = []
                break
            l, i, j = heapq.heappop(self.pairs)
            if self.bits > self.line and self._vanishes_mod_p(l, i, j):
                self.skipped.append((l, i, j))
                continue
            self.add(_spoly(self.records[i], self.records[j], l))
        return self._interreduce()

    def _meets_count(self):
        """Whether the live leading monomials leave exactly quotient_dim
        standard monomials.  A new leading monomial removes its multiples
        from the standard set and adds none, so once a walk ends within
        twice quotient_dim (the first finite walk of the generic runs
        measured held at most 1.2 times it), the run keeps that set and
        filters it by each new leading monomial, and once the set is
        smaller than quotient_dim it stops counting."""
        dim = self.quotient_dim
        new = self.records[self.counted:]
        self.counted = len(self.records)
        guard = self.mono.guard
        if self.standard is None:
            # a variable that no leading monomial bounds by a pure power
            # leaves infinitely many standard monomials, and stays bounded
            tops = self.mono.tops
            self.unbounded = [v for v in self.unbounded if not any(
                lm and not (tops[v] - probe) & guard for probe, lm, _, _ in new)]
            if self.unbounded:
                return False
            _, standard = _standard_monomials(self.reducers, self.mono, 2 * dim)
            if len(standard) <= 2 * dim:
                self.standard = standard
        else:
            for probe, _, _, _ in new:
                self.standard = [m for m in self.standard if (m - probe) & guard]
            standard = self.standard
        if self.standard is not None and len(standard) < dim:
            self.quotient_dim = None
        return len(standard) == dim

    def resume(self):
        """Reduce the skipped pairs exactly, with the zero test and the
        count stop off, and run on to a basis that needs no certificate."""
        self.line = math.inf
        self.quotient_dim = None
        self.pairs, self.skipped = self.skipped, []
        heapq.heapify(self.pairs)
        return self.run()

    def _image(self, i):
        """The monic image of poly i mod _PRIME as a _reducer record
        (probe, lm, 1, tail), the tail without the terms that vanish; None
        when its leading coefficient vanishes mod _PRIME."""
        if i not in self.images:
            probe, lm, lc, tail = self.records[i]
            self.images[i] = None
            if lc % _PRIME:
                inv = pow(lc, -1, _PRIME)
                tail = {m: c * inv % _PRIME for m, c in tail.items() if c % _PRIME}
                self.images[i] = (probe, lm, 1, tail)
        return self.images[i]

    def _vanishes_mod_p(self, l, i, j) -> bool:
        """Whether the S-polynomial of pair (i, j) reduces to zero mod
        _PRIME: _normal_form mod _PRIME over the images of the live polys.
        False, i.e. reduce exactly, when a leading coefficient among them
        vanishes mod _PRIME."""
        if self.live_images is None:
            self.live_images = [self._image(k) for k in self.live]
        fi, fj = self._image(i), self._image(j)
        if fi is None or fj is None or None in self.live_images:
            return False
        s = _spoly(fi, fj, l)
        return not _normal_form(s, self.live_images, self.mono, self.budget, _PRIME)

    def _interreduce(self):
        """The reduced basis as records, ascending by leading monomial.  No
        live leading monomial divides another (add reduces fully, then _update
        drops the live ones the new one divides), so only tails reduce."""
        out = []
        for _, lm, lc, tail in self.reducers:
            nf = _normal_form({lm: lc, **tail}, out, self.mono, self.budget)
            out.append(_reducer(nf, self.mono))
        return out


def _certify(basis, inputs, mono, budget) -> bool:
    """Exact check that the records ``basis``, ascending by leading
    monomial, are a Groebner basis (every S-pair that survives the
    Gebauer-Moeller criteria reduces to zero) whose ideal holds every poly
    of ``inputs``; both read by linearity from _NormalForms."""
    eng = _Engine(mono, budget)
    for rec in basis:
        eng._update(rec)
    forms = _NormalForms(eng.reducers, mono, budget)
    pairs = (_spoly(eng.records[i], eng.records[j], l) for l, i, j in eng.pairs)
    return not any(forms._poly_vector(list(p.items()), 1)[0]
                   for p in itertools.chain(pairs, inputs))


def groebner(system: PolySystem, budget: int = DEFAULT_REDUCTION_BUDGET,
             quotient_dim: int | None = None, *, _proof=None) -> GroebnerBasis:
    """Reduced Groebner basis of the system's ideal, exact arithmetic.

    Raises BudgetExceededError when the configured number of reduction steps
    is exhausted (the instance is too large).  When the engine skipped
    pairs by their zero test mod p, the basis is certified exactly before it
    is returned (every surviving S-pair and every input reduces to zero);
    if it fails, the skipped pairs are reduced exactly and the run goes on.

    ``quotient_dim`` is the quotient dimension the system has when it is
    generic.  Once the live leading monomials leave exactly that many
    standard monomials, the run stops, and the pairs still queued join the
    skipped ones.  The certificate makes that sound: the basis lies in the
    ideal, and a passing certificate proves it a Groebner basis.  On a
    generic system the leading ideal is then complete, every queued pair
    reduces to zero, and the certificate passes.  On any other it may fail,
    and the run resumes as above, so the basis is always the exact one.  A
    positive-dimensional ideal leaves infinitely many standard monomials,
    so its run never stops early.

    ``_proof`` is the solvers' point proof (see _quotient): a callable
    that takes the candidate basis and returns True only if it proves it a
    Groebner basis.  It is tried before the certificate; a solver error, a
    singular matrix or a float out of range in it counts as a failure
    (_proves).
    """
    variables = system.variables
    mono = _Monomials(len(variables))
    eng = _Engine(mono, _Budget(budget), quotient_dim)
    polys = sorted(
        (_to_integer_primitive(p.terms, mono) for p in system.polys if not p.is_zero()),
        key=max,
    )
    for t in polys:
        eng.add(t)
    gb = GroebnerBasis._from_records(eng.run(), variables)
    if (eng.skipped and not _proves(_proof, gb)
            and not _certify(list(gb._records), polys, mono, eng.budget)):
        gb = GroebnerBasis._from_records(eng.resume(), variables)
    return gb


def _proves(proof, gb) -> bool:
    """Whether ``proof``, if any, proves the candidate basis ``gb``.  A
    solver error (an infinite normal set, inseparable eigenvalues, the
    ring's budget), a singular matrix or a float out of range is no
    proof."""
    if proof is None:
        return False
    try:
        return proof(gb) is True
    except (SphereMaxError, np.linalg.LinAlgError, ArithmeticError, ValueError):
        return False


def verify_buchberger_certificate(gb: GroebnerBasis,
                                  budget: int = DEFAULT_REDUCTION_BUDGET) -> bool:
    """Every S-pair of the basis that survives the Gebauer-Moeller criteria
    reduces to zero (exact check): the certificate groebner() runs."""
    mono = _Monomials(len(gb.variables))
    return _certify(_records(gb, mono), (), mono, _Budget(budget))


# ---------------------------------------------------------------------------
# normal set and multiplication matrices
# ---------------------------------------------------------------------------

def _standard_monomials(records, mono, cap=math.inf):
    """(v, None) when no leading monomial of the _reducer ``records`` is a
    power of variable v, so the standard monomials are infinitely many;
    else (None, the standard monomials packed, unordered), the walk cut off
    once it holds more than ``cap`` of them."""
    guard = mono.guard
    units = mono.units
    for v, top in enumerate(mono.tops):
        if not any(lm and not (top - probe) & guard for probe, lm, _, _ in records):
            return v, None
    probes = [r[0] for r in records]
    seen = {0}
    standard = []
    queue = [0]  # the constant monomial
    while queue and len(standard) <= cap:
        m = queue.pop()
        if any(not (m - probe) & guard for probe in probes):
            continue
        standard.append(m)
        for unit in units:
            child = m + unit
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return None, standard


def normal_set(gb: GroebnerBasis) -> NormalSet:
    """Standard monomials (those outside the leading-term ideal), ascending
    under grevlex, constant monomial first.  Raises NotZeroDimensionalError
    when the quotient ring is infinite-dimensional."""
    mono = _Monomials(len(gb.variables))
    missing, standard = _standard_monomials(_records(gb, mono), mono)
    if missing is not None:
        raise NotZeroDimensionalError(
            f"no pure power of {gb.variables[missing]} among leading terms"
        )
    standard.sort()
    return NormalSet(monomials=tuple(map(mono.unpack, standard)), variables=gb.variables)


class _NormalForms:
    """Memoized normal forms of monomials against reducer records.

    A normal form is an (integer vector, positive denominator) pair, the
    vector a sparse {key: nonzero int} dict, the pair's common content
    divided out.  NF(x^t) comes from t's first divisor: a record gives
    NF(x^lm) = -tail / lc.  ``seeds`` hold the standard monomials; without
    them a monomial no reducer divides is its own normal form, keyed by
    itself.  Each new entry spends one unit of the budget."""

    def __init__(self, reducers, mono, budget, seeds=None):
        self.reducers = reducers
        self.mono = mono
        self.budget = budget
        self._open = seeds is None
        self._cache = dict(seeds or {})

    def _vector(self, k):
        cache = self._cache
        guard = self.mono.guard
        stack = [k]
        while stack:
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            for probe, lm, lc, tail in self.reducers:
                if not (cur - probe) & guard:
                    break
            else:
                if not self._open:  # pragma: no cover - gb/ns inconsistency
                    raise NotZeroDimensionalError(f"monomial {self.mono.unpack(cur)} "
                                                  "neither standard nor reducible")
                self.budget.spend()
                cache[cur] = ({cur: 1}, 1)
                continue
            shift = cur - lm
            terms = [(t + shift, -c) for t, c in tail.items()]
            missing = [t for t, _ in terms if t not in cache]
            if missing:
                stack.extend(missing)
                continue
            self.budget.spend()
            cache[cur] = self._combine(terms, lc)
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

    def _poly_vector(self, terms, den):
        """NF(sum(a x^t)) / den over [(t, a)], by linearity."""
        for t, _ in terms:
            self._vector(t)
        return self._combine(terms, den)


class QuotientRing(_NormalForms):
    """Quotient ring C[vars]/<gb>: normal forms keyed by standard-monomial
    index, lc of a record being its monic element's least common denominator."""

    def __init__(self, gb: GroebnerBasis, ns: NormalSet,
                 budget: int = DEFAULT_REDUCTION_BUDGET):
        mono = _Monomials(len(gb.variables))
        self.standard = [mono.pack(m) for m in ns.monomials]
        self._top_degree = max(map(sum, ns.monomials), default=0)
        super().__init__(_records(gb, mono), mono, _Budget(budget),
                         {k: ({i: 1}, 1) for i, k in enumerate(self.standard)})

    def monomial_vector(self, m) -> tuple:
        """NF(x^m) as an (integer vector, positive denominator) pair."""
        vec, den = self._vector(self.mono.pack(m))
        return dict(vec), den

    def mult_matrix_exact(self, f: RationalPoly):
        """Columns of the multiplication-by-f map over the standard basis,
        exact, as (integer vector, positive denominator) pairs."""
        mono = self.mono
        _checked_degree(max(map(sum, f.terms), default=0) + self._top_degree)
        den, terms = _clear_denominators(f.terms, mono)
        return [self._poly_vector([(m + b, a) for m, a in terms.items()], den)
                for b in self.standard]


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

def _variable_layout(dims, order=None):
    """Variable names and, per slot, its variables' indices.  ``order``
    lists the slots in the ring's variable order (default: slot order);
    each slot keeps its own letter and its own place in slot_vars."""
    if len(dims) > len(_SLOT_LETTERS):
        raise DimensionMismatchError(f"at most {len(_SLOT_LETTERS)} slots supported")
    names = []
    slot_vars = [()] * len(dims)
    for s in range(len(dims)) if order is None else order:
        slot_vars[s] = tuple(range(len(names), len(names) + dims[s]))
        names += [f"{_SLOT_LETTERS[s]}{i + 1}" for i in range(dims[s])]
    return tuple(names), tuple(slot_vars)


def _ranked(dims) -> tuple:
    """The slots by decreasing dimension, ties in slot order: the affine
    chart's variable order (see _quotient)."""
    return tuple(sorted(range(len(dims)), key=lambda s: -dims[s]))


def form_polynomial(form: MultilinearForm, *, _order=None) -> RationalPoly:
    """The form as an exact multilinear polynomial in the slot variables
    (``_order`` as in _variable_layout)."""
    names, slot_vars = _variable_layout(form.dims, _order)
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
    return RationalPoly._trusted(names, terms)


def _minor(lterms, a, b) -> dict:
    """The terms of x_b dl/dx_a - x_a dl/dx_b, l given by its terms: those
    of l that hold x_a or x_b, exponents of x_a and x_b swapped, signed +
    for x_a and - for x_b."""
    minor = {}
    for exps, c in lterms.items():
        if exps[a] or exps[b]:
            e = list(exps)
            e[a], e[b] = e[b], e[a]
            minor[tuple(e)] = c if exps[a] else -c
    return minor


def build_critical_system(form: MultilinearForm, chart: str = "sphere", *,
                          _lterms=None, _order=None) -> PolySystem:
    """The exact critical system of the form.

    Minor equations x_j dl/dx_i - x_i dl/dx_j = 0 for every slot and index
    pair i < j, plus one closure equation per slot: the unit sphere
    ||x||^2 = 1 ('sphere' chart) or the first coordinate x_1 = 1 ('affine'
    chart).  Coefficients are rationalized exactly from their decimal
    representation.

    Each term of l holds exactly one variable of each slot, so the minor of
    x_i and x_j is the terms of l that hold x_i or x_j, with the exponents
    of x_i and x_j swapped, signed + for x_i and - for x_j.  The two sets
    of monomials never meet, so nothing cancels; a minor with no terms (no
    term of l holds x_i or x_j) is left out.  The equations come slot by
    slot in the ring's variable order.

    ``_lterms`` is form_polynomial(form, _order=_order).terms when the
    caller (_quotient) has built it already; ``_order`` lists the slots in
    the ring's variable order, as in _variable_layout.
    """
    if form.order < 2:
        raise DimensionMismatchError("critical system needs r >= 2 slots")
    if chart not in ("sphere", "affine"):
        raise ValueError(f"unknown chart {chart!r}")
    names, slot_vars = _variable_layout(form.dims, _order)
    nvars = len(names)
    lterms = form_polynomial(form, _order=_order).terms if _lterms is None else _lterms
    ring_slots = sorted(slot_vars)  # the slots in the ring's variable order
    polys = []
    for svars in ring_slots:
        for a, b in itertools.combinations(svars, 2):
            minor = _minor(lterms, a, b)
            if minor:
                polys.append(RationalPoly._trusted(names, minor))
    for svars in ring_slots:
        power, closed = (2, svars) if chart == "sphere" else (1, svars[:1])
        closure = {tuple(power * (i == v) for i in range(nvars)): _ONE for v in closed}
        closure[(0,) * nvars] = -_ONE
        polys.append(RationalPoly._trusted(names, closure))
    return PolySystem(polys=tuple(polys), variables=names, slot_vars=slot_vars)


# ---------------------------------------------------------------------------
# the point proof.  A run that stops at the generic quotient dimension D
# holds a basis G of exact reductions, so G lies in the ideal I and leaves
# |std(G)| >= dim Q[x]/I standard monomials.  If |std(G)| = D and D
# pairwise disjoint polydiscs each hold a zero of the affine chart's square
# subsystem that is a zero of I, then dim Q[x]/I >= |V(I)| >= D = |std(G)|,
# so the leading ideals agree, G, interreduced, is the reduced Groebner
# basis, and each zero is simple.  Each polydisc is proved by Krawczyk's
# test (Krawczyk, Computing 4, 1969; Rump, Acta Numerica 19, 2010) in
# complex midpoint-radius arithmetic: with Y an approximate inverse of the
# Jacobian at the center m and every rounding bounded outward,
#     |Y F(m)| + |I - Y J(X)| rho < rho, componentwise,
# maps the polydisc X = {|x_i - m_i| <= rho_i} into its interior under
# x -> x - Y F(x), so (Brouwer) X holds a zero of F, Y being nonsingular.
# Each polydisc must also keep every slot's x_s.x_s off zero (its disc over
# X misses 0), so that solve_max can lift the zero to the spheres.
#
# Rounding model: every complex +, -, *, abs of floats has relative error
# at most 2^-51, four units of roundoff (a complex product by the standard
# formula stays within sqrt 5, by the fused one within 2; Brent, Percival
# and Zimmermann, Math. Comp. 76, 2007), so a value reached by a path of N
# operations is within gamma = N 2^-50 of its exact value, relative to the
# same evaluation in absolute values (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 3).  A zero coefficient adds an exact zero, so
# a sum's path counts its nonzero terms only.
# Underflow adds at most 2^-1072 per operation; with every point coordinate
# below 2^32, every coefficient below 2^64 and degrees at most 8, it stays
# below _UNDERFLOW.  Coefficients are the exact rationals of the system,
# each read as its correctly rounded float (relative error <= 2^-53), the
# subnormal range refused.
# ---------------------------------------------------------------------------

_UNDERFLOW = 2.0**-600   # absolute slack for underflow in every radius
_ROUND_UP = 1 + 2.0**-30  # covers the roundings of the final comparisons


def _square_subsystem(lterms, system):
    """The affine chart's square subsystem of the form with terms
    ``lterms``, as {exponents: exact rational} over its variables, those
    variables, and each slot's x_s.x_s, which its boxes must keep off zero.
    Per slot: the minor of (first, b) for each other b, every first
    coordinate set to 1 and no variable.  A zero of it is a zero of the
    chart's ideal, since x_first minor(a, b) = x_a minor(first, b) - x_b
    minor(first, a).  Each term of a minor holds one variable of each slot,
    so its free exponents name it: setting the first coordinates to 1 merges
    no terms."""
    free = [v for svars in system.slot_vars for v in svars[1:]]
    polys = []
    for svars in system.slot_vars:
        for b in svars[1:]:
            minor = _minor(lterms, svars[0], b)
            polys.append({tuple(e[v] for v in free): c for e, c in minor.items()})
            if len(polys[-1]) != len(minor):  # pragma: no cover - see above
                raise ValueError("chart substitution merged terms")
    norms = [{(0,) * len(free): _ONE, **{tuple(2 * (v == w) for w in free): _ONE
                                          for v in svars[1:]}}
             for svars in system.slot_vars]
    return polys, free, norms


def _jacobian(polys, n):
    """dp/dx_v of each poly p and variable v < n, row-major; distinct
    monomials have distinct derivatives, so no terms merge."""
    return [{e[:v] + (e[v] - 1,) + e[v + 1:]: c * e[v] if e[v] > 1 else c
             for e, c in p.items() if e[v]}
            for p in polys for v in range(n)]


class _Discs:
    """Exact polynomials {exponents: rational} in n variables, evaluated as
    discs (center, radius) that hold their values over polydiscs.  The
    coefficients form one float matrix over the distinct monomials, so each
    evaluation is one monomial table and one product; ``sound`` is False
    when a coefficient or degree leaves the range the rounding model
    covers."""

    def __init__(self, polys, n):
        polys = [{e: c for e, c in p.items() if c} for p in polys]
        monomials = sorted({e for p in polys for e in p})
        col = {e: j for j, e in enumerate(monomials)}
        self.coeffs = np.zeros((len(polys), len(monomials)))
        for i, p in enumerate(polys):
            for e, c in p.items():
                self.coeffs[i, col[e]] = float(c)
        self.abs_coeffs = np.abs(self.coeffs)
        exps = np.array(monomials, dtype=int).reshape(len(monomials), n)
        # x^e is the product over the factors (v, k), k <= max e_v, of x_v
        # where e_v >= k and of an exact 1 elsewhere
        factors = np.array([(v, k) for v in range(n)
                            for k in range(1, exps[:, v].max(initial=0) + 1)],
                           dtype=int).reshape(-1, 2)
        self.factors = factors[:, 0]
        self.uses = (exps[:, self.factors] >= factors[:, 1])[:, :, None]
        degree = int(exps.sum(axis=1).max(initial=0))
        nonzero = self.abs_coeffs[self.coeffs != 0]
        self.sound = (degree <= 8 and len(nonzero) == sum(map(len, polys))
                      and bool(np.all((nonzero >= 2.0**-1000) & (nonzero < 2.0**64))))
        # the longest chain of roundings: a monomial, its coefficient, the
        # sum over a poly's terms, the absolute values and the shift by rho
        self.gamma = (degree + max(map(len, polys), default=0) + 4) * 2.0**-50

    def _monomials(self, x):
        return np.where(self.uses, x[self.factors], 1).prod(axis=1)

    def center(self, x):
        """The values at each column of x, in floating point."""
        return self.coeffs @ self._monomials(x)

    def discs(self, x, rho):
        """(center, radius), one column per column of x: discs holding every
        value over the polydisc of radii rho (shaped like x, or one per
        column) around it.
        |p(y) - p(x)| <= P(|x| + rho) - P(|x|), P the polynomial of the
        absolute coefficients, and 4 gamma (P(|x| + rho) + P(|x|)) covers
        the roundings of the center, of both P and of their difference."""
        ax = np.abs(x)
        lo = self.abs_coeffs @ self._monomials(ax)
        hi = self.abs_coeffs @ self._monomials(ax + rho)
        return self.center(x), (hi - lo) + 4 * self.gamma * (hi + lo) + _UNDERFLOW


def _krawczyk(f, jac, x, nonzero=None) -> bool:
    """Whether disjoint polydiscs around the columns of x, each moved by one
    Newton step, each hold a zero of f (Krawczyk's test), and the discs of
    the polynomials ``nonzero`` (a _Discs, if any) over each of them miss
    zero; jac holds f's Jacobian, row-major.  Each coordinate gets its own
    radius, twice its bound on |Y F(m)|: a solution far out on the chart
    has one coordinate in the thousands, and one radius for all would
    inflate every other one to that coordinate's rounding error."""
    n, count = x.shape
    step = np.linalg.solve(jac.center(x).T.reshape(count, n, n), f.center(x).T[..., None])
    x = x - step[..., 0].T
    if not np.all(np.abs(x) < 2.0**32):
        return False
    y = np.linalg.inv(jac.center(x).T.reshape(count, n, n))
    ay = np.abs(y)
    gamma = (n + 2) * 2.0**-50  # the products with Y and I - Y J
    fc, fr = (a.T[..., None] for a in f.discs(x, 0.0))
    # |Y F(m)|, bounded above, per point and coordinate
    e = (np.abs(y @ fc) + ay @ fr + gamma * (ay @ np.abs(fc)))[..., 0] + _UNDERFLOW
    rho = 2 * e
    jc, jr = (a.T.reshape(count, n, n) for a in jac.discs(x, rho.T))
    c = np.eye(n) - y @ jc
    r = ay @ jr + gamma * (ay @ np.abs(jc) + np.abs(c)) + _UNDERFLOW
    k = e + ((np.abs(c) + r) @ rho[..., None])[..., 0]
    if not np.all(k * _ROUND_UP < rho):
        return False
    if nonzero is not None:
        nc, nr = nonzero.discs(x, rho.T)
        if not np.all(np.abs(nc) / _ROUND_UP > nr * _ROUND_UP):
            return False
    # two polydiscs are disjoint when their discs in one coordinate are
    reach = rho.T[:, :, None] + rho.T[:, None, :]
    apart = (np.abs(x[:, :, None] - x[:, None, :]) / _ROUND_UP > reach * _ROUND_UP).any(axis=0)
    np.fill_diagonal(apart, True)
    return bool(apart.all())


def _prove_points(lterms, system, coords, dim, generic_dim) -> bool:
    """The point proof of an affine basis that leaves ``dim`` standard
    monomials for the form with terms ``lterms``: its eigen-solve found
    ``coords`` (one column per solution, one row per variable), and dim,
    the generic quotient dimension and the number of solutions must agree,
    and Krawczyk's test must box every solution of the square subsystem,
    disjointly, every slot's x_s.x_s off zero over each box."""
    if not dim == generic_dim == coords.shape[1]:
        return False
    polys, free, norms = _square_subsystem(lterms, system)
    f, jac, nonzero = (_Discs(p, len(free)) for p in (polys, _jacobian(polys, len(free)), norms))
    if not (f.sound and jac.sound and nonzero.sound):
        return False
    with np.errstate(all="ignore"):
        return _krawczyk(f, jac, coords[free], nonzero)


# ---------------------------------------------------------------------------
# bilinear forms: the Gram kernel.  For r = 2 the critical points of
# l = x^T A y are the singular pairs of A and the critical values +-sigma_i
# (the eigenvalues of the Jordan-Wielandt matrix [[0, A], [A^T, 0]]; Golub
# and Van Loan, Matrix Computations, 8.6), so sigma_i^2 are the roots of
# p = det(mu I - G), G the Gram matrix of A's smaller side.  A is read at
# unit scale through rationalize, like form_polynomial, over one common
# denominator D, so G = (D A)(D A)^T is an integer matrix and p comes from
# Berkowitz's algorithm over Python ints.  When p has d = min(n, m)
# distinct positive roots (a Sturm count) the sphere chart's ideal has
# exactly 4d zeros, all simple (see solve_max), the pairs of
# np.linalg.svd, and no Groebner basis is needed.
# ---------------------------------------------------------------------------

_GRAM_STAGES = ("gram", "charpoly", "sturm", "points")
_PENCIL_STAGES = ("setup", "search", "certificate")


def _integer_slices(tensor):
    """(D, slices): the common denominator D of the coefficients of a 2- or
    3-way array read through rationalize, and D times each, exactly, as
    integer matrices (one per leading index of a 3-way array), each
    transposed when it has more rows than columns."""
    flat = [rationalize(c) for c in tensor.reshape(-1).tolist()]
    den = math.lcm(*(c.denominator for c in flat))
    flat = [c.numerator * (den // c.denominator) for c in flat]
    n, m = tensor.shape[-2:]
    slices = [[flat[i:i + m] for i in range(start, start + n * m, m)]
              for start in range(0, len(flat), n * m)]
    if n > m:
        slices = [[list(col) for col in zip(*rows)] for rows in slices]
    return den, slices


def _gram(form: MultilinearForm):
    """(D, G): the common denominator D of the bilinear form's coefficients
    read through rationalize, and the integer Gram matrix of D A on its
    smaller side, (D A)(D A)^T or (D A)^T (D A)."""
    den, (rows,) = _integer_slices(form.tensor)
    return den, [[sum(map(operator.mul, r, s)) for s in rows] for r in rows]


def _gram_poly(form: MultilinearForm):
    """(D, seq, marks): _gram's D, the Sturm sequence seq of p = det(mu I -
    G), and the perf_counter at the start and at the end of each of the
    first three _GRAM_STAGES.  The kernel's one exact computation on a
    bilinear form, which _gram_max and _gram_top both read."""
    marks = [time.perf_counter()]
    den, gram = _gram(form)
    marks.append(time.perf_counter())
    p = intpoly.berkowitz(gram)
    marks.append(time.perf_counter())
    seq = intpoly.sturm(p)
    marks.append(time.perf_counter())
    return den, seq, marks


def _gram_max(form: MultilinearForm, k: int, poly):
    """solve_max's report on a bilinear form at unit scale, t 2^-k, from the
    Gram kernel when it certifies the form (p, of degree d, has d distinct
    roots in (0, infinity)), poly its _gram_poly, its timings those of
    _GRAM_STAGES; None otherwise."""
    _, seq, marks = poly
    p = seq[0]
    if not p[-1] or intpoly.roots_above(seq, 0) != len(p) - 1:
        return None
    u, _, vt = np.linalg.svd(form.tensor, full_matrices=False)
    return replace(_lifted_max(form, k, [u, vt.T]), timings=_stage_times(marks, _GRAM_STAGES))


def _gram_top(form: MultilinearForm, k: int, poly) -> SolveReport:
    """_exact_max's report on a nonzero bilinear form at unit scale, t 2^-k,
    that the Gram kernel declined, poly its _gram_poly: the maximum is sqrt
    of the largest root of p (intpoly.largest_root) over D, times 2^k, and
    its point np.linalg.svd's top pair, scored.  The critical set is not
    zero-dimensional (repeated or zero singular values), so there is no
    quotient: quotient_dim is 0, no eigenvalues; a flag says so.  Its
    timings are those of _GRAM_STAGES, "points" the root and the pair."""
    den, seq, marks = poly
    lo, hi, e = intpoly.largest_root(seq)
    # sqrt(hi / 2^e) / D: the root's top BITS bits, rounded to the nearest float
    root = math.isqrt((hi << 2 * intpoly.BITS) >> e)
    value = math.ldexp(float(Fraction(root, den << intpoly.BITS)), k)
    u, _, vt = np.linalg.svd(form.tensor)
    points, dropped = _scored_points(form, k, [u[:, :1], vt[:1].T])
    flags = [*dropped, "critical set is not zero-dimensional: the maximum is the "
             "square root of the largest root of det(mu I - A A^T), by Sturm counts"]
    if not points or abs(abs(points[0].value) - value) > _AGREE_TOL * value:
        flags.append("the top singular pair does not reach the maximum")
    return SolveReport(quotient_dim=0, eigenvalues=(), max_value=value, points=tuple(points),
                       genericity_flags=tuple(flags), timings=_stage_times(marks, _GRAM_STAGES))


def _pencil_max(form: MultilinearForm, k: int, slot: int) -> SolveReport:
    """_exact_max's report on a nonzero trilinear form at unit scale, t
    2^-k, with a slot of dimension 2, ``slot``, from the pencil kernel.

    The form's two slices along that slot are read through rationalize over
    one common denominator D (_integer_slices).  The point is (cos theta,
    sin theta) in that slot and the top singular pair of the pencil at
    theta in the others, from pencil.search, scored (_scored_points).  Its
    |value| v is the maximum within 2^-44 relative when pencil.certify
    passes on mu-hat = (D v)^2 at the point's direction.  Otherwise the
    value is the square root of the midpoint of certify's bracket over D,
    a flag saying so when the point's |value| is more than _AGREE_TOL
    relative away from it.  The critical set need not be zero-dimensional,
    so there is no quotient: quotient_dim is 0, no eigenvalues.  Timings:
    _PENCIL_STAGES."""
    marks = [time.perf_counter()]
    slices = np.moveaxis(form.tensor, slot, 0)
    den, ints = _integer_slices(slices)
    gram, qs = pencil.setup(*ints)
    marks.append(time.perf_counter())
    swap = slices.shape[1] > slices.shape[2]
    a, b = slices.transpose(0, 2, 1) if swap else slices
    theta, lam, y = pencil.search(a, b)
    x = np.array([math.cos(theta), math.sin(theta)])
    z = (x[0] * a + x[1] * b).T @ y
    vectors = [y, z / np.linalg.norm(z)][::-1 if swap else 1]
    vectors.insert(slot, x)
    points, flags = _scored_points(form, k, [v[:, None] for v in vectors])
    value = abs(points[0].value) if points else math.ldexp(math.sqrt(lam), k)
    marks.append(time.perf_counter())
    ratios = [_Q(float(c)) for c in x]
    scale = math.lcm(*(c.denominator for c in ratios))
    bracket = pencil.certify(gram, qs, [int(c * scale) for c in ratios],
                             (_Q(math.ldexp(value, -k)) * den) ** 2)
    if bracket is not None:
        root = math.isqrt(math.floor(sum(bracket) / 2 * 4 ** intpoly.BITS))
        value = math.ldexp(float(_Q(root, den << intpoly.BITS)), k)
        if not points or abs(abs(points[0].value) - value) > _AGREE_TOL * value:
            flags.append("the pencil's top singular pair does not reach the maximum")
    return SolveReport(quotient_dim=0, eigenvalues=(), max_value=value, points=tuple(points),
                       genericity_flags=tuple(flags),
                       timings=_stage_times(marks, _PENCIL_STAGES))


# ---------------------------------------------------------------------------
# solve pipelines
# ---------------------------------------------------------------------------

_STAGES = ("system", "groebner", "normalSet", "eigen")


def _quotient(form: MultilinearForm, chart: str, budget: int, seed: int = 0):
    """The chart's critical system, its Groebner basis and its normal set,
    the quotient dimension of a generic form (the class count on the affine
    chart, 2^r times it on the sphere chart, one point per sign pattern),
    the perf_counter marks taken before and after each stage, and on the
    sphere chart its QuotientRing, on the affine chart the solutions of the
    quotient: the eigenvalues, the coordinates of the solutions scored and
    the retry flags of _solutions (with ``seed``), and the coordinates of
    every solution when the point proof passed, else None.

    The affine points prove the basis: groebner()'s run stops at the
    generic dimension, and the normal set and solutions of its candidate
    basis go to _prove_points before the certificate would run.  A basis
    groebner() returned without that proof (it left no pair to prove, or
    the run resumed) has its points proved after it, so proved coordinates
    are every zero of the ideal, each simple, each off every x_s.x_s = 0.
    The ring and solutions returned are those of the basis groebner()
    returns.  The sphere chart runs no proof: the count stop and the
    certificate decide its basis.

    The affine chart's ring takes its variables slot by slot, the largest
    slot first, ties in slot order (_ranked).  Under grevlex that order
    alone decides how far Buchberger's intermediate coefficients swell,
    and largest first keeps them small: a 2x3x4 integer form takes 4.3 s in
    slot order and 0.05 s ranked (BENCH_35.json), to the same quotient and
    maximum.  Each slot keeps its letter and its place in system.slot_vars,
    so the point proof, the solutions and their flags read the caller's
    slots, and the separating form stays the first free variable of slot
    0.  The sphere chart keeps slot order: no order is best on every form
    there, and _sphere_max reads form_polynomial(form), in slot order, in
    its ring."""
    marks = [time.perf_counter()]
    affine = chart == "affine"
    order = _ranked(form.dims) if affine else None
    lterms = form_polynomial(form, _order=order).terms
    system = build_critical_system(form, chart=chart, _lterms=lterms, _order=order)
    generic_dim = chowcount.count_extreme_classes(form.dims) << (0 if affine else form.order)
    marks.append(time.perf_counter())
    found = []  # [basis, (its normal set, marks, ring, solutions), proved] per solve

    def solve(gb):
        start = time.perf_counter()
        ns = normal_set(gb)
        done = time.perf_counter()
        ring = QuotientRing(gb, ns, budget)
        solutions = _solutions(system, ring, seed) if affine else None
        found.append([gb, (ns, [start, done], ring, solutions), False])

    def proof(gb):
        if not (found and found[-1][0] is gb):
            solve(gb)
        ns, _, _, (_, coords, _, _) = found[-1][1]
        found[-1][2] = _prove_points(lterms, system, coords, len(ns), generic_dim)
        return found[-1][2]

    gb = groebner(system, budget=budget, quotient_dim=generic_dim,
                  _proof=proof if affine else None)
    if not (found and found[-1][0] is gb):
        solve(gb)  # a refusal (an infinite normal set, inseparable solutions) raises here
        _proves(proof if affine else None, gb)
    _, (ns, stages, ring, solutions), proved = found[-1]
    if not affine:
        return system, gb, ns, generic_dim, marks + stages, ring
    eigvals, coords, scored, retries = solutions
    return system, gb, ns, generic_dim, marks + stages, (
        eigvals, scored, retries, coords if proved else None)


def _stage_times(marks, stages=_STAGES) -> dict:
    """Seconds per stage of ``stages``; the last stage ends now."""
    marks = marks + [time.perf_counter()]
    return {s: b - a for s, a, b in zip(stages, marks, marks[1:])}


def solve_max(
    form: MultilinearForm,
    budget: int = DEFAULT_REDUCTION_BUDGET,
) -> SolveReport:
    """Maximum of |l| over the product of spheres (the eigenvalue method),
    on the form at unit scale, t 2^-k (multiform._scaled).

    A bilinear form (r = 2) goes to the Gram kernel first (_gram_max),
    which runs no Groebner basis.  Its certificate is a Sturm count: p =
    det(mu I - G), G the integer Gram matrix of A's smaller side (d =
    min(n, m) rows), has d distinct roots in (0, infinity).  Then the
    sphere chart's ideal has exactly 4d zeros, each simple.  At a zero the
    minors give A y = alpha x and A^T x = beta y (x and y are not 0, as
    x.x = y.y = 1), so alpha = x^T A y = beta =: lambda, and lambda != 0,
    since A y = A^T x = 0 would put a nonzero vector in the kernel of A or
    A^T on the smaller side, where G is nonsingular.  Say y is that side's
    slot (else swap the roles): G y = A^T A y = lambda^2 y, so y = +-v_i,
    an eigenvector whose eigenspace is a line, lambda = +-sigma_i and
    x = A y / lambda, 4d zeros.  A tangent vector (xi, eta) at one of them
    satisfies sigma xi = A eta, sigma eta = A^T xi and v.eta = 0, so
    G eta = sigma^2 eta with sigma^2 a simple root, and eta = xi = 0: the
    zero is simple.  The quotient dimension is therefore exactly 4d = 2^r
    times the class count, and the zeros are the singular pairs of
    np.linalg.svd with both signs, whose values _lifted_max reads, its
    flags and point scoring those of the lift below.

    Otherwise, and for r >= 3, the affine chart and the sphere chart
    answer as _charted_max says.
    """
    if form.order == 2:
        unit, k = multiform._scaled(form)
        report = _gram_max(unit, k, _gram_poly(unit))
        if report is not None:
            return report
    return _charted_max(form, budget)


def _charted_max(form: MultilinearForm, budget: int = DEFAULT_REDUCTION_BUDGET) -> SolveReport:
    """solve_max's report from the charts.

    The affine chart runs first (_quotient), on the form at unit scale,
    t 2^-k.  When its points are proved, they are every critical class, one
    point each, with every x_s.x_s nonzero (see the module docstring): each
    slot of each is divided by sqrt(x_s.x_s), l is read at the D lifts, and
    each value is reported with both signs, 2^(r-1) times each, its values
    at the 2^r sign images, which are the eigenvalues of M_l on the sphere
    chart (Eigenvalue Theorem).  The quotient dimension is 2^r D, the real
    lifts are the points, scored like solve_argmax's (_scored_points), and
    the answer is the best point's |value|.

    Otherwise (the affine chart refused, or its points are not proved: a
    class off the chart, an isotropic critical point, a proof that failed)
    the sphere chart's system runs, ||x_s||^2 = 1 per slot, its basis
    decided by the count stop and the certificate.  The eigenvalues are
    M_l's, the report has no points, and the answer is the largest
    magnitude among the real eigenvalues within ||l||_F (1 + _NORM_TOL):
    |l(x)| <= ||l||_F (Frobenius) on the spheres by Cauchy-Schwarz, so a
    real eigenvalue above it is the value of no real critical point; those
    are dropped, and a flag counts them.  The matrix scaled back by 2^k is
    exactly that of t, so realness reads |Im lambda| <= REALNESS_TOL
    (2^k + |lambda|).
    """
    form, k = multiform._scaled(form)
    try:
        system, _, _, _, marks, (_, _, _, coords) = _quotient(form, "affine", budget)
    except NotZeroDimensionalError:
        coords = None
    if coords is None:
        return _sphere_max(form, k, budget)
    return replace(_lifted_max(form, k, _slots(system, coords)), timings=_stage_times(marks))


def _slots(system, coords) -> list:
    """The rows of ``coords`` (one per variable of ``system``) split by slot."""
    return [coords[list(svars)] for svars in system.slot_vars]


def _lifted_max(form: MultilinearForm, k: int, blocks) -> SolveReport:
    """solve_max's report, without timings, from the D solutions whose
    slots are the columns of ``blocks`` (one complex array per slot, a row
    per coordinate), each slot off x_s.x_s = 0, of the form at unit scale,
    t 2^-k."""
    blocks = [b / np.sqrt((b * b).sum(axis=0)) for b in blocks]
    slots = [b.T for b in blocks]
    subs = multiform._subscripts(form.order)
    values = multiform._row_dots(multiform._partial(form.tensor, subs, slots, 0), slots[0])
    signed = np.concatenate([values, -values]) * math.ldexp(1.0, k)
    eigenvalues = np.tile(signed, 1 << (form.order - 1))  # the 2^r sign images
    points, flags = _scored_points(form, k, blocks)
    if not points:
        flags.append("no real critical points recovered")
    max_value = abs(points[0].value) if points else float("nan")
    return _max_report(eigenvalues, max_value, points, flags)


def _sphere_max(form: MultilinearForm, k: int, budget: int) -> SolveReport:
    """solve_max's report from the sphere chart's own Groebner basis and
    M_l, for the form at unit scale, t 2^-k."""
    _, _, ns, _, marks, ring = _quotient(form, "sphere", budget)
    m = _float_matrix(ring.mult_matrix_exact(form_polynomial(form)), len(ns))
    eigenvalues = np.linalg.eigvals(np.ldexp(m, k))
    flags = []
    unit, norm = math.ldexp(1.0, k), math.ldexp(multiform.form_norm(form), k)
    real = [abs(lam.real) for lam in eigenvalues
            if abs(lam.imag) <= REALNESS_TOL * (unit + abs(lam))]
    reachable = [v for v in real if v <= norm * (1.0 + _NORM_TOL)]
    if len(reachable) < len(real):
        flags.append(f"{len(real) - len(reachable)} real eigenvalue(s) above "
                     f"||l||_F = {norm:.6e} dropped: no real point reaches them")
    if not reachable:
        flags.append("no real eigenvalues within tolerance")
    max_value = max(reachable, default=float("nan"))
    return replace(_max_report(eigenvalues, max_value, (), flags), timings=_stage_times(marks))


def _max_report(eigenvalues, max_value, points, flags) -> SolveReport:
    """solve_max's report, its eigenvalues by decreasing |value|, without timings."""
    order = np.argsort(-np.abs(eigenvalues))
    return SolveReport(
        quotient_dim=len(eigenvalues),
        eigenvalues=tuple(complex(eigenvalues[i]) for i in order),
        max_value=float(max_value),
        points=tuple(points),
        genericity_flags=tuple(flags),
    )


def _scored_points(form: MultilinearForm, k: int, blocks):
    """The real points among the columns of ``blocks`` (one complex array
    per slot, a row per coordinate), each slot normalized to its sphere
    with canonical signs and scored in one batch on the form at unit scale
    (value and fixed-point residual), and the flags of those dropped for a
    residual above RESIDUAL_TOL (1 + |value|): the points by _point_order,
    value and residual times 2^k."""
    real = np.all([
        np.abs(b.imag).max(axis=0) <= REALNESS_TOL * (1.0 + np.linalg.norm(b, axis=0))
        for b in blocks
    ], axis=0)
    slots = [b.real[:, real].T for b in blocks]
    slots = [multiform.canonical_signs(s / np.linalg.norm(s, axis=1)[:, None]) for s in slots]
    subs = multiform._subscripts(form.order)
    values, residuals = multiform._assess(form.tensor, subs, slots)
    dropped = residuals > RESIDUAL_TOL * (1.0 + np.abs(values))
    flags = [f"discarded point with residual {math.ldexp(r, k):.3e} above tolerance"
             for r in residuals[dropped]]
    points = sorted((
        CriticalPoint(tuple(s[j].copy() for s in slots), float(values[j]),
                      float(residuals[j]))
        for j in np.flatnonzero(~dropped)
    ), key=functools.cmp_to_key(_point_order))
    return [CriticalPoint(p.vectors, math.ldexp(p.value, k), math.ldexp(p.residual, k))
            for p in points], flags


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
    to 1) of the form at unit scale, t 2^-k (multiform._scaled), and takes
    the multiplication matrix of the first free variable (of the constant 1
    when every slot has dimension 1: the quotient is then one point), or of
    a random integer combination of the free variables when its eigenvalues
    repeat.  Its left eigenvectors, scaled to 1 at the constant monomial,
    hold the values of the standard monomials at the solutions; every
    coordinate of every solution is then one row of N @ V, where row v of N
    is the exact normal form of the variable x_v.  Real solutions are normalized back to the spheres,
    scored in one batch at that scale (value and fixed-point residual),
    and reported times 2^k by decreasing |l|, tied values in the
    lexicographic order of their canonical vectors.

    The chart's ring orders its variables by slot size, the largest slot
    first, ties in slot order, which keeps Buchberger's coefficients small
    (see _quotient); the points, the flags and their variable names read
    the caller's slots all the same.

    The chart's one guard is the paper's count: for a generic form the
    quotient dimension is count_extreme_classes(dims) in every format
    (Friedland and Ottaviani, 2014).  When it differs (a non-generic form,
    e.g. with critical points at x_1 = 0), a flag names both numbers, since
    points and the true maximum may be missing.  ``force`` is ignored; it
    stays because perfbench/workloads.py passes force=True.
    """
    return _solve_argmax(form, budget, seed)[0]


def _solutions(system, ring, seed):
    """The eigen-solve of the affine chart's quotient ring: the eigenvalues
    of the separating form's multiplication matrix, the coordinates of
    every solution (one row per variable, one column per left eigenvector,
    scaled to 1 at the constant monomial), the coordinates of the solutions
    scored (those whose eigenvector's constant coordinate is not near
    zero), computed from their columns alone, and the flags of the
    separating form's retries.  The separating form is the first free
    variable, or a random integer combination of the free variables when
    its eigenvalues repeat (see solve_argmax)."""
    dim = len(ring.standard)
    flags = []
    nvars = len(system.variables)
    var_monomials = [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]
    # every variable but each slot's chart coordinate
    free = [var_monomials[v] for svars in system.slot_vars for v in svars[1:]]

    rng = np.random.default_rng(seed)
    eigvals = eigvecs = None
    for attempt in range(4):
        if attempt == 0:
            terms = {free[0] if free else (0,) * nvars: _ONE}
        else:
            coeffs = rng.integers(-9, 10, size=len(free))
            terms = {m: _Q(int(c)) for m, c in zip(free, coeffs) if c}
            if not terms:
                continue
        f = RationalPoly._trusted(system.variables, terms)
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

    const = eigvecs[0]  # the constant packs to 0, first in the ascending normal set
    solved = np.abs(const) > 1e-8 * np.linalg.norm(eigvecs, axis=0)
    nf = _float_matrix([ring.monomial_vector(m) for m in var_monomials], dim).T
    with np.errstate(all="ignore"):  # a zero constant coordinate: the proof refuses it
        points = nf @ (eigvecs / const)
    return eigvals, points, nf @ (eigvecs[:, solved] / const[solved]), flags


def _solve_argmax(form: MultilinearForm, budget: int, seed: int):
    """solve_argmax's report, the flags of the solutions it did not score
    (skipped eigenvectors, discarded points), the class count, and the
    critical system with the coordinates of every solution when the point
    proof passed, else None (_quotient)."""
    form, k = multiform._scaled(form)
    system, gb, ns, classes, marks, (eigvals, coords, retries, proved) = _quotient(
        form, "affine", budget, seed)
    dim = len(ns)
    flags = []
    if dim != classes:
        flags.append(
            f"quotient dimension {dim} differs from the extreme-class count "
            f"{classes}: non-generic form, critical points may be missing"
        )
    flags += retries
    points, unscored = _scored_points(form, k, _slots(system, coords))
    degenerate = dim - coords.shape[1]
    if degenerate:
        unscored.append(f"eigenvectors with near-zero constant coordinate skipped: {degenerate}")
    flags += unscored
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
    ), tuple(unscored), classes, (system, proved)


def _exact_max(form: MultilinearForm, seed: int, budget: int = DEFAULT_REDUCTION_BUDGET):
    """(chart, report) of the exact maximum, whose first point backs its
    value.  The zero form raises (every point is critical, its maximum 0).
    A bilinear form answers as ("sphere", report) from the Gram kernel's
    polynomial alone, and no chart runs: solve_max's report when the
    kernel certifies it (_gram_max), else the largest root of p
    (_gram_top).  A trilinear form with a slot of dimension 2 answers as
    ("pencil", report) from the pencil kernel (_pencil_max), and no
    Groebner basis runs.  Else the affine chart answers when its quotient
    holds every critical class and every solution was scored: for a
    generic form the quotient dimension is the class count (Friedland and
    Ottaviani, 2014), so every class is among its solutions.  Otherwise the
    sphere chart answers with solve_max's report, after the affine flags or
    refusal, which say why: the flags of unscored solutions lead.  The
    affine solve is not run again: when its points are proved they are
    lifted (_lifted_max), else the sphere chart's own basis runs
    (_sphere_max).  So the report is solve_max's bit for bit at seed 0; at
    another seed a retried separating form gives the same proved solutions
    to within rounding.  Its points are its own when it lifted; else its
    one point is the best ascent (_ascent), as it is for a kernel's report
    without a point.  When the sphere chart refuses after the affine chart
    answered with points, the affine report answers, "sphere chart
    refused: ..." among its flags, its first point the better of its own
    best and the best ascent; when it refuses after the affine chart gave
    no point, the form raises.  Its timings hold the stages of the affine
    chart that did not answer too, as "affine.<stage>", or
    "affine.refused" for a refused attempt; a lift's time is "lift"."""
    start = time.perf_counter()
    unit, k = multiform._scaled(form)
    if not form.coeffs.any():
        raise NotZeroDimensionalError("every point of the zero form is critical; its maximum is 0")
    slot = pencil.slot(form.dims)
    if form.order == 2:
        poly = _gram_poly(unit)
        gram = _gram_max(unit, k, poly)
        return "sphere", _backed(form, seed, gram if gram is not None else _gram_top(unit, k, poly))
    if slot is not None:
        return "pencil", _backed(form, seed, _pencil_max(unit, k, slot))
    affine, proved, timings = None, None, {}
    try:
        affine, unscored, classes, (system, proved) = _solve_argmax(form, budget, seed)
    except NotZeroDimensionalError as exc:
        flags = (f"affine chart refused: {exc}",)
        timings["affine.refused"] = time.perf_counter() - start
    else:
        if affine.points and not unscored and affine.quotient_dim == classes:
            return "affine", affine
        flags = unscored + tuple(f for f in affine.genericity_flags if f not in unscored)
        timings.update((f"affine.{stage}", t) for stage, t in affine.timings.items())
    start = time.perf_counter()
    if proved is not None:
        sphere = _lifted_max(unit, k, _slots(system, proved))
        sphere = replace(sphere, timings={"lift": time.perf_counter() - start})
    else:
        try:
            sphere = _sphere_max(unit, k, budget)
        except NotZeroDimensionalError as exc:
            if affine is None or not affine.points:
                raise
            top = affine.points[0]
            best, far = _ascent(form, seed, abs(top.value))
            points = ((best, *affine.points) if abs(best.value) > abs(top.value)
                      else affine.points)
            return "affine", replace(
                affine, max_value=abs(points[0].value), points=points,
                genericity_flags=(*affine.genericity_flags,
                                  f"sphere chart refused: {exc}", *far),
                timings={**affine.timings, "sphere.refused": time.perf_counter() - start})
    sphere = replace(sphere, genericity_flags=flags + sphere.genericity_flags,
                     timings={**timings, **sphere.timings})
    return "sphere", _backed(form, seed, sphere)


def _backed(form: MultilinearForm, seed: int, report: SolveReport) -> SolveReport:
    """The report, its one point the best ascent (_ascent) and the flag of
    a disagreeing ascent after its flags when it has no point."""
    if report.points:
        return report
    best, far = _ascent(form, seed, report.max_value)
    return replace(report, points=(best,), genericity_flags=report.genericity_flags + far)


def _ascent(form: MultilinearForm, seed: int, value: float):
    """The best of poweriter._ascend(form, seed, _ASCENTS), the higher-order
    power method finished by Newton steps, from starts drawn by one
    generator seeded with ``seed``, as a CriticalPoint, and its flag if its
    |value| is more than _AGREE_TOL relative away from ``value``."""
    best = poweriter._ascend(form, seed, poweriter._ASCENTS)
    point = CriticalPoint(best.point, multiform.evaluate(form, best.point), best.residual)
    if not abs(best.value - value) > _AGREE_TOL * value:  # a NaN maximum reads agreed
        return point, ()
    return point, (f"best ascent value {best.value:.12g} is more than {_AGREE_TOL:g} "
                   f"relative away from the maximum {value:.12g}",)
