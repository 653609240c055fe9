"""Integer polynomials in one variable, exactly.

A polynomial is a list of Python ints, highest degree first.  Berkowitz's
division-free algorithm gives the characteristic polynomial of an integer
matrix, and of a matrix whose entries are integer polynomials in t by
Kronecker substitution (one Berkowitz run at t = 2^w, read back in balanced
base-2^w digits).  One Sturm sequence counts the distinct real roots of any
integer polynomial above a dyadic point or over the whole line, and
brackets its largest root by bisection.  No rounding happens anywhere, so
repeated roots need no care.  algsolver's Gram kernel for bilinear forms
and its pencil kernel for trilinear forms with a slot of dimension 2 use
all of it.
"""

from __future__ import annotations

import math
import operator

BITS = 64  # largest_root's relative precision: its bracket is 2^-BITS of the root wide


def berkowitz(a) -> list:
    """det(mu I - a) of a square matrix of ints, by Berkowitz's
    division-free algorithm (Inf. Process. Lett. 18, 1984): the
    characteristic polynomial of each leading principal submatrix
    [[A, C], [R, a_kk]] is the lower triangular Toeplitz matrix with first
    column (1, -a_kk, -RC, -RAC, ..., -RA^(k-2)C) times the previous one's."""
    p = [1]
    for k in range(len(a)):
        block = [row[:k] for row in a[:k]]
        row, col = a[k][:k], [r[k] for r in a[:k]]
        toeplitz = [1, -a[k][k]]
        for j in range(k):
            if j:
                col = [sum(map(operator.mul, r, col)) for r in block]
            toeplitz.append(-sum(map(operator.mul, row, col)))
        p = [sum(toeplitz[i - j] * p[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
             for i in range(k + 2)]
    return p


def pencil_charpoly(mats) -> list:
    """det(mu I - (M_0 + t M_1 + ... + t^d M_d)) of square integer matrices
    of one size k, as k + 1 polynomials in t, the coefficients of mu^k, ...,
    mu^0 (the j-th of degree at most d j, padded to d k + 1 entries).  Each
    coefficient of the j-th is a signed sum of at most k! products of j
    entries, so its magnitude is below k! S^k, S the sum of every matrix's
    largest |entry|.  Berkowitz's algorithm at t = 2^w, 2^(w-1) above that
    bound, gives each polynomial's value there, and its balanced base-2^w
    digits are its coefficients (Kronecker substitution)."""
    k, d = len(mats[0]), len(mats) - 1
    bound = math.factorial(k) * max(1, sum(max(map(abs, sum(m, [])), default=0)
                                          for m in mats)) ** k
    w = bound.bit_length() + 1
    at = [[sum(m[i][j] << (w * e) for e, m in enumerate(mats)) for j in range(k)]
          for i in range(k)]
    half, mask = 1 << (w - 1), (1 << w) - 1
    polys = []
    for c in berkowitz(at):
        digits = []
        for _ in range(d * k + 1):
            digit = ((c + half) & mask) - half
            digits.append(digit)
            c = (c - digit) >> w
        polys.append(digits[::-1])
    return polys


def _primitive(p) -> list:
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _pseudo_remainder(f, g) -> list:
    """A positive multiple of the remainder of f by g, leading zeros
    stripped ([] for zero): each step scales by |lc(g)|, not lc(g), so no
    sign changes."""
    lead, sign = abs(g[0]), 1 if g[0] > 0 else -1
    r = list(f)
    while len(r) >= len(g):
        c = r[0] * sign
        if c:
            r = [lead * x - c * y for x, y in zip(r, g)] + [lead * x for x in r[len(g):]]
        r.pop(0)
    while r and not r[0]:
        r.pop(0)
    return r


def sturm(p) -> list:
    """The Sturm sequence of a nonconstant integer polynomial p: p, p', and
    then minus the remainder of the two before, until a remainder is zero.
    Each member is a positive multiple of the classical one (pseudo-
    remainders, contents divided out), so every sign, and every count of
    roots_above, is the classical sequence's.  By Sturm's theorem the
    number of distinct real roots of p in (a, b), p(a) p(b) != 0, is the
    sign changes of the sequence at a minus those at b, repeated roots or
    not: the sequence then ends at a multiple of gcd(p, p')."""
    n = len(p) - 1
    seq = [_primitive(p), _primitive([c * (n - i) for i, c in enumerate(p[:-1])])]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_primitive([-c for c in r]))
    return seq


def _sign_at(p, num, e) -> int:
    """The sign of p(num / 2^e): Horner's rule on 2^(e deg p) p(num / 2^e)."""
    h = 0
    for i, c in enumerate(p):
        h = h * num + (c << (e * i))
    return (h > 0) - (h < 0)


def _changes(signs) -> int:
    signs = [s for s in signs if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _changes_at_infinity(seq, side) -> int:
    """The sign changes of seq at +infinity (side 1) or -infinity (side -1)."""
    return _changes([(1 if p[0] > 0 else -1) * side ** (len(p) - 1) for p in seq])


def roots_above(seq, num, e=0) -> int:
    """The number of distinct real roots of seq[0] above num / 2^e, which
    must not be a root, seq its Sturm sequence: the sign changes of the
    sequence there minus those at +infinity."""
    return _changes([_sign_at(p, num, e) for p in seq]) - _changes_at_infinity(seq, 1)


def real_roots(seq) -> int:
    """The number of distinct real roots of seq[0], seq its Sturm sequence:
    the sign changes of the sequence at -infinity minus those at
    +infinity."""
    return _changes_at_infinity(seq, -1) - _changes_at_infinity(seq, 1)


def largest_root(seq):
    """(lo, hi, e): the largest real root of seq[0], seq its Sturm
    sequence, lies in (lo / 2^e, hi / 2^e), neither end a root, hi - lo at
    most 2^-BITS max(|lo|, |hi|) (or after a fixed number of halvings, for
    a root at 0).  Bisection by Sturm counts, so repeated roots need no
    care; each cut is at one of the 2 deg + 1 points of a fine grid nearest
    the midpoint, the first that is not a root."""
    p = seq[0]
    deg = len(p) - 1
    bound = 2 + max(map(abs, p[1:])) // abs(p[0])  # Cauchy: |root| < 1 + max|c_i / c_0|
    lo, hi, e = -bound, bound, 0
    if not roots_above(seq, lo):
        raise ValueError("polynomial has no real root")
    step = (2 * deg + 2).bit_length()  # the grid holds 2 deg + 1 points inside
    offsets = sorted(range(-deg, deg + 1), key=abs)
    for _ in range(BITS + 2 * bound.bit_length() + 8):
        if (hi - lo) << BITS <= max(abs(lo), abs(hi)):
            break
        lo, hi, e = lo << step, hi << step, e + step
        mid = next(m for m in ((lo + hi) // 2 + o for o in offsets) if _sign_at(p, m, e))
        if roots_above(seq, mid, e):
            lo = mid
        else:
            hi = mid
    return lo, hi, e
