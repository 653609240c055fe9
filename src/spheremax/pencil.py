"""The pencil kernel: the maximum of a trilinear form with a slot of
dimension 2, without a Groebner basis.

With that slot first, l(x, y, z) = y^T (x_1 a + x_2 b) z, so max |l| is the
largest top singular value of the pencil x_1 a + x_2 b over the unit circle.
``search`` finds it in floats, and ``certify`` brackets its square exactly,
in Python ints: over one common denominator D the slices are integer
matrices A and B, G(t) = G_0 + t G_1 + t^2 G_2 is the Gram matrix of A + t B
on its smaller side, and mu is a squared singular value of D (x_1 a +
x_2 b) somewhere on the circle exactly when P_mu(t) = det(mu (1 + t^2) I -
G(t)) has a real root or drops degree (``test``).  algsolver's module
docstring gives the certificate's argument, and algsolver._pencil_max reads
the form, scores the point and writes the report.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from . import intpoly

GRID = 64           # angles of the float search over the half circle
STARTS = 3          # grid peaks refined, the highest first
STEPS = 60          # Newton or bisection steps of each refinement
TOL = 2.0**-48      # the refinement's last step in theta, and its slope over lam
WIDTH = 44          # the certificate tries mu-hat (1 -+ 2^-44), and bisects to that width
BITS = 64           # significant bits of every mu tested


def slot(dims):
    """The slot of dimension 2 whose pencil a trilinear form answers from,
    the one whose other two slots have the smallest lesser dimension k
    (the size of the Gram matrices), the first on ties; None without one."""
    twos = [s for s, d in enumerate(dims) if d == 2] if len(dims) == 3 else []
    return min(twos, key=lambda s: min(d for i, d in enumerate(dims) if i != s), default=None)


def _products(a, b):
    """The integer matrix a b^T."""
    return [[sum(map(operator.mul, r, s)) for s in b] for r in a]


def setup(a, b):
    """(gram, qs) of the integer slices a and b, each with no more rows than
    columns: the Gram matrices G_0 = a a^T, G_1 = a b^T + b a^T and
    G_2 = b b^T, of size k, and q_j = c_j(t) (1 + t^2)^(k - j), j = 0..k,
    c_j the coefficient of nu^(k - j) in det(nu I - G(t)), each padded to
    2k + 1 entries, so that P_mu = sum_j mu^(k - j) q_j."""
    ab = _products(a, b)
    gram = (_products(a, a), [[x + y for x, y in zip(r, c)] for r, c in zip(ab, zip(*ab))],
            _products(b, b))
    qs = intpoly.pencil_charpoly(gram)
    for j, q in enumerate(qs):
        for _ in range(len(qs) - 1 - j):  # times 1 + t^2; q's top two entries are 0
            q[:] = [u + v for u, v in zip(q[2:] + [0, 0], q)]
    return gram, qs


def poly(qs, mu):
    """d^k P_mu(t) = det(n (1 + t^2) I - d G(t)) for mu = n / d, from setup's
    q_j: an integer polynomial of degree at most 2k."""
    n, d, k = mu.numerator, mu.denominator, len(qs) - 1
    weights = [n ** (k - j) * d ** j for j in range(k + 1)]
    return [sum(w * q[i] for w, q in zip(weights, qs)) for i in range(2 * k + 1)]


def test(qs, mu) -> bool:
    """T(mu): mu is a squared singular value of the pencil at a point of
    the circle.  At t = infinity (x = (0, 1)) when P_mu's t^(2k)
    coefficient, det(mu I - G_2), vanishes (as it does when P_mu vanishes
    identically); else at a real t, by one Sturm count over the line."""
    p = poly(qs, mu)
    return not p[0] or intpoly.real_roots(intpoly.sturm(p)) > 0


def above_top(gram, direction, mu) -> bool:
    """Whether mu exceeds top(t0), the largest squared singular value of the
    pencil at the direction (alpha, beta), two ints: whether
    n (alpha^2 + beta^2) I - d (alpha^2 G_0 + alpha beta G_1 + beta^2 G_2),
    mu = n / d, is positive definite, read off its characteristic
    polynomial (intpoly.berkowitz), whose roots are real: they are all
    positive iff its coefficients alternate strictly in sign."""
    n, d = mu.numerator, mu.denominator
    al, be = direction
    weights = (al * al, al * be, be * be)
    diag = n * (al * al + be * be)
    size = range(len(gram[0]))
    s = [[diag * (i == j) - d * sum(w * g[i][j] for w, g in zip(weights, gram)) for j in size]
         for i in size]
    return all(c * (-1) ** j > 0 for j, c in enumerate(intpoly.berkowitz(s)))


def _rounded(q, up: bool):
    """q > 0 rounded up or down to BITS significant bits."""
    scale = Fraction(2) ** (BITS - q.numerator.bit_length() + q.denominator.bit_length())
    return (math.ceil(q * scale) if up else math.floor(q * scale)) / scale


def certify(gram, qs, direction, mu):
    """None when mu-hat = ``mu`` is the maximum squared singular value mu*
    within 2^-44 relative: mu-hat (1 - 2^-44) is at most top(t0), t0 the
    direction (two ints), and mu-hat (1 + 2^-44) above top(t0) with T false
    there (each end rounded inward to BITS bits).  Otherwise (lo, hi), a
    bracket of mu* 2^-44 of hi wide: the ends the certificate did
    establish, else 0 and tr G_0 + tr G_2 (sigma_1^2 is at most the
    Frobenius norm squared), bisected with the same two predicates."""

    def at_most(mu):  # mu <= mu*, else mu > mu*
        return not above_top(gram, direction, mu) or test(qs, mu)

    lo, hi = (_rounded(mu * (1 + side * Fraction(1, 1 << WIDTH)), side > 0)
              for side in (-1, 1))
    if not at_most(lo):
        lo, hi = Fraction(0), lo
    elif at_most(hi):
        lo, hi = hi, Fraction(sum(gram[0][i][i] + gram[2][i][i] for i in range(len(qs) - 1)))
    else:
        return None
    while (hi - lo) * (1 << WIDTH) > hi:
        mid = _rounded((lo + hi) / 2, False)
        lo, hi = (mid, hi) if at_most(mid) else (lo, mid)
    return lo, hi


def _curve(a, b, theta):
    """(lam, slope, curvature, w) at each angle of ``theta``: the top
    eigenvalue lam = sigma^2 of G = M M^T, M = cos(theta) a + sin(theta) b
    (a and b with no more rows than columns), its first two derivatives in
    theta and its unit eigenvector w, the left singular vector of sigma.
    With M' = cos(theta) b - sin(theta) a, M'' = -M, G' = M' M^T + M M'^T
    and G'' = 2 (M' M'^T - G): lam' = w^T G' w (Hellmann-Feynman) and
    lam'' = w^T G'' w + 2 sum_i (w_i^T G' w)^2 / (lam - lam_i) over G's
    other eigenpairs (lam_i, w_i), not finite where lam is tied."""
    c, s = np.cos(theta)[:, None, None], np.sin(theta)[:, None, None]
    mat, slope = c * a + s * b, c * b - s * a
    cross = slope @ mat.transpose(0, 2, 1)
    lam, vecs = np.linalg.eigh(mat @ mat.transpose(0, 2, 1))
    top, lam_top = vecs[:, :, -1], lam[:, -1]
    coupling = np.einsum("bji,bj->bi", vecs,
                         np.einsum("bij,bj->bi", cross + cross.transpose(0, 2, 1), top))
    turn = np.einsum("bij,bi->bj", slope, top)
    with np.errstate(all="ignore"):
        curvature = 2.0 * ((turn * turn).sum(axis=1) - lam_top) + 2.0 * (
            coupling[:, :-1] ** 2 / (lam_top[:, None] - lam[:, :-1])).sum(axis=1)
    return lam_top, coupling[:, -1], curvature, top


def _climb(a, b, theta, step, slopes, at):
    """The local maximum of lam within ``step`` of the grid angle
    ``theta``, ``slopes`` lam' at theta - step, theta and theta + step,
    ``at`` _curve's row at theta: Newton's method on lam' = 0, kept inside
    the bracket where lam' goes from + to -, a step that leaves it (or a
    curvature that is not negative) replaced by bisection, until the slope
    is below TOL lam, or a Newton step or the bracket below TOL.
    (theta, lam, w) at its end; the grid angle's when the slopes bracket no
    maximum."""
    left, mid, right = slopes
    if mid > 0 > right:
        lo, hi = theta, theta + step
    elif mid < 0 < left:
        lo, hi = theta - step, theta
    else:
        return theta, at[0], at[3]
    for _ in range(STEPS):
        _, slope, curvature, _ = at
        if slope > 0:
            lo = theta
        elif slope < 0:
            hi = theta
        newton = -slope / curvature if curvature < 0 else math.nan
        if abs(slope) <= TOL * at[0] or abs(newton) <= TOL or hi - lo <= TOL:
            break
        theta = theta + newton if lo < theta + newton < hi else 0.5 * (lo + hi)
        at = [v[0] for v in _curve(a, b, np.array([theta]))]
    return theta, at[0], at[3]


def search(a, b):
    """(theta, lam, w) of the float search over the pencil of the float
    slices a and b (no more rows than columns): lam (see _curve) on GRID
    angles over the half circle (lam has period pi), one batched
    np.linalg.eigh, and _climb from the grid's highest peaks, at most
    STARTS of them, each with sigma within cos(pi / GRID) of the best; the
    best climb."""
    step = math.pi / GRID
    grid = np.arange(GRID) * step
    rows = _curve(a, b, grid)
    lam, slope = rows[0], rows[1]
    peaks = [i for i in np.argsort(-lam, kind="stable").tolist()
             if lam[i] >= max(lam[i - 1], lam[(i + 1) % GRID])
             and lam[i] >= lam.max() * math.cos(step) ** 2]
    best = None
    for i in peaks[:STARTS]:
        found = _climb(a, b, grid[i], step, slope[[i - 1, i, (i + 1) % GRID]],
                       [v[i] for v in rows])
        if best is None or found[1] > best[1]:
            best = found
    return best
