"""Projective power iteration.

Bilinear forms x^T A y (``bilinear_max``, and ``multilinear_iterate`` for
r = 2) run block power (subspace) iteration with a Rayleigh-Ritz step
(Golub and Van Loan, Matrix Computations, sect. 8.2.4; Halko, Martinsson
and Tropp, SIAM Rev. 2011).  One standard normal draw of
``np.random.default_rng(seed)`` gives the k = min(_WIDTH, n, m) columns of
a block Y, and a step is Y = qr(A^T (A Y)), one QR.  _WIDTH = 16 is the
kernel's own: up to about 16 columns a step costs about the same, its
time being call overhead, while the rate below falls quickly with k.  A
step that checks the Ritz pair takes X = qr(A Y), then (Y, R) = qr(A^T X)
instead: the top singular pair of the k x k matrix R^T = X^T A Y gives the
Ritz pair, and one Gauss-Seidel half-step (x <- A y, then y <- A^T x, each
normalized) polishes it.  Checks come at steps 1 and 2, then where the
residuals' decay predicts the stop test is met.  The pair converges at
rate sigma_(k+1) / sigma_1, where one vector converges at sigma_2 /
sigma_1: ties and near-ties among the top k singular values cost nothing,
and a matrix of rank or smaller side at most k is answered in one step.
A cluster of top singular values wider than the block widens it to
min(n, m), where the Rayleigh-Ritz step is an exact SVD (``_subspace``).
``iterations`` counts block steps.

The two kernels for r >= 3 run a (B, n) block of starts side by side.  The
Gauss-Seidel kernel contracts the coefficient tensor once per slot and
step, with one ``np.einsum``, judges every step and drops a start when it
ends; near the end it polishes the whole block with batched Newton steps
(below).  The joint kernel forms every slot's partial gradient in one
``np.einsum`` per step, the Khatri-Rao products of the other slots times a
block-diagonal unfolding of the tensor (``_steps``).  One column gather of
the iterate, by an index built once per call (``_gather_index``), lines up
the factors of every product, and r - 2 products multiply them in slot
order.  It advances _BLOCK steps at a time and then judges them all at
once (``_joint``).  In the joint kernel a start's arithmetic does not
depend on the others in its block, so it gets exactly the result it would
get alone; in the Gauss-Seidel kernel the block decides when it is
polished.

Every form runs at unit scale: scaled by the power of two that puts its
largest coefficient in [0.5, 1) (``multiform._scaled``), with value and
residual scaled back exactly.  Scaling by a power of two is exact and
leaves every normalized iterate unchanged, so no squared norm overflows or
underflows, and the absolute stop test on the scaled form reads as one
relative to the form's own scale: t 2^j answers as t, for every j.

Gauss-Seidel kernel (the applications' multistart ascent): a step replaces
slot 1, then slot 2, ..., by its normalized partial gradient at the latest
other slots.  Each update maximizes l over its slot, so |l| never
decreases: the higher-order power method of De Lathauwer, De Moor and
Vandewalle (SIAM J. Matrix Anal. Appl. 2000).  It converges linearly, so
the steps are stopped once every row of the block moves each slot by
less than _SWITCH = 1e-6 in cosine, and at most _NEWTON = 3 Newton steps
on the Lagrange system dl/dx_s = lam_s x_s, x_s.x_s = 1 finish every row
at once, one batched ``np.linalg.solve`` a step (``_polish``).  A row
ends CONVERGED at the polished point only if it passes the same stop
rule there and its |l| did not fall; the others (a singular system at a
degenerate critical point, a non-finite step, a fall in |l|, too far
for three steps) go on with Gauss-Seidel steps from where they were,
and the block is polished again once every row moves ten times less.
The cap counts sweeps and Newton steps together.

Joint kernel: the literal iteration q <- grad l(q) / ||grad l(q)|| on the
concatenated vector, the dynamics the paper studies.  Its status is
judged in the joint projective space, where the relative slot magnitudes
obey an exact period-2 involution (log-magnitudes map to minus themselves):
generic runs report OSCILLATING even when the slot directions have settled
on a critical point.  The split-and-normalized point and its fixed-point
residual are always reported, so an oscillating run still identifies the
critical point it circles; nothing is certified as the absolute maximum.
Only ``multilinear_iterate`` runs it.

The joint kernel's _STARTS starts (seeds seed, seed + 1, ...) form one
block and give the answer of a sequential run: the lowest seed that
converges, else the best-valued start, lowest seed on ties.  A start is
dropped once a lower seed has converged at an earlier step.  ``_ascend``'s
starts are the rows of one standard normal draw of
``np.random.default_rng(seed)`` (``_random_starts``), and it keeps the best
value of all of them.  A start that meets a zero gradient is discarded.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, ZeroGradientError, integers
from .multiform import (
    MultilinearForm,
    _assess,
    _pair_subscripts,
    _partial,
    _row_dots,
    _row_norms,
    _scaled,
    _subscripts,
)

DEFAULT_TOL = 1e-14
DEFAULT_MAX_ITERS = 100_000

_STARTS = 6
_WIDTH = 16            # bilinear block columns: a step costs about the same up to here
_OSC_TOL = 1e-10
_BLOCK = 32            # joint steps advanced between two judgements
_ASCENT_SWEEPS = 500   # the ascent's cap on Gauss-Seidel and Newton steps together
_SWITCH = 1e-6         # the ascent polishes once every slot moves less than this in cosine
_NEWTON = 3            # Newton steps of the polish
_DROP = 1e-12          # the relative fall in |l| that refuses a polished row
_RETRY = 0.1           # the gap of the next polish, relative to the last one's
# starts of the applications' ascent and of the exact fallback's backing
# point: the maximum need not attract every start
_ASCENTS = 48
_PAIR = tuple(_subscripts(2))  # the einsum subscripts of a bilinear form's slots


class Status(enum.Enum):
    CONVERGED = "converged"
    NON_CONVERGED = "non-converged"
    OSCILLATING = "oscillating"


@dataclass(frozen=True)
class IterationResult:
    point: tuple          # one unit vector per slot
    value: float          # |l| at point
    iterations: int
    status: Status
    residual: float       # max_i || dl/dx_i - l * x_i ||


def _normalize(g, keep):
    """Divide the rows of g by their norms in place, a zero row replaced by
    ``keep``'s; returns the mask of the rows that were not zero.  The forms
    run at unit scale (max |c| < 1) on rows of norm at most 1, so every
    norm is finite."""
    norms = _row_norms(g)
    ok = norms > 0.0
    if not ok.all():
        g[~ok], norms[~ok] = keep[~ok], 1.0
    g /= norms[:, None]
    return ok


def _unscaled(result, k):
    """A result of the form t 2^-k as one of t: value and residual times 2^k."""
    return replace(result, value=math.ldexp(result.value, k),
                   residual=math.ldexp(result.residual, k))


def _random_starts(form, seeds, count=1):
    """``count`` random points per seed, as per-slot (B, d_i) blocks of unit
    rows: the rows of one standard normal draw of (count, sum(dims))
    entries per seed, each cut into slots."""
    offsets = np.cumsum((0,) + form.dims).tolist()
    draw = np.concatenate([np.random.default_rng(seed).standard_normal((count, offsets[-1]))
                           for seed in seeds])
    blocks = [draw[:, a:b] for a, b in zip(offsets, offsets[1:])]
    norms = [np.sqrt(np.vecdot(s, s)) for s in blocks]  # row by row what np.linalg.norm computes
    if not np.all(norms):  # pragma: no cover - measure zero
        raise ZeroGradientError("degenerate random start")
    return [s / n[:, None] for s, n in zip(blocks, norms)]


def _stopped(value, residual, tol):
    """The stop rule: the fixed-point residual is small against |l|."""
    return residual <= 10.0 * tol * (1.0 + np.abs(value))


def _results(t, subs, slots, iterations, statuses):
    """The outcome of ending each row of a block of points (per-slot unit
    rows) after iterations[k] steps with statuses[k]; ZeroGradientError for
    a row with status None (a zero gradient) or whose slot collapsed to zero."""
    value, residual = _assess(t, subs, slots)
    collapsed = np.any([_row_norms(s) == 0.0 for s in slots], axis=0)
    return [ZeroGradientError(f"zero gradient at iteration {iterations[k]}")
            if statuses[k] is None
            else ZeroGradientError("slot collapsed to zero while splitting") if collapsed[k]
            else IterationResult(tuple(s[k].copy() for s in slots), abs(float(value[k])),
                                 int(iterations[k]), statuses[k], float(residual[k]))
            for k in range(len(value))]


def _converged(outcomes, index, slots, value, residual, iterations):
    """Set outcomes[index[k]] to a CONVERGED result at row k of ``slots``
    (per-slot blocks of unit rows made for it, whose rows the results
    keep), |value[k]|, iterations[k] steps and residual[k], for each k."""
    for i, point, v, n, res in zip(index.tolist(), zip(*slots), np.abs(value).tolist(),
                                   iterations.tolist(), residual.tolist()):
        outcomes[i] = IterationResult(point, v, n, Status.CONVERGED, res)


def _pick(outcomes):
    """The restart rule: first converged start, else the best-valued one
    (lowest seed on ties); raise when every start met a zero gradient."""
    best = None
    failure = None
    for out in outcomes:
        if isinstance(out, ZeroGradientError):
            failure = out
        elif out.status is Status.CONVERGED:
            return out
        elif best is None or out.value > best.value:
            best = out
    if best is not None:
        return best
    raise failure if failure is not None else ZeroGradientError("all restarts failed")


def _solve(jac, rhs):
    """Each row's Newton step, J x = rhs for every (J, rhs) of the block;
    NaN for a row whose J is singular."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular matrix fails the whole batch
        steps = np.full_like(rhs, np.nan)
        for k, (a, b) in enumerate(zip(jac, rhs)):
            try:
                steps[k] = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                pass
        return steps


def _polish(t, subs, pairs, slots, steps, tol):
    """At most ``steps`` Newton steps from every row of a block of points
    (per-slot unit rows) on the Lagrange system dl/dx_s = lam_s x_s,
    x_s.x_s = 1, all rows at once.  Its Jacobian is [[H - diag(lam_s I),
    -X], [X^T, 0]], H the Hessian of l, whose (s, u) block contracts the
    tensor with the other r - 2 slots (``pairs``, _pair_subscripts), and X
    the block-diagonal matrix of the slots; lam_s = l at a point on the
    spheres (the Euler identity).  One batched solve takes every row's
    step, and each slot is then renormalized.

    Returns (taken, point, value, residual), one entry per row: a row ends
    at the first step where it passes the stop rule (``_assess``,
    ``_stopped``) with |l| not below its value at entry by more than _DROP
    relative, and not zero (a zero gradient, which Gauss-Seidel reports as
    such); taken holds that step, point, value and residual what they are
    there.  A row that does not (a singular matrix at a degenerate critical
    point, a non-finite step, a fall in |l|, or the steps run out) reads
    taken 0."""
    r, dims = len(slots), [s.shape[1] for s in slots]
    cols = np.cumsum([0] + dims).tolist()
    n = cols[-1]
    diag = np.arange(n)
    blocks = list(zip(itertools.combinations(range(r), 2), pairs))
    rows = len(slots[0])
    taken = np.zeros(rows, dtype=int)
    point = [np.empty_like(s) for s in slots]
    value, residual = np.zeros(rows), np.zeros(rows)
    live, at = np.arange(rows), list(slots)
    with np.errstate(all="ignore"):  # a refused row may overflow: it ends below
        for k in range(steps + 1):
            grads = [_partial(t, subs, at, i) for i in range(r)]
            lam, res = _assess(t, subs, at, grads)
            if k == 0:
                entry = np.abs(lam)
            else:
                ok = (_stopped(lam, res, tol) & (np.abs(lam) >= entry * (1.0 - _DROP))
                      & (lam != 0.0))
                done = live[ok]
                taken[done], value[done], residual[done] = k, lam[ok], res[ok]
                for p, a in zip(point, at):
                    p[done] = a[ok]
                keep = ~ok & np.isfinite(res)
                live, entry, lam = live[keep], entry[keep], lam[keep]
                at, grads = [a[keep] for a in at], [g[keep] for g in grads]
            if k == steps or not live.size:
                break
            jac = np.zeros((live.size, n + r, n + r))
            for (i, j), sub in blocks:
                h = np.einsum(sub, t, *(a for m, a in enumerate(at) if m not in (i, j)))
                jac[:, cols[i]:cols[i + 1], cols[j]:cols[j + 1]] = h
                jac[:, cols[j]:cols[j + 1], cols[i]:cols[i + 1]] = h.swapaxes(-1, -2)
            jac[:, diag, diag] = -lam[:, None]
            rhs = np.zeros((live.size, n + r))
            for i, (a, g) in enumerate(zip(at, grads)):
                jac[:, cols[i]:cols[i + 1], n + i] = -a
                jac[:, n + i, cols[i]:cols[i + 1]] = a
                rhs[:, cols[i]:cols[i + 1]] = lam[:, None] * a - g
            step = _solve(jac, rhs)
            at = [a + step[:, c:d] for a, c, d in zip(at, cols, cols[1:])]
            for a in at:
                a /= _row_norms(a)[:, None]
    return taken, point, value, residual


def _gauss_seidel(form, starts, tol, max_iters):
    """Slot-wise (Gauss-Seidel) ascent of every start of ``starts`` (per-slot
    blocks of unit rows), finished by Newton's method; returns the outcome
    of each row.

    A step maps the point p to p'.  The start converges at p when every slot
    of p' is parallel to p's within tol and the residual at p is small.
    Once every active row has every slot parallel to the last within
    _SWITCH, the block is polished: at most _NEWTON Newton steps
    (``_polish``), within the cap, which counts them as steps.  A row the
    polish ends converges at the polished point; the others go on with
    Gauss-Seidel steps from their point before it, and are polished again
    once every one is parallel within _RETRY times the last gap.
    """
    t, subs = form.tensor, _subscripts(form.order)
    pairs = _pair_subscripts(form.order)
    r = form.order
    slots = list(starts)
    outcomes = [None] * len(slots[0])
    index = np.arange(len(outcomes))        # the start of each active row
    gap = _SWITCH                           # the cosine gap of the next polish
    it = 0
    while it < max_iters:
        it += 1
        point = slots
        slots = list(slots)
        usable = np.ones(index.size, dtype=bool)
        for i in range(r):
            slots[i] = _partial(t, subs, slots, i)
            usable &= _normalize(slots[i], point[i])
        ended = list(np.flatnonzero(~usable))
        for pos in ended:
            outcomes[index[pos]] = ZeroGradientError(f"zero gradient at iteration {it}")
        cosine = np.abs(_row_dots(slots[0], point[0]))
        for a, b in zip(slots[1:], point[1:]):
            cosine = np.minimum(cosine, np.abs(_row_dots(a, b)))
        stationary = (cosine >= 1.0 - tol) & usable
        if stationary.any():
            near = np.flatnonzero(stationary)
            at = [p[near] for p in point]
            value, residual = _assess(t, subs, at)
            done = _stopped(value, residual, tol)
            _converged(outcomes, index[near[done]], [a[done] for a in at], value[done],
                       residual[done], np.full(np.count_nonzero(done), it))
            ended += list(near[done])
        if ended:
            keep = np.ones(index.size, dtype=bool)
            keep[ended] = False
            index, slots, cosine = index[keep], [s[keep] for s in slots], cosine[keep]
            if not index.size:
                break
        if gap >= tol and it < max_iters and (cosine >= 1.0 - gap).all():
            gap *= _RETRY
            steps = min(_NEWTON, max_iters - it)
            taken, at, value, residual = _polish(t, subs, pairs, slots, steps, tol)
            done = taken > 0
            _converged(outcomes, index[done], [a[done] for a in at], value[done],
                       residual[done], it + taken[done])
            keep = ~done
            index, slots = index[keep], [s[keep] for s in slots]
            it += steps
            if not index.size:
                break
    else:
        count = index.size
        for i, out in zip(index, _results(t, subs, slots, [max_iters] * count,
                                          [Status.NON_CONVERGED] * count)):
            outcomes[i] = out
    return outcomes


def _split_unit(q, offsets):
    """Split concatenated rows at ``offsets`` (0, d_1, d_1 + d_2, ...,
    sum(dims)) into per-slot unit rows; also flags the rows with a zero slot."""
    slots = [q[:, a:b] for a, b in zip(offsets, offsets[1:])]
    norms = [_row_norms(s) for s in slots]
    collapsed = np.any([n == 0.0 for n in norms], axis=0)
    return [s / np.where(n == 0.0, 1.0, n)[:, None] for s, n in zip(slots, norms)], collapsed


def _unfolding(t):
    """The block-diagonal unfolding W of t, slot i's block the rows of
    ``np.moveaxis(t, i, -1)``: a (B, K) row of the other slots' Khatri-Rao
    products, slot by slot, times W is every slot's partial gradient at
    once, the MTTKRP of Kolda and Bader (SIAM Rev. 2009)."""
    sizes = [t.size // d for d in t.shape]
    w = np.zeros((sum(sizes), sum(t.shape)))
    rows, cols = np.cumsum((0,) + tuple(sizes)), np.cumsum((0,) + t.shape)
    for i, d in enumerate(t.shape):
        w[rows[i]:rows[i + 1], cols[i]:cols[i + 1]] = np.moveaxis(t, i, -1).reshape(-1, d)
    return w


def _gather_index(offsets):
    """The (r - 1, K) columns of a concatenated point that make up its
    Khatri-Rao row, ``offsets`` as in ``_split_unit``: column c of slot i's
    block (the row order of ``_unfolding``) is the product, in slot order,
    of one coordinate of each other slot, and row p holds the p-th."""
    spans = [range(a, b) for a, b in zip(offsets, offsets[1:])]
    cols = [c for i in range(len(spans))
            for c in itertools.product(*spans[:i], *spans[i + 1:])]
    return np.array(cols, dtype=np.intp).T.copy()  # take() copies a strided index


def _steps(w, gather, buf, norms):
    """The fused joint step, r >= 3: buf[k + 1] = grad l(buf[k]) / ||grad
    l(buf[k])|| for each (B, sum(dims)) slice of buf in turn, norms[k] the
    gradient norm of each row.  One gather of buf[k]'s columns by ``gather``
    (``_gather_index``) puts the r - 1 factors of every Khatri-Rao product
    side by side, r - 2 products multiply them, in slot order, into one
    (B, K) buffer, and one ``np.einsum`` contracts it with W
    (``_unfolding``): that einsum sums each row on its own, where a BLAS
    product may not, so a row's bits do not depend on the block.  A zero
    gradient reads norm 0 and leaves its row non-finite from there on."""
    width = buf.shape[1]
    factors = np.empty((width, *gather.shape))
    kr = np.empty((width, gather.shape[1]))
    first, second, *rest = factors.transpose(1, 0, 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        for q, g, norm, column in zip(buf[:-1], buf[1:], norms, norms[..., None]):
            q.take(gather, axis=1, out=factors, mode="clip")
            np.multiply(first, second, out=kr)
            for f in rest:
                np.multiply(kr, f, out=kr)
            np.einsum("bk,kn->bn", kr, w, out=g)
            np.sqrt(np.einsum("bn,bn->b", g, g, out=norm), out=norm)
            np.divide(g, column, out=g)


def _joint(form, starts, tol, max_iters):
    """Joint power iteration of every start of ``starts`` (per-slot blocks of
    unit rows, r >= 3) under the restart rule; returns the outcome of each
    row, None for a row dropped unfinished.

    The active rows advance _BLOCK steps (fewer at the cap) into one buffer
    by the fused step (``_steps``), and the steps are then judged all at
    once.  A row ends at its first event: a zero gradient, convergence or
    oscillation; a row with a slot collapsed to zero ends with a zero
    gradient.  A row is dropped once a lower row has converged at an
    earlier step, read off the running minimum, over the rows in order, of
    the step each converged at.  Rows leave at the block's end."""
    t, subs = form.tensor, _subscripts(form.order)
    offsets = np.cumsum((0,) + form.dims).tolist()
    w, gather = _unfolding(t), _gather_index(offsets)
    q = np.concatenate(starts, axis=1)
    q /= _row_norms(q)[:, None]
    outcomes = [None] * len(q)
    index = np.arange(len(q))                 # the start of each active row
    history = np.full((4, *q.shape), np.nan)  # last 4 canonical iterates, oldest first
    base = 0                                  # steps taken before this block
    while base < max_iters and index.size:
        steps = min(_BLOCK, max_iters - base)
        width, n = q.shape
        buf = np.empty((steps + 1, width, n))
        buf[0] = q
        norms = np.empty((steps, width))
        _steps(w, gather, buf, norms)
        bad = ~(norms > 0.0)  # a zero gradient, or a row past one
        if bad.any():         # zero such rows: no judgement below warns on them
            buf[1:][bad] = 0.0
        q = buf[1:].reshape(-1, n)
        done = np.abs(_row_dots(q, buf[:-1].reshape(-1, n))) >= 1.0 - tol
        near = np.flatnonzero(done)
        if near.size:
            slots, collapsed = _split_unit(q[near], offsets)
            value, residual = _assess(t, subs, slots)
            done[near] = collapsed | _stopped(value, residual, tol)
        lead = np.argmax(np.abs(q), axis=1)
        canon = q * np.where(q[np.arange(len(q)), lead] >= 0.0, 1.0, -1.0)[:, None]
        canon = np.concatenate((history, canon.reshape(steps, width, n)))
        # Oscillation = revisiting a projective point at lag 2..4 while still
        # moving (lag-1 distinct); a near-identical lag-1 iterate is slow
        # convergence, handled by the stopping rule above.  A lag reaching
        # before step 1 reads NaN, which compares False.
        diff = canon[4:] - np.stack([canon[4 - lag:4 - lag + steps] for lag in range(1, 5)])
        dist = np.sqrt(np.einsum("lkbn,lkbn->lkb", diff, diff))  # by lag 1..4
        cycling = (dist[0] > _OSC_TOL) & (dist[1:] <= _OSC_TOL).any(axis=0)
        done = done.reshape(steps, width)
        cycling &= ~done
        events = bad | done | cycling
        hit = events.any(axis=0)
        q, history = buf[-1], canon[-4:]
        if hit.any():
            first = np.where(hit, events.argmax(axis=0), steps)  # steps: no event
            ends = np.flatnonzero(hit)
            at = first[ends]
            slots, collapsed = _split_unit(buf[at + 1, ends], offsets)
            converged = done[at, ends] & ~bad[at, ends] & ~collapsed
            step = np.full(width, steps)      # the step each row converged at
            step[ends[converged]] = at[converged]
            dropped = np.minimum.accumulate(np.concatenate(([steps], step[:-1]))) < first
            outs = _results(t, subs, slots, base + at + 1, [
                None if b else Status.CONVERGED if c else Status.OSCILLATING
                for b, c in zip(bad[at, ends], converged)])
            for e, out in zip(ends, outs):
                if not dropped[e]:
                    outcomes[index[e]] = out
            live = ~(hit | dropped)
            q, history, index = q[live], history[:, live], index[live]
        base += steps
    count = index.size
    if count:
        for i, out in zip(index, _results(t, subs, _split_unit(q, offsets)[0],
                                          [max_iters] * count, [Status.NON_CONVERGED] * count)):
            outcomes[i] = out
    return outcomes


def _ritz_pair(a, y, r, iterations, tol):
    """The top Ritz pair of the block (X, Y), where X^T A Y = R^T, after one
    Gauss-Seidel half-step, scored by its fixed-point residual; also the
    ratio sigma_k / sigma_1 of the block's last and first Ritz values.  The
    step x <- A y / |A y|, y <- A^T x / |A^T x| replaces the Ritz x, so only
    the Ritz y = Y v_1 is formed."""
    _, sigma, vt = np.linalg.svd(r.T)
    y = y @ vt[0]
    x = a @ y  # not zero: A Y != 0, so sigma_1 > 0 and A y != 0, A^T x != 0
    x /= math.sqrt(x.dot(x))  # np.linalg.norm(x), without its checks
    y = a.T @ x
    y /= math.sqrt(y.dot(y))
    value, residual = _assess(a, _PAIR, [x[None, :], y[None, :]])
    value, residual = abs(float(value[0])), float(residual[0])
    status = Status.CONVERGED if _stopped(value, residual, tol) else Status.NON_CONVERGED
    ratio = float(sigma[-1] / sigma[0])
    return IterationResult((x, y), value, iterations, status, residual), ratio


def _subspace(form, seed, tol, max_iters):
    """Block power (subspace) iteration for x^T A y from a block Y of k =
    min(_WIDTH, n, m) standard normal columns, one draw of
    ``np.random.default_rng(seed)``: the polished top Ritz pair, CONVERGED
    at the first check it passes, else NON_CONVERGED at the cap;
    ZeroGradientError if A Y = 0.

    A step is Y = qr(A^T (A Y)): span Y is span((A^T A)^t Y_0), and the
    Ritz pair converges at rate sigma_(k+1) / sigma_1.  A check step takes
    X = qr(A Y), then (Y, R) = qr(A^T X), whose R gives the Ritz values,
    so checks, widening and iterations read as with two QRs on every step.
    A check adds a QR, a k x k SVD and a residual to its step, about as
    much again as the step.  The pair is checked at steps 1 and 2 and at
    the cap; after a later failed check the next one comes where the
    geometric decay of the last two checks' residuals meets the stop test,
    at least one step and at most as many steps on as taken so far, or
    when the steps have grown by a quarter if the residual did not fall.
    A Gaussian 50x40 run makes 6 checks in 21 steps, where checks at steps
    1 to 4 and then at each growth by a quarter made 14 in 59 at k = 6.

    A check that fails with (sigma_k / sigma_1)^(max_iters - it) > tol
    finds every Ritz value of the block so close to sigma_1 that, should
    sigma_(k+1) be as close, the steps left could not reach tol: columns
    drawn next from the same generator then widen the block to min(n, m).
    A block that wide spans the smaller side, so the next Rayleigh-Ritz
    step is an exact SVD.  Gaussian matrices never widen: their
    sigma_16 / sigma_1 is far below tol^(1 / max_iters).
    """
    a = form.tensor
    m, width = a.shape[1], min(a.shape)
    k = min(_WIDTH, width)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((m, k))
    due, last = 1, None  # the next check's step; the last failed check's (step, residual)
    for it in range(1, max_iters + 1):
        z = a @ y
        if not np.count_nonzero(z):  # z.any(), at a third of its cost
            raise ZeroGradientError(f"A Y = 0 at iteration {it}")
        if it < due and it < max_iters:
            y = np.linalg.qr(a.T @ z)[0]
            continue
        y, r = np.linalg.qr(a.T @ np.linalg.qr(z)[0])
        result, ratio = _ritz_pair(a, y, r, it, tol)
        if result.status is Status.CONVERGED:
            return result
        residual = result.residual
        if last is None:
            due = it + 1
        elif residual < last[1]:  # steps until the fitted decay meets _stopped's level
            ahead = (it - last[0]) * math.log(10.0 * tol * (1.0 + result.value) / residual) / (
                math.log(residual / last[1]))
            due = it + min(max(math.ceil(ahead), 1), it)
        else:
            due = it + 1 + it // 4
        last = it, residual
        if k < width and it < max_iters and ratio ** (max_iters - it) > tol:
            y = np.hstack([y, rng.standard_normal((m, width - k))])
            k, due = width, it + 1
    return result


def _run_with_restarts(form, seed, tol, max_iters):
    """r = 2: one block of min(_WIDTH, n, m) columns drawn from seed
    (``_subspace``).  r >= 3: the restart rule over the _STARTS starts seed,
    seed + 1, ..., all in one block."""
    (max_iters,) = integers((max_iters,), "max_iters", ValueError)
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if not 0.0 < tol < math.inf:  # False on NaN too
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not np.any(form.coeffs):
        raise ZeroGradientError("zero form")
    form, k = _scaled(form)
    if form.order == 2:
        return _unscaled(_subspace(form, seed, tol, max_iters), k)
    starts = _random_starts(form, range(seed, seed + _STARTS))
    return _unscaled(_pick(_joint(form, starts, tol, max_iters)), k)


def _ascend(form, seed, count):
    """Gauss-Seidel ascent, finished by Newton's method, from ``count``
    random starts, the rows of one draw of ``default_rng(seed)``, all in one
    block, each until it converges or for _ASCENT_SWEEPS steps: the
    best-valued result (first row on ties).  Raises the ZeroGradientError
    when every start meets a zero gradient."""
    if form.order < 2:
        raise DimensionMismatchError(f"the ascent needs r>=2, got r={form.order}")
    form, k = _scaled(form)
    starts = _random_starts(form, [seed], count)
    outcomes = _gauss_seidel(form, starts, DEFAULT_TOL, _ASCENT_SWEEPS)
    results = [out for out in outcomes if isinstance(out, IterationResult)]
    if not results:
        raise outcomes[0]
    return _unscaled(max(results, key=lambda r: r.value), k)


def bilinear_max(
    form: MultilinearForm,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> IterationResult:
    """Maximum of |l| over S^n x S^m for a bilinear form: the first singular
    value of the coefficient matrix A, by block power iteration.

    Up to sixteen random columns, one draw from ``seed``, form one block;
    each step multiplies it by A^T A and orthonormalizes it, and a
    Rayleigh-Ritz step picks the best pair in it, so the value converges at
    rate sigma_(k+1) / sigma_1 for a block of width k, repeated or nearly
    repeated top singular values included; a matrix with at most sixteen
    rows or columns is answered at the first step.
    When every Ritz value of the block sits too close to sigma_1 to resolve
    a wider cluster in the steps left, the block widens to min(n, m).
    ``max_iters`` counts block steps; a run that reaches it is NON_CONVERGED.
    """
    if form.order != 2:
        raise DimensionMismatchError(f"bilinear_max needs r=2, got r={form.order}")
    return _run_with_restarts(form, seed, tol, max_iters)


def multilinear_iterate(
    form: MultilinearForm,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> IterationResult:
    """Normalized-gradient iteration for r >= 2 (best-effort for r >= 3).

    For r = 2 this specializes to bilinear_max.  For r >= 3 a CONVERGED
    result is a critical point (small fixed-point residual) but is NOT
    certified to be the absolute maximum, and generic runs report OSCILLATING
    because the joint projective dynamics carry an exact period-2 magnitude
    cycle; the reported point and value are still meaningful (check the
    residual).
    """
    if form.order < 2:
        raise DimensionMismatchError(f"multilinear_iterate needs r>=2, got r={form.order}")
    return _run_with_restarts(form, seed, tol, max_iters)
