"""Projective power iteration.

Bilinear forms x^T A y (``bilinear_max``, and ``multilinear_iterate`` for
r = 2) run block power (subspace) iteration with a Rayleigh-Ritz step
(Golub and Van Loan, Matrix Computations, sect. 8.2.4; Halko, Martinsson
and Tropp, SIAM Rev. 2011).  The y slots of the random starts seed, ...,
seed + k - 1, k = min(_STARTS, n, m), are the columns of one block Y, and a
step is X = qr(A Y), then (Y, R) = qr(A^T X).  The top singular pair of the
k x k matrix R^T = X^T A Y gives the Ritz pair, and one Gauss-Seidel
half-step (x <- A y, then y <- A^T x, each normalized) polishes it.  The
pair converges at rate sigma_(k+1) / sigma_1, where one vector converges at
sigma_2 / sigma_1: ties and near-ties among the top k singular values cost
nothing, and a matrix of rank or size at most k is answered in one step.
``iterations`` counts block steps.

The two kernels for r >= 3 run a (B, n) block of starts side by side, one
``np.einsum`` contraction of the coefficient tensor per slot and step; a
start leaves the block when it ends.  A start's arithmetic does not depend
on the others in its block, so it gets exactly the result it would get
alone.

Gauss-Seidel kernel (the applications' multistart ascent): a step replaces
slot 1, then slot 2, ..., by its normalized partial gradient at the latest
other slots.  Each update maximizes l over its slot, so |l| never
decreases: the higher-order power method of De Lathauwer, De Moor and
Vandewalle (SIAM J. Matrix Anal. Appl. 2000).

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
converges, once every lower seed has ended (later ones are dropped
unfinished), else the best-valued start, lowest seed on ties; ``_ascend``
keeps the best value of all its starts.  A start that meets a zero gradient
is discarded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ZeroGradientError
from .multiform import (
    MultilinearForm,
    _assess,
    _partial,
    _row_dots,
    _row_norms,
    _subscripts,
)

DEFAULT_TOL = 1e-14
DEFAULT_MAX_ITERS = 100_000

_STARTS = 6
_OSC_TOL = 1e-10
_ASCENT_SWEEPS = 500


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
    """Rows of g over their norms, and the mask of rows that could be
    normalized (zero or non-finite norm: the row is ``keep``'s instead)."""
    norms = _row_norms(g)
    if norms.min() > 0.0 and norms.max() < np.inf:  # False on NaN too
        return g / norms[:, None], None
    ok = (norms > 0.0) & np.isfinite(norms)
    g = np.where(ok[:, None], g, keep)
    return g / np.where(ok, norms, 1.0)[:, None], ok


def _random_starts(form, seeds):
    """One random point per seed, as per-slot (B, d_i) blocks of unit rows."""
    blocks = [np.empty((len(seeds), d)) for d in form.dims]
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for block, d in zip(blocks, form.dims):
            v = rng.standard_normal(d)
            n = np.linalg.norm(v)
            if n == 0.0:  # pragma: no cover - measure zero
                raise ZeroGradientError("degenerate random start")
            block[row] = v / n
    return blocks


class _Rows:
    """Which starts of a block still run, and how the ended ones ended.

    Under the sequential rule the answer is settled once the lowest
    converged row has ended with every row before it, so rows after a
    converged one are dropped unfinished (their outcome stays None).
    """

    def __init__(self, count, sequential):
        self.sequential = sequential
        self.outcomes = [None] * count
        self.index = np.arange(count)          # block row of each active row
        self.bound = count                     # rows from here on are not needed

    def end(self, pos, outcome):
        i = int(self.index[pos])
        self.outcomes[i] = outcome
        if (self.sequential and isinstance(outcome, IterationResult)
                and outcome.status is Status.CONVERGED):
            self.bound = min(self.bound, i)

    def end_points(self, t, subs, positions, slots, iterations, status):
        """End the given active rows at the points ``slots`` (one row each)."""
        value, residual = _assess(t, subs, slots)
        for k, pos in enumerate(positions):
            point = tuple(s[k].copy() for s in slots)
            self.end(pos, IterationResult(
                point, abs(float(value[k])), iterations, status, float(residual[k])
            ))

    def prune(self, ended, *blocks):
        """Drop the ended rows, and the rows no answer can need, from the
        active blocks (the first axis of each array)."""
        keep = np.ones(self.index.size, dtype=bool)
        keep[ended] = False
        keep &= self.index < self.bound
        self.index = self.index[keep]
        return [b[keep] for b in blocks]


def _pick(outcomes):
    """The restart rule: first converged start, else the best-valued one
    (lowest seed on ties); raise when every start met a zero gradient."""
    best = None
    failure = None
    for out in outcomes:
        if isinstance(out, ZeroGradientError):
            failure = out
        elif out is None:
            continue
        elif out.status is Status.CONVERGED:
            return out
        elif best is None or out.value > best.value:
            best = out
    if best is not None:
        return best
    raise failure if failure is not None else ZeroGradientError("all restarts failed")


def _gauss_seidel(form, starts, sequential, tol, max_iters):
    """Slot-wise (Gauss-Seidel) ascent of every start of ``starts`` (per-slot
    blocks of unit rows); returns the outcome of each row.

    A step maps the point p to p'.  The start converges at p when every slot
    of p' is parallel to p's within tol and the residual at p is small; the
    gradients at p of the first slot (computed in the step) and of the last
    (computed in the step before) come for free.
    """
    t, subs = form.tensor, _subscripts(form.order)
    r = form.order
    slots = list(starts)
    last = _partial(t, subs, slots, r - 1)
    rows = _Rows(len(slots[0]), sequential)
    for it in range(1, max_iters + 1):
        point = slots
        slots = list(slots)
        usable = True
        for i in range(r):
            g = _partial(t, subs, slots, i)
            if i == 0:
                first = g
            slots[i], ok = _normalize(g, slots[i])
            if ok is not None:
                usable &= ok
        ended = [] if usable is True else list(np.flatnonzero(~usable))
        for pos in ended:
            rows.end(pos, ZeroGradientError(f"zero gradient at iteration {it}"))
        cosine = np.abs(_row_dots(slots[0], point[0]))
        for a, b in zip(slots[1:], point[1:]):
            cosine = np.minimum(cosine, np.abs(_row_dots(a, b)))
        stationary = (cosine >= 1.0 - tol) & usable
        if stationary.any():
            near = np.flatnonzero(stationary)
            at = [p[near] for p in point]
            grads = [first[near]] + [_partial(t, subs, at, i) for i in range(1, r - 1)]
            grads.append(last[near])
            value = _row_dots(grads[0], at[0])
            residual = np.max(
                [_row_norms(g - value[:, None] * a) for g, a in zip(grads, at)], axis=0
            )
            done = residual <= 10.0 * tol * (1.0 + np.abs(value))
            for k in np.flatnonzero(done):
                rows.end(near[k], IterationResult(
                    tuple(a[k].copy() for a in at), abs(float(value[k])), it,
                    Status.CONVERGED, float(residual[k]),
                ))
            ended += list(near[done])
        last = g
        if ended:
            *slots, last = rows.prune(ended, *slots, last)
            if not rows.index.size:
                break
    else:
        rows.end_points(t, subs, range(rows.index.size), slots, max_iters,
                        Status.NON_CONVERGED)
    return rows.outcomes


def _split_unit(q, cuts):
    """Split concatenated rows into per-slot unit rows; also flags the rows
    with a zero slot."""
    slots = np.split(q, cuts, axis=1)
    norms = [_row_norms(s) for s in slots]
    collapsed = np.any([n == 0.0 for n in norms], axis=0)
    return [s / np.where(n == 0.0, 1.0, n)[:, None] for s, n in zip(slots, norms)], collapsed


def _end_split(rows, t, subs, cuts, positions, q, iterations, status):
    """End active rows at their split-and-normalized concatenated vectors."""
    positions = np.asarray(positions)
    slots, collapsed = _split_unit(q, cuts)
    for pos in positions[collapsed]:
        rows.end(pos, ZeroGradientError("slot collapsed to zero while splitting"))
    whole = ~collapsed
    rows.end_points(t, subs, positions[whole], [s[whole] for s in slots],
                    iterations, status)


def _joint(form, starts, sequential, tol, max_iters):
    """Joint power iteration of every start of ``starts`` (per-slot blocks of
    unit rows); returns the outcome of each row."""
    t, subs = form.tensor, _subscripts(form.order)
    offsets = np.cumsum((0,) + form.dims)
    cuts = offsets[1:-1]
    spans = list(zip(offsets[:-1], offsets[1:]))
    q = np.concatenate(starts, axis=1)
    q /= _row_norms(q)[:, None]
    rows = _Rows(len(q), sequential)
    history = np.empty((len(q), 0, q.shape[1]))  # last <= 4 canonical iterates
    for it in range(1, max_iters + 1):
        prev = q
        raw = [q[:, a:b] for a, b in spans]
        q = np.concatenate([_partial(t, subs, raw, i) for i in range(len(raw))], axis=1)
        q, ok = _normalize(q, prev)
        if ok is not None:
            bad = np.flatnonzero(~ok)
            for pos in bad:
                rows.end(pos, ZeroGradientError(f"zero gradient at iteration {it}"))
            q, prev, history = rows.prune(bad, q, prev, history)
            if not rows.index.size:
                break
        ended = []
        stationary = np.abs(_row_dots(q, prev)) >= 1.0 - tol
        if stationary.any():
            near = np.flatnonzero(stationary)
            slots, collapsed = _split_unit(q[near], cuts)
            value, residual = _assess(t, subs, slots)
            done = near[collapsed | (residual <= 10.0 * tol * (1.0 + np.abs(value)))]
            if done.size:
                _end_split(rows, t, subs, cuts, done, q[done], it, Status.CONVERGED)
                ended += list(done)
        lead = np.argmax(np.abs(q), axis=1)
        sign = np.where(q[np.arange(len(q)), lead] >= 0.0, 1.0, -1.0)
        canon = q * sign[:, None]
        if history.shape[1]:
            # Oscillation = revisiting a projective point at lag 2..4 while
            # still moving (lag-1 distinct); a near-identical lag-1 iterate is
            # slow convergence, handled by the stopping rule above.
            diff = canon[:, None, :] - history
            dist = np.sqrt(np.einsum("bln,bln->bl", diff, diff))
            cycling = (dist[:, -1] > _OSC_TOL) & np.any(dist[:, :-1] <= _OSC_TOL, axis=1)
            cycling[ended] = False
            if cycling.any():
                positions = np.flatnonzero(cycling)
                _end_split(rows, t, subs, cuts, positions, q[positions], it,
                           Status.OSCILLATING)
                ended += list(positions)
        history = np.concatenate((history[:, -3:], canon[:, None, :]), axis=1)
        if ended:
            q, history = rows.prune(ended, q, history)
            if not rows.index.size:
                break
    else:
        _end_split(rows, t, subs, cuts, range(rows.index.size), q, max_iters,
                   Status.NON_CONVERGED)
    return rows.outcomes


def _unit(v):
    """v over its norm; ZeroGradientError when v is zero."""
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ZeroGradientError("zero gradient at the Ritz pair")
    return v / n


def _ritz_pair(a, y, r, iterations, tol):
    """The top Ritz pair of the block (X, Y), where X^T A Y = R^T, after one
    Gauss-Seidel half-step, scored by its fixed-point residual.  The step
    x <- A y / |A y|, y <- A^T x / |A^T x| replaces the Ritz x, so only the
    Ritz y = Y v_1 is formed."""
    y = y @ np.linalg.svd(r.T)[2][0]
    x = _unit(a @ y)
    y = _unit(a.T @ x)
    value, residual = _assess(a, _subscripts(2), [x[None, :], y[None, :]])
    value, residual = abs(float(value[0])), float(residual[0])
    done = residual <= 10.0 * tol * (1.0 + value)
    status = Status.CONVERGED if done else Status.NON_CONVERGED
    return IterationResult((x, y), value, iterations, status, residual)


def _subspace(form, y, tol, max_iters):
    """Block power (subspace) iteration for x^T A y from the block Y of k
    columns: the polished top Ritz pair, CONVERGED at the first check it
    passes, else NON_CONVERGED at the cap; ZeroGradientError if A Y = 0.

    A step is X = qr(A Y), then (Y, R) = qr(A^T X): span Y is span((A^T A)^t
    Y_0), and the Ritz pair converges at rate sigma_(k+1) / sigma_1.  The
    pair is checked at steps 1 to 4, then each time the step count has
    grown by a quarter, and at the cap.  A check costs about one step, so
    the checks add a few percent to a converging run and about 50 checks to
    a run of 10^5 steps.
    """
    a = form.tensor
    due = 1
    for it in range(1, max_iters + 1):
        z = a @ y
        if not z.any():
            raise ZeroGradientError(f"A Y = 0 at iteration {it}")
        x = np.linalg.qr(z)[0]
        y, r = np.linalg.qr(a.T @ x)
        if it >= due or it == max_iters:
            result = _ritz_pair(a, y, r, it, tol)
            if result.status is Status.CONVERGED:
                return result
            due = it + 1 + it // 4
    return result


def _run_with_restarts(form, seed, tol, max_iters):
    """r = 2: the y slots of the starts seed, seed + 1, ... (at most _STARTS,
    n or m of them) as one block.  r >= 3: the restart rule over the _STARTS
    starts seed, seed + 1, ..., all in one block."""
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if form.order == 2:
        k = min(_STARTS, *form.dims)
        return _subspace(form, _random_starts(form, range(seed, seed + k))[1].T,
                         tol, max_iters)
    starts = _random_starts(form, range(seed, seed + _STARTS))
    return _pick(_joint(form, starts, True, tol, max_iters))


def _ascend(form, seed, count):
    """Gauss-Seidel ascent from the random starts seed, ..., seed + count - 1,
    all in one block, each until it converges or for _ASCENT_SWEEPS sweeps:
    the best-valued result (lowest seed on ties).  Raises the
    ZeroGradientError when every start meets a zero gradient."""
    starts = _random_starts(form, range(seed, seed + count))
    outcomes = _gauss_seidel(form, starts, False, DEFAULT_TOL, _ASCENT_SWEEPS)
    results = [out for out in outcomes if isinstance(out, IterationResult)]
    if not results:
        raise outcomes[0]
    return max(results, key=lambda r: r.value)


def bilinear_max(
    form: MultilinearForm,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> IterationResult:
    """Maximum of |l| over S^n x S^m for a bilinear form: the first singular
    value of the coefficient matrix A, by block power iteration.

    The y slots of up to six random starts form one orthonormal block; each
    step multiplies it by A^T A and a Rayleigh-Ritz step picks the best pair
    in it, so the value converges at rate sigma_(k+1) / sigma_1 for a block
    of width k, repeated or nearly repeated top singular values included.
    ``max_iters`` counts block steps; a run that reaches it is NON_CONVERGED.
    """
    if form.order != 2:
        raise ZeroGradientError(f"bilinear_max needs r=2, got r={form.order}")
    if not np.any(form.coeffs):
        raise ZeroGradientError("zero form")
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
        raise ZeroGradientError(f"multilinear_iterate needs r>=2, got r={form.order}")
    if not np.any(form.coeffs):
        raise ZeroGradientError("zero form")
    return _run_with_restarts(form, seed, tol, max_iters)
