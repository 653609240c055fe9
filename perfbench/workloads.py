"""The benchmark's four workloads.

Each workload is a fixed pool of inputs with reference answers, and a cyclic
list of ops over it.  An op is one timed call into the library plus a check
of its output that does not trust the call: residuals, values and bounds are
recomputed here with plain numpy, and reference answers come from
``numpy.linalg`` or from a different solver path computed during set-up.

The pools are drawn from POOL_SEED, the same for every run: the cost of one
exact solve or one multistart varies by tens of percent from input to input,
and a run holds only a few dozen of them, so pools drawn per run made the
throughput of two seeds differ by 30% and more.  The run seed sets where the
cycle starts, and every call draws a fresh seed from it for the random starts
the library is given (the ``seed=`` of solve_argmax, bilinear_max and
multilinear_iterate, and the CLI's --seed), so a run averages its cost over
many starts instead of repeating a few.

An op that raises a ``SphereMaxError`` (or, through the CLI, exits with the
solver-error code and prints nothing) is a *refusal*: the library declined
honestly.  Refusals are not failures but count against ``answered_frac``.
Anything else that raises, and any output that fails its check, is a
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

# r>=3 power calls use the public cap that the CLI exposes as --max-iters.
POWER_MAX_ITERS = 2000

# Tolerances of the checks.
VALUE_TOL = 1e-9        # recomputed value against the reported one
RESIDUAL_TOL = 1e-6     # fixed-point residual of an exact critical point
AGREE_TOL = 1e-6        # two exact paths, or exact against SVD
CLI_TOL = 1e-7          # CLI numbers carry 10 significant digits


class CheckFailed(Exception):
    """An output that is wrong, malformed or inconsistent."""


class Refused(Exception):
    """The library declined the input with a solver error."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    call: object          # (seed) -> result
    check: object         # result -> None; raises CheckFailed
    hit: object = None    # result -> bool; r>=3 power ops with an exact reference


POOL_SEED = 20111027


@dataclass
class Workload:
    ops: list             # one cycle over the pool, rotated to the run's start
    classes: dict         # slot dims -> exact extreme-class count
    count_s: float        # time spent in chowcount during set-up
    note: str = ""


def rotate(ops, run_rng):
    k = int(run_rng.integers(len(ops)))
    return ops[k:] + ops[:k]


# ---------------------------------------------------------------------------
# plain-numpy references
# ---------------------------------------------------------------------------

def contract(t, vecs, skip=None):
    """Contract tensor t with one vector per slot, leaving slot ``skip``."""
    for i in range(len(vecs) - 1, -1, -1):
        if i != skip:
            t = np.tensordot(t, vecs[i], axes=(i, 0))
    return t


def value_and_residual(t, vecs):
    vecs = [np.asarray(v, dtype=float) for v in vecs]
    value = float(contract(t, vecs))
    residual = max(
        float(np.linalg.norm(contract(t, vecs, skip=s) - value * vecs[s]))
        for s in range(len(vecs))
    )
    return value, residual


def _unit(v):
    return v / np.linalg.norm(v)


def als_lower_bound(t, rng, starts=3, sweeps=40):
    """|l| at the best point of a few slot-wise (Gauss-Seidel) ascents: a
    lower bound on the maximum, computed without the library."""
    best = 0.0
    for _ in range(starts):
        vecs = [_unit(rng.standard_normal(d)) for d in t.shape]
        for _ in range(sweeps):
            for s in range(len(vecs)):
                g = contract(t, vecs, skip=s)
                n = np.linalg.norm(g)
                if n > 0.0:
                    vecs[s] = g / n
        best = max(best, abs(float(contract(t, vecs))))
    return best


def settles(t, rng, max_iters):
    """Whether the plain joint power iteration (q <- grad l(q) / |grad l(q)|
    on the concatenated slot vector, as in the paper) settles from one
    random start within ``max_iters`` steps: it converges to a critical
    point (small fixed-point residual), or revisits a projective point at
    lag 2..4.  The benchmark's own classifier of inputs,
    independent of the library version under test."""
    q = np.concatenate([_unit(rng.standard_normal(d)) for d in t.shape])
    cuts = np.cumsum(t.shape)[:-1]
    history = []
    for _ in range(max_iters):
        slots = np.split(q, cuts)
        g = np.concatenate([contract(t, slots, skip=s) for s in range(t.ndim)])
        g /= np.linalg.norm(g)
        if abs(float(g @ q)) >= 1.0 - 1e-14:
            value, residual = value_and_residual(t, [_unit(v) for v in np.split(g, cuts)])
            if residual <= 1e-13 * (1.0 + abs(value)):
                return True
        canon = g if g[np.argmax(np.abs(g))] >= 0 else -g
        if history and np.linalg.norm(canon - history[-1]) > 1e-10 and any(
                np.linalg.norm(canon - past) <= 1e-10 for past in history[:-1]):
            return True
        history = (history + [canon])[-4:]
        q = g
    return False


def check_units(vectors):
    for v in vectors:
        require(abs(np.linalg.norm(v) - 1.0) <= 1e-9, "vector off the unit sphere")


def integer_form(sm, dims, rng):
    while True:
        coeffs = rng.integers(-9, 10, size=math.prod(dims))
        if np.any(coeffs):
            return sm.MultilinearForm(dims=dims, coeffs=coeffs.astype(float))


def interleave(weights):
    """Spread shapes over one schedule cycle: [(dims, weight), ...] ->
    [dims, ...] with each shape's copies as evenly spaced as possible."""
    slots = []
    for dims, w in weights:
        slots += [((k + 0.5) / w, dims) for k in range(w)]
    return [dims for _, dims in sorted(slots, key=lambda s: s[0])]


def _count_classes(sm, shapes):
    classes = {}
    t0 = time.perf_counter()
    for dims in shapes:
        if dims not in classes:
            classes[dims] = sm.count_extreme_classes(dims)
    return classes, time.perf_counter() - t0


def _label(dims):
    return "x".join(map(str, dims))


# ---------------------------------------------------------------------------
# exact-affine: solve_argmax(force=True); Groebner dominates
# ---------------------------------------------------------------------------

AFFINE_POOL = interleave([((2, 2, 4), 4), ((2, 2, 2, 2), 2), ((2, 3, 3), 1)])


def exact_affine(sm, pool_rng, run_rng, tmpdir):
    alg = sm.algsolver
    classes, count_s = _count_classes(sm, AFFINE_POOL)
    ops = []
    for dims in AFFINE_POOL:
        form = integer_form(sm, dims, pool_rng)
        lower = als_lower_bound(form.tensor, pool_rng)

        def check(rep, form=form, lower=lower):
            require(rep.quotient_dim == classes[form.dims],
                    f"quotient dim {rep.quotient_dim} != class count {classes[form.dims]}")
            require(rep.points, "no critical point")
            for p in rep.points:
                check_units(p.vectors)
                value, residual = value_and_residual(form.tensor, p.vectors)
                require(abs(value - p.value) <= VALUE_TOL * (1 + abs(value)),
                        "point value does not match the recomputed one")
                require(residual <= RESIDUAL_TOL * (1 + abs(value)),
                        f"recomputed residual {residual:.2e}")
            top = max(abs(p.value) for p in rep.points)
            require(rep.max_value == top, "max_value is not the best point's |value|")
            require(rep.max_value >= lower - AGREE_TOL * (1 + lower),
                    f"max {rep.max_value} below an ascent value {lower}")

        ops.append(Op(_label(dims), lambda s, form=form:
                      alg.solve_argmax(form, force=True, seed=s), check))
    alg.solve_argmax(integer_form(sm, (2, 2, 2), pool_rng), force=True)
    return Workload(rotate(ops, run_rng), classes, count_s)


# ---------------------------------------------------------------------------
# exact-sphere: solve_max on the sphere chart; quotient 2^r times larger
# ---------------------------------------------------------------------------

SPHERE_POOL = interleave([((2, 2, 2), 3), ((3, 3), 2), ((4, 4), 2), ((2, 2, 3), 1)])


def exact_sphere(sm, pool_rng, run_rng, tmpdir):
    alg = sm.algsolver
    classes, count_s = _count_classes(sm, SPHERE_POOL)
    ops = []
    for dims in SPHERE_POOL:
        form = integer_form(sm, dims, pool_rng)
        if len(dims) == 2:
            ref = float(np.linalg.svd(form.tensor, compute_uv=False)[0])
        else:
            ref = alg.solve_argmax(form, force=True).max_value
        lower = als_lower_bound(form.tensor, pool_rng)

        def check(rep, form=form, ref=ref, lower=lower):
            expected = classes[form.dims] * 2 ** form.order
            require(rep.quotient_dim == expected,
                    f"quotient dim {rep.quotient_dim} != {expected}")
            require(math.isfinite(rep.max_value), "max is not finite")
            require(abs(rep.max_value - ref) <= AGREE_TOL * (1 + ref),
                    f"sphere max {rep.max_value} != reference {ref}")
            require(rep.max_value >= lower - AGREE_TOL * (1 + lower),
                    f"max {rep.max_value} below an ascent value {lower}")

        ops.append(Op(_label(dims), lambda s, form=form: alg.solve_max(form), check))
    alg.solve_max(integer_form(sm, (3, 3), pool_rng))
    return Workload(rotate(ops, run_rng), classes, count_s)


# ---------------------------------------------------------------------------
# power: bilinear_max on Gaussian matrices, multilinear_iterate on r>=3
# ---------------------------------------------------------------------------

BILINEAR_SHAPES = ((8, 8), (20, 15), (30, 30), (50, 40))
# r>=3 forms per shape, and how many of them the plain iteration does not
# settle on within POWER_MAX_ITERS.  Those run every restart to the cap
# (about 1.3 s each) and make the tail.  One in 18 is their natural rate over
# random forms of these shapes (2%, 8% and 6%), placed at 2x2x3, the shape
# where they are most common.
MULTI_PER_SHAPE = 6
MULTI_STALLING = {(2, 2, 2): 0, (2, 2, 3): 1, (2, 2, 4): 0}


def _multi_pool(sm, pool_rng):
    """Round-robin over the r>=3 shapes, with each shape's quota of forms
    on which the iteration stalls placed in the middle of its run."""
    groups = []
    for dims, quota in MULTI_STALLING.items():
        ok, bad = [], []
        while len(ok) < MULTI_PER_SHAPE - quota or len(bad) < quota:
            form = integer_form(sm, dims, pool_rng)
            if settles(form.tensor, pool_rng, POWER_MAX_ITERS):
                if len(ok) < MULTI_PER_SHAPE - quota:
                    ok.append(form)
            elif len(bad) < quota:
                bad.append(form)
        half = len(ok) // 2
        groups.append(ok[:half] + bad + ok[half:])
    return [form for row in zip(*groups) for form in row]


def power(sm, pool_rng, run_rng, tmpdir):
    pw = sm.poweriter
    multi = []
    for form in _multi_pool(sm, pool_rng):
        exact = sm.algsolver.solve_argmax(form, force=True).max_value

        def check(res, form=form, exact=exact):
            require(math.isfinite(res.value), "value is not finite")
            check_units(res.point)
            value, residual = value_and_residual(form.tensor, res.point)
            require(abs(abs(value) - res.value) <= VALUE_TOL * (1 + res.value),
                    "value does not match the point")
            require(abs(residual - res.residual) <= VALUE_TOL * (1 + res.value),
                    "reported residual does not match the recomputed one")
            require(res.value <= exact + AGREE_TOL * (1 + exact),
                    f"value {res.value} above the exact maximum {exact}")

        def hit(res, exact=exact):
            return res.value >= exact - AGREE_TOL * (1 + exact)

        multi.append(Op(_label(form.dims), lambda s, form=form:
                        pw.multilinear_iterate(form, seed=s, max_iters=POWER_MAX_ITERS),
                        check, hit))
    ops = []
    for k, op in enumerate(multi):
        dims = BILINEAR_SHAPES[k % len(BILINEAR_SHAPES)]
        form = sm.MultilinearForm(dims=dims, coeffs=pool_rng.standard_normal(math.prod(dims)))
        sigma = float(np.linalg.svd(form.tensor, compute_uv=False)[0])

        def check(res, form=form, sigma=sigma):
            require(abs(res.value - sigma) <= VALUE_TOL * (1 + sigma),
                    f"bilinear value {res.value} != top singular value {sigma}")
            check_units(res.point)
            value, _ = value_and_residual(form.tensor, res.point)
            require(abs(abs(value) - res.value) <= VALUE_TOL * (1 + sigma),
                    "value does not match the point")

        ops += [Op(_label(dims), lambda s, form=form: pw.bilinear_max(form, seed=s), check),
                op]
    pw.bilinear_max(sm.MultilinearForm(dims=(8, 8), coeffs=pool_rng.standard_normal(64)))
    return Workload(rotate(ops, run_rng), {}, 0.0)


# ---------------------------------------------------------------------------
# separability: the CLI in process, on 2x2 states of rank 1-4
# ---------------------------------------------------------------------------

STATE_RANKS = (1, 2, 3, 4, 1, 2, 3, 4)
# Pure (rank-1) states run the power method only: on some of them the
# algebraic method's affine chart misses the maximum and it returns about 0,
# a wrong answer (a seed defect, recorded in expectations.json).
ALGEBRAIC_RANKS = (2, 3, 4)
# States on which the plain iteration does not settle within this many
# steps run every one of the 48 starts of the power path to the library's
# default cap of 10^5 iterations: several minutes per call.  They are left
# out of the pool for run length, and counted.
STATE_SETTLE_ITERS = 5000


def random_state(rng, rank):
    g = rng.standard_normal((4, rank))
    rho = g @ g.T
    return rho / np.trace(rho)


def separability_tensor(rho):
    """sum_i sqrt(lam_i) v_i (x) v_i over the spectral decomposition, as a
    2x2x4 tensor: the form whose maximum the separability command finds."""
    vals, vecs = np.linalg.eigh(rho)
    return sum(math.sqrt(lam) * np.multiply.outer(v.reshape(2, 2), v)
               for lam, v in zip(vals, vecs.T) if lam >= 1e-12)


def product_lower_bound(rho, rng, starts=4, sweeps=30):
    """max over product states of <rho, xx^T (x) yy^T>, from below, by
    alternating top eigenvectors of the two 2x2 reduced matrices."""
    r = rho.reshape(2, 2, 2, 2)
    best = 0.0
    for _ in range(starts):
        y = _unit(rng.standard_normal(2))
        for _ in range(sweeps):
            x = np.linalg.eigh(np.einsum("abcd,b,d->ac", r, y, y))[1][:, -1]
            y = np.linalg.eigh(np.einsum("abcd,a,c->bd", r, x, x))[1][:, -1]
        best = max(best, float(np.einsum("abcd,a,b,c,d->", r, x, y, x, y)))
    return best


def strict_json(text):
    def reject(name):
        raise CheckFailed(f"non-JSON constant {name} in output")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def separability(sm, pool_rng, run_rng, tmpdir):
    cli = sm.cli
    answers = {}  # state index -> {method: sepMax} of the latest answers
    ops = []
    left_out = 0
    for k, rank in enumerate(STATE_RANKS):
        rho = random_state(pool_rng, rank)
        while not settles(separability_tensor(rho), pool_rng, STATE_SETTLE_ITERS):
            left_out += 1
            rho = random_state(pool_rng, rank)
        path = os.path.join(tmpdir, f"state-{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"dimA": 2, "dimB": 2, "matrix": {
                "rows": 4, "cols": 4, "entries": rho.reshape(-1).tolist()}}, fh)
        overlap = float(np.sum(rho * rho))
        upper = float(np.linalg.eigvalsh(rho)[-1])
        lower = product_lower_bound(rho, pool_rng)
        methods = ("power", "algebraic") if rank in ALGEBRAIC_RANKS else ("power",)
        for method in methods:
            def check(outcome, k=k, method=method, overlap=overlap, upper=upper,
                      lower=lower):
                code, out, err = outcome
                if code == cli.EXIT_SOLVER and not out and err.startswith("solver error"):
                    answers.setdefault(k, {}).pop(method, None)
                    raise Refused(err.strip())
                require(code == 0, f"exit code {code}: {err.strip()[:200]}")
                rep = strict_json(out)
                require(rep.get("method") == method, "wrong method in report")
                sep = rep.get("sepMax")
                require(isinstance(sep, float) and isinstance(rep.get("selfOverlap"), float),
                        "numbers missing from report")
                require(abs(rep["selfOverlap"] - overlap) <= CLI_TOL, "selfOverlap is wrong")
                require(lower - CLI_TOL <= sep <= upper + CLI_TOL,
                        f"sepMax {sep} outside [{lower}, {upper}]")
                margin = overlap - sep
                if abs(margin) > CLI_TOL:
                    want = "entangled" if margin > 0 else "separable-consistent"
                    require(rep.get("verdict") == want, f"verdict {rep.get('verdict')} != {want}")
                mine = answers.setdefault(k, {})
                mine[method] = sep
                if len(mine) == 2:
                    require(abs(mine["power"] - mine["algebraic"]) <= CLI_TOL,
                            f"power {mine['power']} and algebraic {mine['algebraic']} disagree")

            argv = ["separability", path, "--method", method, "--seed"]
            ops.append(Op(f"rank{rank}-{method}",
                          lambda s, argv=argv: run_cli(cli, argv + [str(s)]), check))
    run_cli(cli, ["separability", os.path.join(tmpdir, "state-0.json"), "--method", "power"])
    return Workload(rotate(ops, run_rng), {}, 0.0,
                    note=f"{left_out} never-settling states left out of the pool")


WORKLOADS = {
    "exact-affine": exact_affine,
    "exact-sphere": exact_sphere,
    "power": power,
    "separability": separability,
}
