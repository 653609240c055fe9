#!/usr/bin/env python3
"""Stage CPU times and exact counters of the heavy exact solves, and the
iterations and cost per iteration of the power kernels.

Runs a fixed list of heavy exact cases, each a whole solve (``solve_argmax``
on the affine chart, ``solve_max`` on the rows named ``-sphere``,
``_exact_max`` on the rows named ``pencil-``), and
splits its CPU time into stages by wrapping functions of ``algsolver`` from
here; the library has no hooks for it.  ``solve_max`` lifts the affine
chart's proved points, so ``2x2x3-sphere`` times the affine solve and the
lift; ``diagonal-3x3x3-sphere``, whose affine chart cannot separate its
solutions, times the sphere chart's own Groebner run, decided by the
certificate, and its multiplication matrix.  A bilinear form goes to the
Gram kernel first: ``3x3-sphere`` and ``8x7-sphere`` time it alone, no
Groebner basis, and ``e2xe2-sphere``, which it declines (a zero singular
value), times the kernel's refusal and then the charts.  A trilinear form
with a slot of dimension 2 goes to the pencil kernel in ``_exact_max``:
``pencil-separability-rank4`` (the separability form of the rank-4 state
below, 2x2x4) and ``pencil-2x4x4`` time it, no Groebner basis (a tree
without the kernel runs its charts there).  The stages:

- ``gram``, ``charpoly``, ``sturm``, ``points``: the Gram kernel's
  (``algsolver._gram``, the integer Gram matrix; ``intpoly.berkowitz``,
  its characteristic polynomial; ``intpoly.sturm``, the Sturm sequence;
  ``_gram_max``, the root count and the singular pairs of
  ``np.linalg.svd`` lifted and scored); on the pencil rows ``charpoly``
  holds the Berkowitz runs of the pencil kernel (its characteristic
  polynomial in t, and its exact top-branch checks) and ``sturm`` its Sturm
  sequences;
- ``search``: the pencil kernel's float search (``pencil.search``);
- ``run``: Buchberger's loop (``_Engine.run``, its interreduction left out);
- ``interreduce``: ``_Engine._interreduce``;
- ``certificate``: whichever proof of the basis ran: ``_prove_points``,
  the Krawczyk boxes around the solutions of a run stopped at the generic
  quotient dimension, and ``_certify``, the exact S-pair check it falls
  back to;
- ``normal_set``: ``normal_set``;
- ``ring_and_eigen``: from the end of the last ``normal_set`` to the end of
  the solve (the quotient ring, its multiplication matrices, the
  eigenvalues and the point recovery), point proofs left out;
- ``other``: the rest of ``total`` (the critical system, the class count).

Counters per solve: the reduction budget spent by Groebner (``budget_used``,
summed over the runs of a solve that tries both charts) and by the quotient
rings (``ring_budget_used``), the S-pairs the mod-p zero
test skipped or the count stop left queued, the certificate's verdicts as
``[proof, verdict]`` pairs in the order they ran (``sturm`` for the Gram
kernel's root count, ``points`` for ``_prove_points``, ``pairs`` for
``_certify``; the last one decided), the
quotient dimension, the number of points reported and the maximum.  The
pencil rows also count the kernel's Sturm tests (``sturm_tests``, calls of
``pencil.test``), the largest degree of the polynomials P_mu it tested
(``degree``) and their largest coefficient's bit length
(``coefficient_bits``).  They are checked to repeat exactly over every
repeat.

Power rows (``kind: power``; the exact rows read ``kind: exact``) time the
two power kernels as iterations x cost per iteration: the joint iteration's
six starts (``poweriter._joint``, capped at 2000 steps) on a 2x2x3 integer
form on which no start settles and on the 2x2x2x2 form of the exact rows,
and block power iteration (``bilinear_max``, whole calls) on Gaussian
200x150 and 50x40 matrices, which take many steps.  Three rows where the
fixed cost of a call dominates also time whole calls: ``multilinear_iterate``
(starts included, capped at 2000 steps) on a 2x2x2 integer form whose six
starts all end within two blocks of the joint kernel, and ``bilinear_max``
on Gaussian 20x15 and 8x8 matrices, no wider than its block, which converge
at the first step and its one Ritz check.  Their counters are the steps
taken (the last start's, for the ``joint`` rows; the answer's, for the
whole calls) and the value, hex, and ``us_per_step`` is the CPU time over
the steps.  The ``subspace`` rows also count their Ritz checks
(``checks``: calls of ``poweriter._ritz_pair``, wrapped from here).  Two
rows time whole calls of the applications' ascent, ``_ascend(form, 0,
48)``: ``ascend-4x4x4`` on the ten Gaussian 4x4x4 forms of
``default_rng(100 + k)``, and ``ascend-separability-rank4`` on the
separability form of the rank-4 state of the exact rows, a 2x2x4 form.
They count over all their starts (wrapping ``poweriter._gauss_seidel`` and
``_polish`` from here): ``iterations``, every start's steps; ``newton``,
the Newton steps among them, a refused start charged every step of its
polish; ``sweeps``, the rest; ``refused``, the starts a polish refused; and
``value``, each form's maximum in hex.  A tree without ``_polish`` reads
``newton`` and ``refused`` 0.

Times are CPU seconds of this process (``time.process_time``), not scaled by
any host calibration: the median and quartiles over ``--repeats`` solves.
This checkout's rows are labelled ``change``.  With ``--against NAME=SRC``
the ``spheremax`` package under another checkout's ``src/`` is loaded
beside this one in the same process, its rows labelled NAME, and each
repeat solves every case with both, in alternating order, so the two rows
of a case are paired; ``paired_ratio`` on the ``change`` row is its total
over the other one's, per repeat, and ``counters_match`` says whether its
answer counters (all but the path counters ``budget_used``,
``ring_budget_used``, ``pairs_skipped`` and ``certificate``, which a change
may move on purpose; each row keeps its own) equal the other one's.  The JSON goes to standard
output, one line per row to standard error:

    python3 scripts/bench.py --against parent=../parent/src --repeats 9 > BENCH_30.json

BLAS threads are pinned to 1, so CPU time is one core's time.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import time
from functools import partial
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
GRAM_STAGES = ("gram", "charpoly", "sturm", "points")
STAGES = (*GRAM_STAGES, "search", "run", "interreduce", "certificate", "normal_set",
          "ring_and_eigen", "other", "total")
POWER_STAGES = ("total", "us_per_step")
PATH_COUNTERS = ("budget_used", "ring_budget_used", "pairs_skipped", "certificate", "checks",
                 "sweeps", "newton", "refused", "sturm_tests", "degree", "coefficient_bits")


def _load(name, src):
    """The spheremax package under ``src`` imported as module ``name``."""
    init = Path(src).resolve() / "spheremax" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _separability_rank4(sm):
    """The separability form, a 2x2x4 form, of a rank-4 two-qubit state."""
    g = np.random.default_rng(4).standard_normal((4, 4))
    rho = g @ g.T
    state = sm.DensityState(2, 2, sm.Matrix.from_array(rho / np.trace(rho)))
    return sm.apps._separability_form(state)


def cases(sm):
    """(name, form, chart) of each heavy case, built with package ``sm``:
    the four forms whose bases pass the zero test's line in
    tests/test_algsolver.py, a 2x3x4 integer form, whose slots the affine
    chart's ring takes largest first, the 3x3x3 row of ``spheremax bench``, the
    3x3x3 form with ones on the diagonal, which solve_max answers on the
    sphere chart, two integer matrices the Gram kernel certifies and e2 (x)
    e2, which it declines, and two forms the pencil kernel answers."""
    integer_form = importlib.import_module(f"{sm.__name__}.cli")._random_integer_form
    return [
        ("2x3x3-affine", integer_form((2, 3, 3), np.random.default_rng(1)), "affine"),
        ("2x2x2x2-affine", integer_form((2, 2, 2, 2), np.random.default_rng(2)), "affine"),
        ("2x2x3-sphere", integer_form((2, 2, 3), np.random.default_rng(2)), "sphere"),
        ("separability-rank4", _separability_rank4(sm), "affine"),
        ("2x3x4-affine", integer_form((2, 3, 4), np.random.default_rng(0)), "affine"),
        ("3x3x3-affine", integer_form((3, 3, 3), np.random.default_rng(0)), "affine"),
        ("diagonal-3x3x3-sphere", sm.MultilinearForm((3, 3, 3), [
            float(i == j == k) for i, j, k in np.ndindex(3, 3, 3)]), "sphere"),
        ("3x3-sphere", integer_form((3, 3), np.random.default_rng(1)), "sphere"),
        ("8x7-sphere", integer_form((8, 7), np.random.default_rng(0)), "sphere"),
        ("e2xe2-sphere", sm.MultilinearForm((2, 2), [0.0, 0.0, 0.0, 1.0]), "sphere"),
        ("pencil-separability-rank4", _separability_rank4(sm), "pencil"),
        ("pencil-2x4x4", integer_form((2, 4, 4), np.random.default_rng(0)), "pencil"),
    ]


def power_cases(sm):
    """(name, call) of each power case, built with package ``sm``; call()
    runs it and returns its counters: the steps it took, its value and, for
    the subspace rows, the Ritz checks made."""
    integer_form = importlib.import_module(f"{sm.__name__}.cli")._random_integer_form
    pw = sm.poweriter
    checks = [0]
    ritz_pair = pw._ritz_pair

    def counted(*args):
        checks[0] += 1
        return ritz_pair(*args)

    pw._ritz_pair = counted

    def joint(form):
        form = pw._scaled(form)[0]
        starts = pw._random_starts(form, range(pw._STARTS))

        def call():
            steps, value = max((out.iterations, out.value) for out in pw._joint(
                form, starts, pw.DEFAULT_TOL, 2000))
            return {"iterations": steps, "value": value.hex()}
        return call

    def whole(run, form):
        def call():
            result = run(form)
            return {"iterations": result.iterations, "value": result.value.hex()}
        return call

    polish = getattr(pw, "_polish", None)  # a tree without it takes no Newton steps
    ascent = {"rows": 0, "newton": 0, "refused": 0}
    gauss_seidel = pw._gauss_seidel

    def counted_sweeps(*args):
        outcomes = gauss_seidel(*args)
        ascent["rows"] += sum(out.iterations for out in outcomes
                              if isinstance(out, pw.IterationResult))
        return outcomes

    def counted_polish(t, subs, pairs, slots, steps, tol):
        out = polish(t, subs, pairs, slots, steps, tol)
        refused = int((out[0] == 0).sum())
        ascent["newton"] += int(out[0].sum()) + steps * refused
        ascent["refused"] += refused
        return out

    pw._gauss_seidel = counted_sweeps
    if polish is not None:
        pw._polish = counted_polish

    def ascend(forms):
        def call():
            ascent.update(rows=0, newton=0, refused=0)
            values = [pw._ascend(form, 0, pw._ASCENTS).value.hex() for form in forms]
            return {"iterations": ascent["rows"], "sweeps": ascent["rows"] - ascent["newton"],
                    "newton": ascent["newton"], "refused": ascent["refused"],
                    "value": values if len(values) > 1 else values[0]}
        return call

    def subspace(shape, seed=0):
        form = sm.MultilinearForm(shape, np.random.default_rng(seed).standard_normal(
            math.prod(shape)))

        def call():
            checks[0] = 0
            return {**whole(pw.bilinear_max, form)(), "checks": checks[0]}
        return call

    return [
        ("joint-2x2x3-unsettled", joint(integer_form((2, 2, 3), np.random.default_rng(9)))),
        ("joint-2x2x2x2", joint(integer_form((2, 2, 2, 2), np.random.default_rng(2)))),
        ("multilinear-2x2x2", whole(partial(pw.multilinear_iterate, max_iters=2000),
                                    integer_form((2, 2, 2), np.random.default_rng(0)))),
        ("subspace-200x150", subspace((200, 150))),
        ("subspace-50x40", subspace((50, 40))),
        ("subspace-20x15", subspace((20, 15))),
        ("subspace-8x8", subspace((8, 8), seed=1)),
        ("ascend-4x4x4", ascend([sm.MultilinearForm((4, 4, 4), np.random.default_rng(
            100 + k).standard_normal(64)) for k in range(10)])),
        ("ascend-separability-rank4", ascend([_separability_rank4(sm)])),
    ]


def time_power(call):
    """(CPU seconds and us per step, counters) of one power run."""
    gc.collect()
    t = time.process_time()
    counters = call()
    total = time.process_time() - t
    return {"total": total, "us_per_step": total / counters["iterations"] * 1e6}, counters


class Probe:
    """Stage clocks and counters of one package's ``algsolver``, by
    wrapping its functions; ``solve`` runs and measures one case."""

    def __init__(self, sm):
        self.sm = sm
        self.alg = alg = sm.algsolver
        self.rec = {}
        self.budgets = []  # (whether groebner() made it, budget), in order
        self._wrap(alg._Engine, "run", "run", self._count_skipped)
        self._wrap(alg._Engine, "_interreduce", "interreduce")
        self._wrap(alg, "_certify", "certificate", partial(self._verdict, "pairs"))
        if hasattr(alg, "_prove_points"):  # a tree without it has no point proof
            self._wrap(alg, "_prove_points", "point_proof", partial(self._verdict, "points"))
        if hasattr(alg, "_gram_max"):  # a tree without it has no Gram kernel
            self._wrap(alg, "_gram_max", "kernel", lambda args, out: self._verdict(
                "sturm", args, out is not None))
            for owner, name, stage in zip((alg, sm.intpoly, sm.intpoly),
                                          ("_gram", "berkowitz", "sturm"), GRAM_STAGES):
                self._wrap(owner, name, stage)
        pencil = getattr(sm, "pencil", None)  # a tree without it has no pencil kernel
        if pencil is not None:
            self._wrap(pencil, "search", "search")
            self._wrap(pencil, "test", "pencil_test")
            self._wrap(pencil, "poly", "pencil_poly", self._pencil_poly)
        self._wrap(alg, "normal_set", "normal_set", self._normal_set_end)
        budgets = self.budgets
        groebner = alg.groebner
        pending = [False]  # groebner() makes its budget first

        class Recording(alg._Budget):
            def __init__(self, limit):
                super().__init__(limit)
                budgets.append((pending[0], self))
                pending[0] = False

        def starting(*args, **kwargs):
            pending[0] = True
            return groebner(*args, **kwargs)

        alg._Budget = Recording
        alg.groebner = starting

    def _wrap(self, owner, name, stage, after=None):
        fn = getattr(owner, name)
        rec = self.rec

        def wrapper(*args, **kwargs):
            t = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[stage] = rec.get(stage, 0.0) + time.process_time() - t
                rec.setdefault("calls", []).append((stage, t, time.process_time() - t))
            if after is not None:
                after(args, out)
            return out

        setattr(owner, name, wrapper)

    def _count_skipped(self, args, out):
        self.rec["pairs_skipped"] = self.rec.get("pairs_skipped", 0) + len(args[0].skipped)

    def _verdict(self, proof, args, out):
        self.rec.setdefault("verdicts", []).append([proof, out])

    def _pencil_poly(self, args, out):
        degree = len(out) - 1 - next((i for i, c in enumerate(out) if c), len(out))
        self.rec["degree"] = max(self.rec.get("degree", 0), degree)
        self.rec["coefficient_bits"] = max(self.rec.get("coefficient_bits", 0),
                                           *(abs(c).bit_length() for c in out))

    def _normal_set_end(self, args, out):
        self.rec["normal_set_end"] = time.process_time()

    def solve(self, form, chart):
        """(stage seconds, counters) of one solve."""
        self.rec.clear()
        self.budgets.clear()
        gc.collect()
        solve = {"affine": self.alg.solve_argmax, "sphere": self.alg.solve_max,
                 "pencil": lambda form: self.alg._exact_max(form, 0)[1]}[chart]
        t = time.process_time()
        report = solve(form)
        end = time.process_time()
        rec = self.rec
        stages = {s: rec.get(s, 0.0) for s in (*GRAM_STAGES, "search", "run", "interreduce",
                                                "certificate", "normal_set")}
        stages["run"] -= stages["interreduce"]  # run() calls _interreduce
        stages["points"] = rec.get("kernel", 0.0)  # _gram_max runs after _gram_poly
        stages["certificate"] += rec.get("point_proof", 0.0)
        # a point proof runs after the normal set of the basis it proves, and
        # a certificate after a failed one; a solve the Gram kernel answers
        # has no normal set
        ring_start = rec.get("normal_set_end", end)
        stages["ring_and_eigen"] = end - ring_start - sum(
            d for stage, t, d in rec.get("calls", [])
            if stage in ("point_proof", "certificate") and t >= ring_start)
        stages["total"] = end - t
        stages["other"] = stages["total"] - sum(stages[s] for s in STAGES[:-2])
        counters = {
            "budget_used": sum(b.used for run, b in self.budgets if run),
            "ring_budget_used": sum(b.used for run, b in self.budgets if not run),
            "pairs_skipped": rec.get("pairs_skipped", 0),
            "certificate": rec.get("verdicts", []),
            "quotient_dim": report.quotient_dim,
            "points": len(report.points),
            "max_value": report.max_value.hex(),
        }
        if chart == "pencil":
            counters.update(sturm_tests=sum(stage == "pencil_test"
                                            for stage, _, _ in rec.get("calls", [])),
                            degree=rec.get("degree", 0),
                            coefficient_bits=rec.get("coefficient_bits", 0))
        return stages, counters


def _spread(values):
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="NAME=SRC",
                        help="also time the spheremax package under SRC, labelled NAME")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    trees = [("change", _load("spheremax", SRC))]
    if args.against:
        name, _, src = args.against.partition("=")
        if not name or not src or name == "change":
            parser.error("--against takes NAME=SRC, NAME not 'change'")
        trees.append((name, _load("spheremax_against", src)))
    probes = {name: Probe(sm) for name, sm in trees}
    built = {name: [(case, {"kind": "exact", "chart": chart}, STAGES,
                     partial(probes[name].solve, form, chart))
                    for case, form, chart in cases(sm)]
             + [(case, {"kind": "power"}, POWER_STAGES, partial(time_power, call))
                for case, call in power_cases(sm)]
             for name, sm in trees}
    rows = []
    for k, (case, tags, stage_names, _) in enumerate(built["change"]):
        runs = {name: [] for name, _ in trees}
        for rep in range(args.repeats):
            for name, _ in (trees if rep % 2 == 0 else trees[::-1]):
                runs[name].append(built[name][k][3]())
        counters = {}
        for name, _ in trees:
            seen = [c for _, c in runs[name]]
            if any(c != seen[0] for c in seen):
                raise SystemExit(f"{name} {case}: counters differ between repeats {seen}")
            counters[name] = seen[0]
        for name, _ in trees:
            row = {"tree": name, "case": case, **tags,
                   "stages": {s: _spread([st[s] for st, _ in runs[name]]) for s in stage_names},
                   "counters": counters[name]}
            if name == "change" and len(trees) > 1:
                other = trees[1][0]
                row["counters_match"] = all(
                    counters[name][c] == counters[other][c]
                    for c in counters[name] if c not in PATH_COUNTERS)
                row["paired_ratio"] = _spread([
                    this["total"] / that["total"]
                    for (this, _), (that, _) in zip(runs[name], runs[other])])
            rows.append(row)
            stages = {s: spread["median"] for s, spread in row["stages"].items()}
            detail = (f"{counters[name]['iterations']} steps, "
                      f"{stages['us_per_step']:6.1f} us/step" if tags["kind"] == "power" else
                      f"certificate {stages['certificate']:6.3f} s, "
                      f"interreduce {stages['interreduce']:6.3f} s")
            print(f"{name:>8} {case:<22} total {stages['total']:7.3f} s, {detail}",
                  file=sys.stderr)

    out = {
        "clock": "time.process_time per solve or power run, in process, unscaled; "
                 "median and quartiles over the repeats",
        "repeats": args.repeats,
        "machine": machine(),
        "trees": [name for name, _ in trees],
        "rows": rows,
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
