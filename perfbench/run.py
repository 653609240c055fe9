#!/usr/bin/env python3
"""Layered, seeded benchmark of spheremax.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact-affine --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One invocation runs one workload in this process.  ``--trace 0`` measures
the end-to-end metrics with no instrumentation, with times read at the
reference speed that calibration loops timed before every op give (see
``hostspeed.py``); ``--trace 1`` is a separate run that wraps every
layer's public calls, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out``.
``--workload all`` runs every workload both ways, one child process at a
time, and prints both sets of metrics.  The last line of standard output is
always one JSON object with the keys correct, attempted, failed and metrics.
Metric names and units come from BENCHMARK.json at the checkout root.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS/OpenMP thread: the load never asks for more threads than cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def load_program():
    """Import spheremax from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spheremax" / "__init__.py").is_file():
        sys.exit(f"error: no spheremax sources under {src}")
    sys.path.insert(0, str(src))
    import spheremax
    import spheremax.cli  # noqa: F401 - not imported by the package itself

    if not Path(spheremax.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: spheremax was imported from {spheremax.__file__}, not {src}")
    return spheremax


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it is not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(sm, np):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rational_backend": sm.algsolver._Q.__module__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


class Tally:
    """Outcomes of the ops of one pass."""

    def __init__(self):
        self.latencies = []
        self.cal = []  # calibration time before each op, untraced passes only
        self.answered = self.refused = 0
        self.failures = Counter()
        self.hits = [0, 0]  # r>=3 power results reaching the exact maximum, of those checked

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())

    def run(self, op, seed, sm, workloads):
        """Time one call, check its output, and count the outcome."""
        error = None
        t0 = time.perf_counter()
        try:
            result = op.call(seed)
        except sm.SphereMaxError as exc:
            result, error = None, workloads.Refused(f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - a crashing op is counted, not fatal
            result, error = None, exc
        latency = time.perf_counter() - t0
        self.latencies.append(latency)
        if error is None:
            try:
                op.check(result)
                if op.hit is not None:
                    self.hits[1] += 1
                    self.hits[0] += bool(op.hit(result))
            except (workloads.CheckFailed, workloads.Refused) as exc:
                error = exc
        if error is None:
            self.answered += 1
        elif isinstance(error, workloads.Refused):
            self.refused += 1
        else:
            self.failures[f"{op.label}: {type(error).__name__}: {str(error)[:160]}"] += 1


def run_pass(ops, seconds, seeds, sm, workloads, calibration=None, tracer=None):
    """Run whole cycles over ``ops`` until ``seconds`` have passed.

    Every call gets a fresh seed from ``seeds``.  Untraced, each op is
    preceded by a timed ``calibration()``.  Returns the tally, the
    (answered ops, wall time) of each cycle and, when traced, a tally of
    untraced repeats: with a tracer, each op runs traced and then again
    untraced with the same seed, so the tracing overhead is measured on the
    same work at nearly the same time.
    """
    tally, plain = Tally(), Tally()
    cycles = []
    t_begin = time.perf_counter()
    while not cycles or time.perf_counter() - t_begin < seconds:
        t0, answered = time.perf_counter(), tally.answered
        for op in ops:
            seed = int(seeds.integers(2**31))
            if tracer is None:
                tally.cal.append(calibration())
                tally.run(op, seed, sm, workloads)
                continue
            tracer.current_op = tally.attempted
            tracer.enable()
            try:
                tally.run(op, seed, sm, workloads)
            finally:
                tracer.disable()
            plain.run(op, seed, sm, workloads)
        cycles.append((tally.answered - answered, time.perf_counter() - t0))
    return tally, cycles, plain


def percentile_ms(np, values, q):
    return float(np.percentile(np.asarray(values), q)) * 1e3


def describe(metrics, spec_metrics):
    for m in spec_metrics:
        value = metrics[m["name"]]
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")


def result_line(spec_metrics, metrics, attempted, failed):
    missing = [m["name"] for m in spec_metrics if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: metrics not measured: {missing}")
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics
        },
    }
    print(json.dumps(out))


def load_expectations(spec):
    path = HERE / "expectations.json"
    with open(path, encoding="utf-8") as fh:
        expect = json.load(fh)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in expect["per_layer"]]
    missing += [w["name"] for w in spec["workloads"] if w["name"] not in expect["tail_percentile"]]
    if missing:
        sys.exit(f"error: {path} says nothing about {missing}")
    return expect


def run_one(args, spec):
    import numpy as np

    sm = load_program()
    import hostspeed
    import tracer as tracing
    import workloads

    imports_s = time.perf_counter() - T_START
    expect = load_expectations(spec)
    env = environment(sm, np)
    print("env: " + json.dumps(env))
    build = workloads.WORKLOADS[args.workload]
    index = sorted(workloads.WORKLOADS).index(args.workload)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmpdir:
        # Set-up is timed like the ops: calibration samples right before and
        # after each part give the speed at which its time is reported.
        calibration = hostspeed.calibration
        cal = [calibration() for _ in range(20)]
        imports_s *= hostspeed.relative_speed(cal[-5:])
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            pool_rng = np.random.default_rng([workloads.POOL_SEED, index])
            run_rng = np.random.default_rng([args.seed, index])
            wl = build(sm, pool_rng, run_rng, tmpdir)
            elapsed = time.perf_counter() - t0
            after = [calibration() for _ in range(5)]
            setup_times.append(elapsed * hostspeed.relative_speed(cal[-5:] + after))
            cal = after
        setup_s = imports_s + statistics.median(setup_times)
        if wl.note:
            print(f"inputs: {wl.note}")

        seeds = np.random.default_rng([args.seed, index, 1])
        if not args.trace:
            tally, cycles, _ = run_pass(wl.ops, args.seconds, seeds, sm, workloads,
                                        calibration=calibration)
            scaled = hostspeed.scaled_latencies(tally.latencies, tally.cal)
            wall = sum(w for _, w in cycles)
            q = expect["tail_percentile"][args.workload]
            tail_ms = percentile_ms(np, scaled, q)
            beyond = int(np.sum(scaled * 1e3 > tail_ms))
            metrics = {
                "setup_s": setup_s,
                "solves_per_s": tally.answered / float(scaled.sum()),
                "solve_p50_ms": percentile_ms(np, scaled, 50),
                "solve_tail_ms": tail_ms,
                "answered_frac": tally.answered / tally.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            speed = hostspeed.relative_speed(tally.cal)
            print(f"workload {args.workload} seed {args.seed}: {len(cycles)} cycles of "
                  f"{len(wl.ops)} ops in {wall:.2f} s: {tally.answered} answered, "
                  f"{tally.refused} refused, {tally.failed} failed")
            loops = ", ".join(f"{name} {t * 1e3:.3f}" for name, t in zip(
                hostspeed.REFERENCE_S, np.median(np.asarray(tally.cal), axis=0)))
            print(f"host ran at {speed:.3f} of the reference speed (calibration medians, "
                  f"ms: {loops}); as measured, p50 "
                  f"{percentile_ms(np, tally.latencies, 50):.4g} ms and "
                  f"{tally.answered / sum(tally.latencies):.4g} solves per op second")
            print(f"times are at the reference speed; solve_tail_ms is p{q} over "
                  f"{tally.attempted} ops ({beyond} beyond it)")
            for line, n in tally.failures.most_common(5):
                print(f"  failure x{n}: {line}")
            describe(metrics, spec["end_to_end"])
            result_line(spec["end_to_end"], metrics, tally.attempted, tally.failed)
            return 0

        tr = tracing.Tracer()
        tracing.install(tr, sm)
        tally, _, plain = run_pass(wl.ops, args.seconds, seeds, sm, workloads, tracer=tr)
        classes = dict(wl.classes)

        def classes_of(dims):
            if dims not in classes:
                classes[dims] = sm.count_extreme_classes(dims)
            return classes[dims]

        traced_s, plain_s = sum(tally.latencies), sum(plain.latencies)
        metrics = tracing.layer_metrics(
            tr, tally.attempted, traced_s, len(wl.ops), classes_of, tally.hits)
        metrics["chowcount.count_s"] = wl.count_s
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tr.save(spans_path, env)
        print(f"workload {args.workload} seed {args.seed} traced: {tally.attempted} ops, "
              f"{len(tr.start)} spans -> {spans_path.relative_to(ROOT)}; the same ops took "
              f"{traced_s:.2f} s traced and {plain_s:.2f} s untraced")
        for shape, ratio in tracing.quotient_ratios(tr, classes_of).items():
            print(f"  quotient dim / class count on {shape}: {ratio:g}")
        for line, n in (tally.failures + plain.failures).most_common(5):
            print(f"  failure x{n}: {line}")
        describe(metrics, spec["per_layer"])
        result_line(spec["per_layer"], metrics, tally.attempted + plain.attempted,
                    tally.failed + plain.failed)
    return 0


def run_all(args, spec):
    """Every workload untraced then traced, each in its own child process."""
    summary = {}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"error: {wl['name']} trace={trace} exited {proc.returncode}")
            summary[f"{wl['name']}/trace{trace}"] = json.loads(lines[-1])
    attempted = sum(r["attempted"] for r in summary.values())
    failed = sum(r["failed"] for r in summary.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
