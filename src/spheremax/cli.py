"""Command-line surface.

Subcommands: maximize, count, rank1, norm2, separability, bench.  Inputs are
JSON files (tensor: {"dims": [...], "coeffs": [...]}, matrix: {"rows": ...,
"cols": ..., "entries": [...]}, state: {"dimA": ..., "dimB": ...,
"matrix": {...}}); reports are JSON with numbers at 10 significant digits.
The CLI checks only what JSON can get wrong (types, booleans, non-finite
numbers); every other input rule is the library type's that owns it.
Exit codes: 0 success, 1 input/output error, 2 solver error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import algsolver, apps, chowcount, poweriter
from .errors import DimensionMismatchError, SphereMaxError
from .linalg import Matrix
from .multiform import MultilinearForm

EXIT_OK = 0
EXIT_IO = 1
EXIT_SOLVER = 2

DEFAULT_BENCH_ROWS = ((2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 3))


class InputError(Exception):
    """Malformed input file or arguments; maps to exit code 1."""


def _sig10(x: float) -> float:
    """Round to 10 significant digits (the report formatting contract)."""
    if x == 0.0:
        return x
    return float(f"{x:.10g}")


def _jsonify(obj):
    if isinstance(obj, float):
        # JSON has no NaN or infinity (e.g. a maximum with no real eigenvalue)
        return _sig10(obj) if math.isfinite(obj) else None
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return obj


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _require(data: dict, key: str, path: str):
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise InputError(f"{path}: missing field {key!r}")
    return data[key]


def _is_number(x, integral: bool = False) -> bool:
    """A JSON number that is finite as a float, and an int when integral.
    JSON true and false are not numbers, although bool subclasses int."""
    if isinstance(x, bool) or not isinstance(x, int if integral else (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _build(path: str, make, **fields):
    """make(**fields); the library type's refusal becomes an InputError
    that names the file."""
    try:
        return make(**fields)
    except SphereMaxError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_form(path: str) -> MultilinearForm:
    data = _load_json(path)
    dims = _require(data, "dims", path)
    coeffs = _require(data, "coeffs", path)
    if not isinstance(dims, list) or not all(_is_number(d, True) for d in dims):
        raise InputError(f"{path}: dims must be a list of integers")
    if not isinstance(coeffs, list) or not all(map(_is_number, coeffs)):
        raise InputError(f"{path}: coeffs must be a list of finite numbers")
    return _build(path, MultilinearForm, dims=tuple(dims), coeffs=coeffs)


def _parse_matrix(data: dict, path: str) -> Matrix:
    rows = _require(data, "rows", path)
    cols = _require(data, "cols", path)
    entries = _require(data, "entries", path)
    if not (_is_number(rows, True) and _is_number(cols, True)):
        raise InputError(f"{path}: rows and cols must be integers")
    if not isinstance(entries, list) or not all(map(_is_number, entries)):
        raise InputError(f"{path}: entries must be a list of finite numbers")
    return _build(path, Matrix, rows=rows, cols=cols, entries=entries)


def _parse_state(path: str) -> apps.DensityState:
    data = _load_json(path)
    dim_a = _require(data, "dimA", path)
    dim_b = _require(data, "dimB", path)
    if not (_is_number(dim_a, True) and _is_number(dim_b, True)):
        raise InputError(f"{path}: dimA and dimB must be integers")
    matrix = _parse_matrix(_require(data, "matrix", path), path)
    return _build(path, apps.DensityState, dim_a=dim_a, dim_b=dim_b, matrix=matrix)


def _emit(report: dict, args):
    text = json.dumps(_jsonify(report), indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    print(text)


def _points_json(points):
    return [
        {
            "vectors": [[float(c) for c in v] for v in p.vectors],
            "value": float(p.value),
            "residual": float(p.residual),
        }
        for p in points
    ]


def cmd_maximize(args) -> int:
    form = _parse_form(args.input)
    method = apps._resolve_method(args.method, form.order)
    t0 = time.perf_counter()
    report = {"method": method, "chart": None, "flags": [], "timings": {}}
    if method == "power":
        result = poweriter.multilinear_iterate(
            form, seed=args.seed, tol=args.tol, max_iters=args.max_iters
        )
        report["maxValue"] = result.value
        report["flags"] = [result.status.value]
        report["iterations"] = result.iterations
        report["residual"] = result.residual
        points = [algsolver.CriticalPoint(result.point, result.value, result.residual)]
    else:
        report["chart"], solved = algsolver._exact_max(form, args.seed, args.budget_reductions)
        report["maxValue"] = solved.max_value
        report["quotientDim"] = solved.quotient_dim
        report["flags"] = list(solved.genericity_flags)
        report["timings"].update(solved.timings)
        points = solved.points
    if args.points:
        report["points"] = _points_json(points)
    report["timings"]["total"] = time.perf_counter() - t0
    _emit(report, args)
    return EXIT_OK


def cmd_count(args) -> int:
    print(chowcount.count_extreme_classes(tuple(args.dims)))
    return EXIT_OK


def cmd_rank1(args) -> int:
    form = _parse_form(args.input)
    t0 = time.perf_counter()
    result = apps.closest_rank_one(form, method=args.method, seed=args.seed)
    report = {
        "method": apps._resolve_method(args.method, form.order),
        "factors": [[float(c) for c in v] for v in result.factors.factors],
        "maxValue": result.max_value,
        "distance": result.distance,
        "flags": list(result.flags),
        "timings": {"total": time.perf_counter() - t0},
    }
    _emit(report, args)
    return EXIT_OK


def cmd_norm2(args) -> int:
    matrix = _parse_matrix(_load_json(args.input), args.input)
    t0 = time.perf_counter()
    value = apps.matrix_norm2(matrix, method=args.method, seed=args.seed)
    report = {
        "method": apps._resolve_method(args.method, 2),
        "norm2": value,
        "timings": {"total": time.perf_counter() - t0},
    }
    _emit(report, args)
    return EXIT_OK


def cmd_separability(args) -> int:
    state = _parse_state(args.input)
    t0 = time.perf_counter()
    result = apps.entanglement_check(state, method=args.method, seed=args.seed)
    report = {
        "method": apps._resolve_method(args.method, 3),
        "verdict": result.verdict,
        "selfOverlap": result.self_overlap,
        "sepMax": result.sep_max,
        "flags": list(result.flags),
        "timings": {"total": time.perf_counter() - t0},
    }
    _emit(report, args)
    return EXIT_OK


def _random_integer_form(dims, rng) -> MultilinearForm:
    while True:
        coeffs = rng.integers(-9, 10, size=math.prod(dims))
        if np.any(coeffs):
            return MultilinearForm(dims=tuple(dims), coeffs=coeffs.astype(float))


def bench_row(dims, seed: int, budget: int) -> dict:
    """One benchmark row: seeded random integer form, affine-chart pipeline,
    the seconds of each stage of SolveReport.timings plus their total.  The
    affine quotient dimension of a generic form equals the extreme-class
    count."""
    rng = np.random.default_rng(seed)
    form = _random_integer_form(dims, rng)
    row = {"dims": list(dims), "expectedClasses": chowcount.count_extreme_classes(dims)}
    try:
        solved = algsolver.solve_argmax(form, budget=budget, seed=seed)
        row.update(
            quotientDim=solved.quotient_dim,
            maxValue=solved.max_value,
            timings={**solved.timings, "total": sum(solved.timings.values())},
        )
    except SphereMaxError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_bench(args) -> int:
    rows = DEFAULT_BENCH_ROWS if args.rows is None else _parse_bench_rows(args.rows)
    rows = [bench_row(d, args.seed, args.budget_reductions) for d in rows]
    _emit({"seed": args.seed, "rows": rows}, args)
    return EXIT_OK


def _parse_bench_rows(values):
    """Every --rows entry as a dims tuple, checked by the class count
    before the first solve runs."""
    rows = []
    for item in values:
        try:
            dims = tuple(int(p) for p in item.split(","))
            chowcount.count_extreme_classes(dims)
        except (ValueError, DimensionMismatchError) as exc:
            raise InputError(f"bad --rows entry {item!r}: {exc}") from exc
        rows.append(dims)
    return rows


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged, so every call of main shares it)."""
    parser = argparse.ArgumentParser(
        prog="spheremax",
        description="Maxima of multilinear forms over products of unit spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget-reductions", type=int, default=algsolver.DEFAULT_REDUCTION_BUDGET,
                       help="cap on the Groebner engine's polynomial reductions; the Sturm "
                            "kernels (bilinear forms, and trilinear forms with a slot of "
                            "dimension 2) spend none")

    def add_common(p):
        p.add_argument("input", help="input JSON file")
        p.add_argument(
            "--method",
            choices=("algebraic", "power", "auto"),
            default="auto",
            help="solver (auto: power for bilinear, algebraic otherwise)",
        )
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: $SPHEREMAX_SEED or 0)")
        p.add_argument("--out", default=None, help="also write the JSON report to this file")

    p = sub.add_parser("maximize", help="maximum of |form| over the sphere product")
    add_common(p)
    add_budget(p)
    p.add_argument("--tol", type=float, default=poweriter.DEFAULT_TOL)
    p.add_argument("--max-iters", type=int, default=poweriter.DEFAULT_MAX_ITERS)
    p.add_argument("--points", action="store_true", help="include critical points")

    p = sub.add_parser("count", help="number of extreme-point classes (exact)")
    p.add_argument("dims", type=int, nargs="+", help="slot dimensions, e.g. 3 3 3")

    p = sub.add_parser("rank1", help="closest unit rank-one form")
    add_common(p)

    p = sub.add_parser("norm2", help="matrix 2-norm (first singular value)")
    add_common(p)

    p = sub.add_parser("separability", help="separable maximum and entanglement verdict")
    add_common(p)

    p = sub.add_parser("bench", help="timing sweep of the algebraic pipeline")
    p.add_argument("--rows", nargs="*", default=None, help='rows like "2,2,3" (empty for none)')
    p.add_argument("--seed", type=int, default=None)
    add_budget(p)
    p.add_argument("--out", default=None)
    return parser


def _default_seed() -> int:
    raw = os.environ.get("SPHEREMAX_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"SPHEREMAX_SEED={raw!r} is not an integer") from exc


_COMMANDS = {
    "maximize": cmd_maximize,
    "count": cmd_count,
    "rank1": cmd_rank1,
    "norm2": cmd_norm2,
    "separability": cmd_separability,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or --help
        return EXIT_OK if exc.code == 0 else EXIT_IO
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return _COMMANDS[args.command](args)
    except (InputError, DimensionMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SphereMaxError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
