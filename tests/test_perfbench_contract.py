"""The benchmark calls the library by name; those names and calls must hold.

``perfbench/tracer.py`` replaces public attributes of the library modules
with timing wrappers, and ``perfbench/workloads.py`` calls the solvers and
the CLI with fixed keywords.  Renaming or deleting a wrapped name, or a
parameter or option a workload passes, breaks the benchmark run, so these
tests install the tracer, bind every library call the workloads make to the
current signatures and parse the workloads' command lines.  They read
``perfbench/`` and never edit it.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import spheremax
import spheremax.cli  # noqa: F401 - the tracer wraps cli.main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# the library callables the workloads reach, by attribute name
_CALLED = {
    "solve_argmax": spheremax.algsolver.solve_argmax,
    "solve_max": spheremax.algsolver.solve_max,
    "multilinear_iterate": spheremax.poweriter.multilinear_iterate,
    "bilinear_max": spheremax.poweriter.bilinear_max,
    "count_extreme_classes": spheremax.count_extreme_classes,
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_enables_and_restores():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer, spheremax)  # AttributeError if a wrapped name is gone
    groebner = spheremax.algsolver.groebner
    tracer.enable()
    try:
        assert spheremax.algsolver.groebner is not groebner
        form = spheremax.MultilinearForm(dims=(2, 2), coeffs=np.array([3.0, 1.0, -2.0, 4.0]))
        spheremax.algsolver.solve_argmax(form)
    finally:
        tracer.disable()
    assert spheremax.algsolver.groebner is groebner
    seen = {tracer.names[i] for i in tracer.name}
    assert {
        "algsolver.solve_argmax",
        "algsolver.build_critical_system",
        "algsolver.groebner",
        "algsolver.normal_set",
        "algsolver.mult_matrix_exact",
    } <= seen


def _workload_calls():
    """(name, positional count, keyword names) of every call in
    workloads.py to an attribute named in _CALLED."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _CALLED:
            keywords = [k.arg for k in node.keywords]
            assert None not in keywords, "a **kwargs call cannot be checked"
            calls.add((node.func.attr, len(node.args), tuple(sorted(keywords))))
    return calls


def test_workload_calls_bind_to_library_signatures():
    calls = _workload_calls()
    assert {
        ("solve_argmax", 1, ("force", "seed")),
        ("solve_argmax", 1, ("force",)),
        ("solve_max", 1, ()),
        ("multilinear_iterate", 1, ("max_iters", "seed")),
        ("bilinear_max", 1, ("seed",)),
        ("count_extreme_classes", 1, ()),
    } <= calls
    for name, npos, keywords in calls:
        signature = inspect.signature(_CALLED[name])
        signature.bind(*[None] * npos, **dict.fromkeys(keywords))  # TypeError if not


@pytest.mark.parametrize("method", ["power", "algebraic"])
def test_separability_command_line_parses(method):
    parser = spheremax.cli.build_parser()
    args = parser.parse_args(["separability", "state.json", "--method", method, "--seed", "3"])
    assert (args.command, args.input, args.method, args.seed) == (
        "separability", "state.json", method, 3)
    args = parser.parse_args(["separability", "state.json", "--method", method])
    assert args.seed is None
