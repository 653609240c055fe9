"""The benchmark's tracer wraps library calls by name; those names must exist.

``perfbench/tracer.py`` replaces public attributes of the library modules
with timing wrappers.  Renaming or deleting one of them breaks the traced
benchmark run, so this test installs the tracer on the package and swaps the
wrappers in and out.  It reads ``perfbench/`` and never edits it.
"""

import importlib.util
from pathlib import Path

import numpy as np

import spheremax
import spheremax.cli  # noqa: F401 - the tracer wraps cli.main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
