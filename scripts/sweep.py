#!/usr/bin/env python3
"""Correctness sweep of the exact maximum over seeded non-generic forms.

Sparse (about 30% of the entries nonzero, -3..3), exact rank-one and
rank-two (integer factors in -2..2) and diagonal (-3..3, nonzero) integer
forms over 2x2, 3x3, 2x2x2, 2x2x3, 3x3x3, 8x7, 3x3x2 and 2x4x4, the
separability forms (2x2x1) of seeded rank-one two-qubit states
(``pure-state``: a standard normal 4-vector g, rho = g g^T / |g|^2), and four families of
matrices whose top singular value is tied (``identity``: c I, c in 1..3;
``signed-permutation``: c times a signed permutation; ``hadamard``: c
times 2x2 blocks [[1, 1], [1, -1]] down the diagonal, a last odd row and
column holding +-c; ``repeated-diagonal``: a diagonal in -3..3, nonzero,
its largest |entry| at least twice; each with rows and columns permuted),
each drawn from the fixed seed ``(family, shape, k)`` (a state from
``(family, k)``), go through
``algsolver._exact_max`` and through ``closest_rank_one`` with each
method, and the matrices also through ``solve_max``, which raises where
the critical set is not zero-dimensional (a tied or, on the smaller side,
zero singular value).  Each answer is held against a reference maximum:
the first singular value (``np.linalg.svd``) for two slots, else the best
of ``poweriter._ascend`` over the seeds 0 and 1000 (48 starts each), which
is only a lower bound.  The answer of ``_exact_max`` is its maximum and its
first point's |value| (NaN, written null, without a point), both of which
must match; that of ``solve_max`` its maximum; that of
``closest_rank_one`` l at its factors.  Outcomes:

- ``right``: within 1e-9 relative of the reference, with no flag;
- ``right, flagged``: within it, with a genericity flag;
- ``above reference``: above a lower-bound reference, never scored wrong;
- ``wrong, flagged`` and ``wrong, unflagged``: anything else;
- ``raises`` and ``over budget``: a solver error, the second one
  ``BudgetExceededError``.

The JSON goes to standard output: the counts per method, family and
outcome, and every answer that is not ``right``.  It holds no timings, so
two runs print the same JSON.

    python3 scripts/sweep.py > SWEEP_36.json
    python3 scripts/sweep.py --smoke > /dev/null   # shapes up to 2x2x3

It exits 1 when an answer is wrong, flagged or not.  It imports ``src/``
beside this script.  On one core the full set of 135 forms runs in about
14 s, most of it the sphere-chart solves of the 3x3x3 forms and those of
``solve_max`` on the matrices the Gram kernel declines, and the smoke set
of 75 in under 1 s.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spheremax import (BudgetExceededError, DensityState, Matrix,  # noqa: E402
                       MultilinearForm, SphereMaxError, algsolver, closest_rank_one,
                       poweriter)
from spheremax.apps import _separability_form  # noqa: E402

SHAPES = ((2, 2), (3, 3), (2, 2, 2), (2, 2, 3), (3, 3, 3), (8, 7), (3, 3, 2), (2, 4, 4))
SMOKE_SHAPES = SHAPES[:4]
FORMS_PER_CASE = 3     # seeds per family and shape
TOL = 1e-9
REFERENCE_SEEDS = (0, 1000)


def _nonzero(rng, size, low, high):
    while True:
        c = rng.integers(low, high + 1, size=size)
        if c.any():
            return c


def _outer(vectors):
    t = np.array(1.0)
    for v in vectors:
        t = np.multiply.outer(t, v)
    return t.reshape(-1)


def _sparse(rng, dims):
    n = math.prod(dims)
    while True:
        c = rng.integers(-3, 4, size=n) * (rng.random(n) < 0.3)
        if c.any():
            return c


def _rank(terms):
    def draw(rng, dims):
        while True:
            c = sum(_outer([_nonzero(rng, d, -2, 2) for d in dims]) for _ in range(terms))
            if c.any():
                return c
    return draw


def _diagonal(rng, dims):
    t = np.zeros(dims)
    for i in range(min(dims)):
        t[(i,) * len(dims)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return t.reshape(-1)


def _tied(core):
    """Draw a matrix with rows and columns permuted whose pattern before
    the permutation is core(rng, n, m); None for more than two slots."""
    def draw(rng, dims):
        if len(dims) != 2:
            return None
        t = core(rng, *dims)
        return t[rng.permutation(dims[0])][:, rng.permutation(dims[1])].reshape(-1)
    return draw


def _scaled_eye(rng, n, m):
    return rng.integers(1, 4) * np.eye(n, m)


def _signed_permutation(rng, n, m):
    return rng.integers(1, 4) * np.eye(n, m) * rng.choice([-1, 1], size=m)


def _hadamard(rng, n, m):
    t = np.zeros((n, m))
    for i in range(0, min(n, m) - 1, 2):
        t[i:i + 2, i:i + 2] = [[1, 1], [1, -1]]
    if min(n, m) % 2:
        t[min(n, m) - 1, min(n, m) - 1] = rng.choice([-1, 1])
    return rng.integers(1, 4) * t


def _repeated_diagonal(rng, n, m):
    d = rng.choice([-3, -2, -1, 1, 2, 3], size=min(n, m))
    d[rng.choice(d.size, size=2, replace=False)] = rng.choice([-1, 1], size=2) * np.abs(d).max()
    return np.eye(n, m) * np.append(d, np.zeros(m - d.size))


FAMILIES = {"sparse": _sparse, "rank-one": _rank(1), "rank-two": _rank(2),
            "diagonal": _diagonal, "identity": _tied(_scaled_eye),
            "signed-permutation": _tied(_signed_permutation), "hadamard": _tied(_hadamard),
            "repeated-diagonal": _tied(_repeated_diagonal)}


def _forms(shapes):
    for f, (family, draw) in enumerate(FAMILIES.items()):
        for s, dims in enumerate(SHAPES):
            if dims not in shapes:
                continue
            for k in range(FORMS_PER_CASE):
                coeffs = draw(np.random.default_rng((f, s, k)), dims)
                if coeffs is not None:
                    yield family, (f, s, k), MultilinearForm(dims, coeffs.astype(float))
    f = len(FAMILIES)
    for k in range(FORMS_PER_CASE):
        g = np.random.default_rng((f, k)).standard_normal(4)
        rho = DensityState(2, 2, Matrix.from_array(np.outer(g, g) / (g @ g)))
        yield "pure-state", (f, k), _separability_form(rho)


def _reference(form):
    """(maximum, whether it is only a lower bound)."""
    if form.order == 2:
        return float(np.linalg.svd(form.tensor, compute_uv=False)[0]), False
    return max(poweriter._ascend(form, seed, poweriter._ASCENTS).value
               for seed in REFERENCE_SEEDS), True


def _answers(form):
    """(method, values that must each match the reference, flags) per
    method, or (method, exception, ()) for a solver error."""
    try:
        _, report = algsolver._exact_max(form, 0)
        point = abs(report.points[0].value) if report.points else math.nan
        yield "_exact_max", [report.max_value, point], report.genericity_flags
    except SphereMaxError as exc:
        yield "_exact_max", exc, ()
    if form.order == 2:
        try:
            report = algsolver.solve_max(form)
            yield "solve_max", [report.max_value], report.genericity_flags
        except SphereMaxError as exc:
            yield "solve_max", exc, ()
    for method in ("algebraic", "power"):
        try:
            approx = closest_rank_one(form, method=method)
            yield f"closest_rank_one {method}", [approx.max_value], approx.flags
        except SphereMaxError as exc:
            yield f"closest_rank_one {method}", exc, ()


def _outcome(values, flags, reference, lower_bound):
    if isinstance(values, BudgetExceededError):
        return "over budget"
    if isinstance(values, Exception):
        return "raises"
    right = [abs(v - reference) <= TOL * reference for v in values]
    above = [lower_bound and v > reference * (1.0 + TOL) for v in values]
    if all(r or a for r, a in zip(right, above)):
        if any(above):
            return "above reference"
        return "right, flagged" if flags else "right"
    return "wrong, flagged" if flags else "wrong, unflagged"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run only the shapes up to 2x2x3")
    args = parser.parse_args(argv)
    shapes = SMOKE_SHAPES if args.smoke else SHAPES
    counts, answers = {}, []
    for family, seed, form in _forms(shapes):
        reference, lower_bound = _reference(form)
        for method, values, flags in _answers(form):
            outcome = _outcome(values, flags, reference, lower_bound)
            by_family = counts.setdefault(method, {}).setdefault(family, {})
            by_family[outcome] = by_family.get(outcome, 0) + 1
            if outcome != "right":
                answers.append({
                    "method": method, "family": family, "dims": list(form.dims),
                    "seed": list(seed), "outcome": outcome, "reference": reference,
                    "values": repr(values) if isinstance(values, Exception) else [
                        None if math.isnan(v) else v for v in values],
                    "flags": list(flags),
                })
    wrong = [a for a in answers if a["outcome"].startswith("wrong")]
    json.dump({"shapes": [list(d) for d in shapes], "tolerance": TOL,
               "forms_per_case": FORMS_PER_CASE, "counts": counts, "answers": answers},
              sys.stdout, indent=1, sort_keys=True, allow_nan=False)
    print()
    print(f"sweep: {len(wrong)} wrong answer(s)", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
