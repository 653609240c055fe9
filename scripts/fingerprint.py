#!/usr/bin/env python3
"""Bitwise fingerprint of the power and exact outputs of this checkout.

Runs a fixed set of cases and prints one sha256 per case, then the sha256
of all of them (``total``) and of each half: ``total exact`` over the exact
cases (the critical systems, Groebner bases, ``solve_argmax`` and
``solve_max`` reports, scaled ones included) and ``total power`` over the
power cases (``multilinear_iterate``, ``_joint``, ``bilinear_max`` and
``_ascend``, scaled ones included).  The app cases, which run both, count
in ``total`` only.  Two checkouts whose totals agree return the same
outputs bit for bit: every float is hashed by its bytes, every error by its
repr.  Cases marked ``scaled`` run forms multiplied by huge or tiny powers
of two; every form runs at unit scale, so they take the same path as the
others and count in the totals.

    python3 scripts/fingerprint.py

It imports ``src/`` and ``tests/conftest.py`` (so pytest too) beside this
script, takes no options, and runs in well under a minute on one core.
``scripts/fingerprint.total`` holds the three expected ``total`` lines, and
CI fails when either hash seed prints others; a change that moves an output
on purpose commits the new lines with it, and one that changes only one
path leaves the other half's line as it was.

Power cases: ``multilinear_iterate``, the outcome of each of the joint
kernel's six starts under the restart rule (``_joint``), ``bilinear_max``
and the Gauss-Seidel ascent ``_ascend`` on the test fixtures and seeded
Gaussian forms, 2x2x2 to 4x4x4 and 2x2x2x2, over several seeds and
iteration caps.  Exact cases: the critical system on both charts (each
polynomial's terms sorted), the affine-chart Groebner basis (terms in
order), its certificate, the normal set, the ``mult_matrix_exact`` columns
of l and of each variable, and the ``solve_argmax`` report of small integer
forms, plus ``solve_max`` (the critical values on the spheres) on the
smallest ones (on the 2x2 and 2x3 ones the Gram kernel's), both reports of four 2x2x2 integer forms times powers of two
(2^-45 and 2^40, 2^-30 and 2^-40), which the exact solvers run at the
form's unit scale, and ``solve_max`` of the ``default_rng(16)`` one times
1e-9 and 0.1, whose decimal reprs perturb the sphere chart's system (its
spurious real eigenvalues lie above ||l||_F) but whose affine points are
proved, so it lifts them.  App cases:
``matrix_norm2``, ``closest_rank_one`` and ``separable_max`` with each
method on the test suite's non-generic forms (``tests/conftest.py``),
e2 (x) e2 (x) e2, which the pencil kernel answers, and the suite's states.
"""

import hashlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import conftest  # noqa: E402
from spheremax import (DensityState, Matrix, MultilinearForm, algsolver, apps,  # noqa: E402
                       cli, poweriter)

TRILINEAR = [6, -14, -6, -11, 3, -15, 16, 8]
QUADLINEAR = [4, 2, -5, -9, 1, -7, -5, -6, 6, -3, -6, -9, 7, 9, 0, 8]
MULTI_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 3, 3), (2, 3, 4), (4, 4, 4),
                (2, 2, 2, 2))
MATRIX_SHAPES = ((2, 2), (3, 2), (4, 3), (8, 8), (20, 15), (50, 40))
EXACT_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2))
SEEDS = (0, 7, 123)
CAP = 2000
TOL = poweriter.DEFAULT_TOL


def _digest(obj):
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.shape).encode() + x.tobytes())
        elif isinstance(x, float):
            h.update(x.hex().encode())
        elif isinstance(x, (tuple, list)):
            h.update(b"(")
            for y in x:
                feed(y)
            h.update(b")")
        elif isinstance(x, dict):
            feed(list(x.items()))
        else:
            h.update(repr(x).encode())
        h.update(b";")

    feed(obj)
    return h.hexdigest()


def _outcome(res):
    if isinstance(res, Exception):
        return repr(res)
    if res is None:
        return None
    return (res.value, res.iterations, res.status.value, res.residual,
            [np.asarray(v, dtype=float) for v in res.point])


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # an error is an outcome too
        return exc


def _multi_forms():
    forms = {"trilinear": MultilinearForm((2, 2, 2), TRILINEAR),
             "quadlinear": MultilinearForm((2, 2, 2, 2), QUADLINEAR)}
    for k in range(42):
        dims = MULTI_SHAPES[k % len(MULTI_SHAPES)]
        rng = np.random.default_rng(100 + k)
        forms[f"gauss-{'x'.join(map(str, dims))}-{k}"] = MultilinearForm(
            dims, rng.standard_normal(math.prod(dims)))
    for k in range(18):
        dims = MULTI_SHAPES[k % 3]
        forms[f"int-{'x'.join(map(str, dims))}-{k}"] = cli._random_integer_form(
            dims, np.random.default_rng(200 + k))
    for k in range(9):  # forms on which the joint iteration converges
        dims = MULTI_SHAPES[k % 3]
        rng = np.random.default_rng(400 + k)
        t = np.array(1.0)
        for d in dims:
            t = np.multiply.outer(t, rng.standard_normal(d))
        forms[f"rank-one-{k}"] = MultilinearForm(dims, t.reshape(-1))
        noise = rng.standard_normal(t.size) * 10.0 ** -(k % 3 + 2)
        forms[f"near-rank-one-{k}"] = MultilinearForm(dims, t.reshape(-1) + noise)
        forms[f"sparse-{k}"] = MultilinearForm(dims, rng.integers(-1, 2, t.size) * (
            rng.random(t.size) < 0.3) + (np.arange(t.size) == 0))
    return forms


def _crafted_joint_cases():
    """The joint kernel from starts that meet a zero gradient, converge at
    once or converge one after another."""
    e1, e2 = np.eye(2)
    form = MultilinearForm((2, 2, 2), np.multiply.outer(np.outer(e1, e1), e1).reshape(-1))
    generic = poweriter._random_starts(form, [0, 1])
    for name, starts in {
        "zero-gradient": [np.vstack([e2, g]) for g in generic],
        "rank-one-at-once": [np.vstack([e1, g]) for g in generic],
        "zero-slot": [np.vstack([g[:1], g]) for g in generic[:2]] + [
            np.vstack([e2, generic[2]])],
    }.items():
        out = _call(poweriter._joint, form, starts, TOL, 100)
        yield f"joint crafted {name}", (
            _outcome(out) if isinstance(out, Exception) else [_outcome(o) for o in out])
    # a symmetric form from equal slots stays balanced and converges, one
    # row after another (the symmetric higher-order power method)
    for k, d in enumerate((2, 3, 3, 4)):
        rng = np.random.default_rng(500 + k)
        t = sum(w * np.multiply.outer(np.outer(v, v), v)
                for w, v in zip(rng.standard_normal(d), rng.standard_normal((d, d))))
        form = MultilinearForm((d,) * 3, t.reshape(-1))
        start = poweriter._random_starts(form, range(k, k + 7))[0]
        out = _call(poweriter._joint, form, [start] * 3, TOL, CAP)
        yield f"joint symmetric {k}", [_outcome(o) for o in out]


def power_cases():
    yield from _crafted_joint_cases()
    for name, form in _multi_forms().items():
        for seed in SEEDS:
            yield f"iterate {name} seed {seed}", _outcome(
                _call(poweriter.multilinear_iterate, form, seed=seed, max_iters=CAP))
            starts = poweriter._random_starts(form, range(seed, seed + poweriter._STARTS))
            out = _call(poweriter._joint, form, starts, TOL, CAP)
            yield f"joint {name} seed {seed}", (
                _outcome(out) if isinstance(out, Exception) else [_outcome(o) for o in out])
        yield f"ascend {name}", _outcome(_call(poweriter._ascend, form, 3, 48))
        for cap in (1, 2, 15, 16, 17, 31, 32, 33, 63, 65):
            yield f"iterate {name} cap {cap}", _outcome(
                _call(poweriter.multilinear_iterate, form, seed=1, max_iters=cap))
    yield "iterate trilinear default cap", _outcome(
        _call(poweriter.multilinear_iterate, MultilinearForm((2, 2, 2), TRILINEAR), seed=5))
    for k in range(12):
        dims = MATRIX_SHAPES[k % len(MATRIX_SHAPES)]
        rng = np.random.default_rng(300 + k)
        form = MultilinearForm(dims, rng.standard_normal(math.prod(dims)))
        for seed in SEEDS:
            yield f"bilinear {'x'.join(map(str, dims))}-{k} seed {seed}", _outcome(
                _call(poweriter.bilinear_max, form, seed=seed))


def scaled_cases():
    for k, dims in enumerate(((2, 2), (2, 2, 2), (2, 2, 3))):
        coeffs = np.random.default_rng(3 + k).standard_normal(math.prod(dims))
        for e in (-560, -530, 530, 560):
            form = MultilinearForm(dims, np.ldexp(coeffs, e))
            tag = f"{'x'.join(map(str, dims))} 2^{e}"
            yield f"scaled iterate {tag}", _outcome(
                _call(poweriter.multilinear_iterate, form, seed=0, max_iters=CAP))
            yield f"scaled ascend {tag}", _outcome(_call(poweriter._ascend, form, 0, 12))


def _report(rep):
    if isinstance(rep, Exception):
        return repr(rep)
    return (rep.quotient_dim, [repr(x) for x in rep.eigenvalues], rep.max_value,
            [(p.vectors, p.value, p.residual) for p in rep.points], rep.genericity_flags)


def exact_cases():
    forms = {"trilinear": MultilinearForm((2, 2, 2), TRILINEAR)}
    for k in range(20):
        dims = EXACT_SHAPES[k % len(EXACT_SHAPES)]
        forms[f"int-{'x'.join(map(str, dims))}-{k}"] = cli._random_integer_form(
            dims, np.random.default_rng(7000 + k))
    for name, form in forms.items():
        systems = {chart: algsolver.build_critical_system(form, chart=chart)
                   for chart in ("sphere", "affine")}
        for chart, system in systems.items():
            yield f"system {chart} {name}", (
                system.variables, system.slot_vars,
                [sorted(p.terms.items()) for p in system.polys])
        system = systems["affine"]
        gb = algsolver.groebner(system)
        ns = algsolver.normal_set(gb)
        ring = algsolver.QuotientRing(gb, ns)
        nvars = len(system.variables)
        polys = [algsolver.form_polynomial(form)] + [
            algsolver.RationalPoly(system.variables, {
                tuple(int(i == v) for i in range(nvars)): algsolver._ONE})
            for v in range(nvars)]
        yield f"exact {name}", (
            [list(p.terms.items()) for p in gb.basis],
            algsolver.verify_buchberger_certificate(gb),
            ns.monomials,
            [[(sorted(vec.items()), den) for vec, den in ring.mult_matrix_exact(f)]
             for f in polys],
            _report(algsolver.solve_argmax(form)),
        )
        if form.dims in ((2, 2), (2, 3), (2, 2, 2)):
            yield f"sphere {name}", _report(algsolver.solve_max(form))
    for seeds, exps in (((2, 32), (-45, 40)), ((9, 16), (-30, -40))):
        for seed in seeds:
            form = cli._random_integer_form((2, 2, 2), np.random.default_rng(seed))
            for e in exps:
                scaled = MultilinearForm(form.dims, np.ldexp(form.coeffs, e))
                for solve in (algsolver.solve_argmax, algsolver.solve_max):
                    yield f"scaled {solve.__name__} int-2x2x2-{seed} 2^{e}", _report(
                        _call(solve, scaled))
    form = cli._random_integer_form((2, 2, 2), np.random.default_rng(16))
    for scale in (1e-9, 0.1):
        yield f"solve_max int-2x2x2-16 times {scale!r}", _report(_call(
            algsolver.solve_max, MultilinearForm(form.dims, form.coeffs * scale)))


def _rank_one(approx):
    if isinstance(approx, Exception):
        return repr(approx)
    return (approx.factors.factors, approx.max_value, approx.distance, approx.flags)


def app_cases():
    forms = {name: MultilinearForm(*form) for name, form in conftest.NON_GENERIC_FORMS.items()}
    forms["e2xe2xe2"] = MultilinearForm((2, 2, 2), [0, 0, 0, 0, 0, 0, 0, 1])
    states = {name: DensityState(2, 2, Matrix.from_array(np.array(getattr(conftest, name))))
              for name in ("STATE_SEPARABLE", "STATE_ENTANGLED", "STATE_PURE_PRODUCT")}
    for method in ("power", "algebraic"):
        for name, form in forms.items():
            if form.order == 2:
                matrix = Matrix.from_array(form.tensor)
                yield f"matrix_norm2 {method} {name}", _call(
                    apps.matrix_norm2, matrix, method=method)
            yield f"closest_rank_one {method} {name}", _rank_one(
                _call(apps.closest_rank_one, form, method=method))
        for name, state in states.items():
            yield f"separable_max {method} {name}", _call(
                apps.separable_max, state, method=method)


def main():
    warnings.simplefilter("error", RuntimeWarning)
    totals = {key: hashlib.sha256() for key in ("total", "total exact", "total power")}
    counts = dict.fromkeys(totals, 0)
    for part, group in (("total power", power_cases), ("total power", scaled_cases),
                        ("total exact", exact_cases), ("total", app_cases)):
        for name, obj in group():
            digest = _digest(obj)
            for key in dict.fromkeys(("total", part)):
                totals[key].update(f"{name}:{digest}\n".encode())
                counts[key] += 1
            print(f"{digest[:16]}  {name}")
    for key, h in totals.items():
        print(f"{key} {h.hexdigest()} over {counts[key]} cases")


if __name__ == "__main__":
    main()
