"""Spans around the public calls of each spheremax layer.

The traced run replaces public module attributes (``algsolver.groebner``,
``multiform.gradient``, ``cli.main``, ...) with timing wrappers and restores
them afterwards.  Library code calls these through its module namespace, so
the wrappers also see the stages inside ``solve_max`` and ``solve_argmax``
without any change to the library.

Each span is a name, start, end, parent span and op id, kept in flat arrays
while the pass runs and written out when it ends.  Per-span results that the
layer metrics need (basis sizes, quotient dimensions, iteration statuses) are
noted by small observers attached to the wrappers.
"""

from __future__ import annotations

import time
import weakref
from array import array

import numpy as np


class Tracer:
    """In-memory span recorder.  ``install`` builds the wrappers; ``enable``
    and ``disable`` swap them in and out of the library's namespaces."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack = [-1]
        self._patched = []
        self.notes = {}  # span index -> observer output

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr, name, observe=None):
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name``.  ``observe(args, kwargs, result)`` may return a note kept
        with the span; it runs after the span has ended."""
        original = getattr(owner, attr)
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                tracer.notes[idx] = observe(args, kwargs, result)
            return result

        self._patched.append((owner, attr, original, traced))

    def enable(self):
        for owner, attr, _, traced in self._patched:
            setattr(owner, attr, traced)

    def disable(self):
        for owner, attr, original, _ in self._patched:
            setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays (name ids, start, end, parent, op)."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.op, dtype=np.int32),
        )

    def save(self, path, env):
        name, start, end, parent, op = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start=start,
            end=end, parent=parent, op=op, env=np.array(repr(env)),
        )


def install(tracer, sm):
    """Build wrappers for the public calls of every layer.  ``sm`` is the
    imported ``spheremax`` package; its submodules are reached through it."""
    alg, pw, mf, apps, cli = sm.algsolver, sm.poweriter, sm.multiform, sm.apps, sm.cli
    ring_seen = weakref.WeakKeyDictionary()

    def ring_reductions(args, kwargs, result):
        ring = args[0]
        used = ring.budget.used
        delta = used - ring_seen.get(ring, 0)
        ring_seen[ring] = used
        return delta

    def basis(args, kwargs, result):
        return result

    def quotient(args, kwargs, result):
        gb = args[0] if args else kwargs["gb"]
        return len(result), slot_dims(gb.variables)

    def report(args, kwargs, result):
        return len(result.points), result.quotient_dim, len(result.genericity_flags)

    def iteration(args, kwargs, result):
        form = args[0] if args else kwargs["form"]
        return form.order, result.iterations, result.status.value

    tracer.wrap(alg, "build_critical_system", "algsolver.build_critical_system")
    tracer.wrap(alg, "groebner", "algsolver.groebner", basis)
    tracer.wrap(alg, "normal_set", "algsolver.normal_set", quotient)
    tracer.wrap(alg, "mult_matrix", "algsolver.mult_matrix")
    tracer.wrap(alg.QuotientRing, "mult_matrix_exact", "algsolver.mult_matrix_exact",
                ring_reductions)
    tracer.wrap(alg, "solve_max", "algsolver.solve_max", report)
    tracer.wrap(alg, "solve_argmax", "algsolver.solve_argmax", report)
    tracer.wrap(mf, "gradient", "multiform.gradient")
    tracer.wrap(mf, "partial_gradient", "multiform.partial_gradient")
    tracer.wrap(mf, "evaluate", "multiform.evaluate")
    tracer.wrap(pw, "bilinear_max", "poweriter.bilinear_max", iteration)
    tracer.wrap(pw, "multilinear_iterate", "poweriter.multilinear_iterate", iteration)
    tracer.wrap(apps, "entanglement_check", "apps.entanglement_check")
    tracer.wrap(apps, "separable_max", "apps.separable_max")
    tracer.wrap(cli, "main", "cli.main")


def quotient_ratios(tracer, classes_of):
    """Quotient dimension over exact class count, per slot shape."""
    nid = tracer.names.index("algsolver.normal_set")
    out = {}
    for i, name in enumerate(tracer.name):
        if name == nid:
            q, dims = tracer.notes[i]
            out["x".join(map(str, dims))] = q / classes_of(dims)
    return out


def slot_dims(variables):
    """Slot dimensions from variable names like x1, x2, y1, ...: one slot
    per leading letter, in order."""
    dims = []
    last = None
    for v in variables:
        if v[0] != last:
            dims.append(0)
            last = v[0]
        dims[-1] += 1
    return tuple(dims)


def coeff_bits(gb):
    """Largest numerator or denominator bit length in a Groebner basis."""
    bits = 0
    for p in gb.basis:
        for c in p.terms.values():
            bits = max(bits, int(c.numerator).bit_length(), int(c.denominator).bit_length())
    return bits


def layer_metrics(tracer, n_ops, op_seconds, window_ops, classes_of, hits):
    """Per-layer metrics of one traced pass.

    n_ops: ops attempted; op_seconds: summed op latencies; window_ops: ops
    whose Groebner bases feed the exact counts (the first cycle, which is
    the whole input pool, so the counts repeat); classes_of(dims): exact
    class count;
    hits: (reached, total) over r>=3 power ops with a reference maximum.
    """
    name, start, end, parent, op = tracer.arrays()
    names = tracer.names
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    ids = {n: i for i, n in enumerate(names)}

    def mask(span):
        nid = ids.get(span)
        return np.zeros(len(dur), bool) if nid is None else name == nid

    def total(span):
        return float(dur[mask(span)].sum())

    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    in_layer = {}
    for lay in ("algsolver", "poweriter", "multiform", "apps", "cli"):
        lm = np.zeros(len(dur), bool)
        for n, i in ids.items():
            if n.startswith(lay + "."):
                lm |= name == i
        in_layer[lay] = lm

    per_op = max(n_ops, 1)
    out = {}
    notes = tracer.notes

    # algsolver
    gb_idx = np.flatnonzero(mask("algsolver.groebner"))
    window_gbs = [notes[i] for i in gb_idx if op[i] < window_ops]
    out["algsolver.groebner_s"] = total("algsolver.groebner") / per_op
    out["algsolver.groebner_share"] = total("algsolver.groebner") / op_seconds if op_seconds else 0.0
    out["algsolver.peak_coeff_bits"] = max((coeff_bits(g) for g in window_gbs), default=0)
    out["algsolver.basis_size"] = (
        float(np.mean([len(g.basis) for g in window_gbs])) if window_gbs else 0.0
    )
    mm = mask("algsolver.mult_matrix")
    mme = mask("algsolver.mult_matrix_exact")
    mm_id = ids.get("algsolver.mult_matrix", -2)
    out["algsolver.mult_matrix_s"] = (
        float(dur[mm].sum()) + float(dur[mme & (parent_name != mm_id)].sum())
    ) / per_op
    out["algsolver.ring_reductions"] = (
        sum(notes[i] for i in np.flatnonzero(mme)) / per_op
    )
    ratios = [q / classes_of(dims) for q, dims in
              (notes[i] for i in np.flatnonzero(mask("algsolver.normal_set")))]
    out["algsolver.quotient_over_classes"] = float(np.mean(ratios)) if ratios else 0.0
    out["algsolver.build_critical_system_s"] = total("algsolver.build_critical_system") / per_op
    out["algsolver.normal_set_s"] = total("algsolver.normal_set") / per_op
    solves = mask("algsolver.solve_max") | mask("algsolver.solve_argmax")
    out["algsolver.solve_self_s"] = float(self_time[solves].sum()) / per_op
    argmax = [notes[i] for i in np.flatnonzero(mask("algsolver.solve_argmax"))]
    out["algsolver.points_over_quotient"] = (
        float(np.mean([p / q for p, q, _ in argmax if q])) if argmax else 0.0
    )
    solve_notes = [notes[i] for i in np.flatnonzero(solves)]
    out["algsolver.flags_per_solve"] = (
        float(np.mean([f for _, _, f in solve_notes])) if solve_notes else 0.0
    )
    out["algsolver.spans"] = int(in_layer["algsolver"].sum()) / per_op

    # multiform
    for fn in ("gradient", "partial_gradient"):
        m = mask(f"multiform.{fn}")
        calls = int(m.sum())
        out[f"multiform.{fn}_calls"] = calls / per_op
        out[f"multiform.{fn}_us"] = float(dur[m].sum()) / calls * 1e6 if calls else 0.0

    # poweriter
    pw = in_layer["poweriter"]
    pw_top = pw & ~np.isin(parent_name, [ids[n] for n in ids if n.startswith("poweriter.")])
    out["poweriter.busy_s"] = float(dur[pw_top].sum()) / per_op
    iters = [notes[i] for i in np.flatnonzero(pw)]
    total_iters = sum(it for _, it, _ in iters)
    out["poweriter.iterations"] = total_iters / len(iters) if iters else 0.0
    under_pw = np.zeros(len(dur), bool)
    for i in range(len(dur)):  # parents precede children
        p = parent[i]
        if p >= 0:
            under_pw[i] = pw[p] or under_pw[p]
    grad_in_pw = int((mask("multiform.gradient") & under_pw).sum())
    out["poweriter.gradient_calls_per_iteration"] = (
        grad_in_pw / total_iters if total_iters else 0.0
    )
    high = [status for order, _, status in iters if order >= 3]
    for key, status in (("converged", "converged"), ("oscillating", "oscillating"),
                        ("nonconverged", "non-converged")):
        out[f"poweriter.{key}_frac"] = (
            sum(s == status for s in high) / len(high) if high else 0.0
        )
    reached, with_ref = hits
    out["poweriter.hit_frac"] = reached / with_ref if with_ref else 0.0
    out["poweriter.spans"] = int(pw.sum()) / per_op

    # apps and cli: time minus solver children
    out["apps.self_s"] = float(self_time[in_layer["apps"]].sum()) / per_op
    out["cli.self_s"] = float(self_time[in_layer["cli"]].sum()) / per_op
    return out
