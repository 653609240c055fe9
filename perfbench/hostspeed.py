"""Reading times at a fixed reference speed of the host.

On a shared VM the same call drifts by 20% and more over tens of seconds,
with nothing else in this process changing: the host's other tenants take
cache, memory bandwidth and clock from it.  A run of 25 s cannot average
that out.  So every op of an untraced pass is preceded by ``calibration()``,
a few fixed loops of the benchmark's own, one per kind of work the library
does (growing exact rationals, sparse polynomials in dicts, plain integer
arithmetic, small numpy contractions, large lists and dicts).  An op's
latency is multiplied by the host's speed around it: the geometric mean,
over the loops, of the loop's reference time over its median time in the
samples of the ops next to it.  The loops never call the library, so a
change to the library moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

# Typical median time of each loop, run between ops, on the 2-core x86_64
# VM the bounds were set on: scaled times read as they would there.
REFERENCE_S = {
    "rationals": 1.2e-3,
    "polynomials": 1.3e-3,
    "integers": 1.1e-3,
    "numpy": 1.3e-3,
    "containers": 1.7e-3,
}
# An op's speed comes from the samples of the WINDOW ops before it, its own,
# and the WINDOW ops after it.
WINDOW = 2


def _rationals():
    acc, table = Fraction(1, 3), {}
    for k in range(1, 200):
        acc = acc * Fraction(k + 7, k + 3) - Fraction(k, 11)
        table[k % 17, k % 5] = acc


def _polynomials():
    a = {(i, j, k): Fraction(7 * i + j - k, 3 + i + j)
         for i in range(6) for j in range(6) for k in range(2)}
    b = dict.fromkeys(a, Fraction(1, 2))
    for r in range(4):
        c = Fraction(r + 2, 5)
        a, b = {m: v * c - b.get(m, 0) for m, v in a.items()}, a


def _integers():
    x = 1
    for k in range(12000):
        x = (x * 31 + k) % 1000003


_TENSOR = np.arange(36.0).reshape(3, 3, 4)
_VEC = np.ones(4)


def _numpy():
    for _ in range(100):
        np.tensordot(_TENSOR, _VEC, axes=(2, 0)).sum()


def _containers():
    keys = list(range(12000, 0, -1))
    rank = {k: -k for k in keys}
    sorted(keys, key=rank.get)


LOOPS = {
    "rationals": _rationals,
    "polynomials": _polynomials,
    "integers": _integers,
    "numpy": _numpy,
    "containers": _containers,
}


def calibration():
    """Time each loop once: a tuple in the order of REFERENCE_S."""
    out = []
    for name in REFERENCE_S:
        t0 = time.perf_counter()
        LOOPS[name]()
        out.append(time.perf_counter() - t0)
    return tuple(out)


def relative_speed(samples):
    """The host's speed over ``samples`` (rows of calibration() times),
    relative to the reference: above 1 when it runs faster."""
    local = np.median(np.asarray(samples), axis=0)
    ref = np.array(list(REFERENCE_S.values()))
    return math.exp(float(np.mean(np.log(ref / local))))


def scaled_latencies(latencies, samples):
    """Each latency times the speed of the host around it."""
    n = len(latencies)
    return np.array([latencies[i] * relative_speed(samples[max(0, i - WINDOW):i + WINDOW + 1])
                     for i in range(n)])
