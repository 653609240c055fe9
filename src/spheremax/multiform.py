"""Dense multilinear forms and maps.

A multilinear form ``l : R^{d_1} x ... x R^{d_r} -> R`` is stored as a dense
coefficient tensor, flat and row-major in slot order (slot 1 slowest).
Evaluation, slot-wise gradients, flattening of vector-valued maps and the
tensor-space inner product all live here, as does the batched check of a
block of points (value and fixed-point residual, one ``np.einsum`` per
slot) that the power kernels and ``algsolver.solve_argmax`` share, and
the unit scale every solver runs at (``_scaled``).  Everything is plain
64-bit floating point; exact arithmetic is the business of :mod:`.algsolver`.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, integers


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(-1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MultilinearForm:
    """A real multilinear form given by its dense coefficient tensor.

    ``dims`` lists the ambient dimension of each slot and ``coeffs`` holds
    ``prod(dims)`` coefficients, row-major with slot 1 slowest.  A dim that
    is not a positive integer raises DimensionMismatchError, a coefficient
    that is NaN or infinite ValueError.
    """

    dims: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        dims = integers(self.dims, "dims")
        if not dims or any(d < 1 for d in dims):
            raise DimensionMismatchError(f"dims must be positive, got {dims}")
        coeffs = _frozen_array(self.coeffs)
        if coeffs.size != math.prod(dims):
            raise DimensionMismatchError(
                f"coeffs length {coeffs.size} != prod(dims) {math.prod(dims)}"
            )
        if not np.isfinite(coeffs).all():
            raise ValueError("coeffs must be finite, got NaN or infinity")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        """Number of slots r."""
        return len(self.dims)

    @property
    def tensor(self) -> np.ndarray:
        """Coefficients reshaped to ``dims`` (read-only view)."""
        return self.coeffs.reshape(self.dims)


@dataclass(frozen=True)
class MultilinearMap:
    """A multilinear map into R^{codomainDim}, one component form per output
    coordinate.  All component forms must share ``domain_dims``."""

    domain_dims: tuple
    codomain_dim: int
    component_forms: tuple

    def __post_init__(self):
        dims = integers(self.domain_dims, "domain dims")
        (codomain_dim,) = integers((self.codomain_dim,), "codomain dim")
        comps = tuple(self.component_forms)
        if len(comps) != codomain_dim:
            raise DimensionMismatchError(
                f"expected {codomain_dim} component forms, got {len(comps)}"
            )
        for f in comps:
            if f.dims != dims:
                raise DimensionMismatchError(
                    f"component form dims {f.dims} != domain dims {dims}"
                )
        object.__setattr__(self, "domain_dims", dims)
        object.__setattr__(self, "codomain_dim", codomain_dim)
        object.__setattr__(self, "component_forms", comps)


@dataclass(frozen=True)
class RankOneForm:
    """A product of linear forms; its value is prod_i <factor_i, x_i>."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple(_frozen_array(f) for f in self.factors)
        )

    @property
    def dims(self) -> tuple:
        return tuple(f.size for f in self.factors)


def _check_points(form_dims, points) -> list:
    vecs = [np.asarray(p, dtype=float).reshape(-1) for p in points]
    if len(vecs) != len(form_dims):
        raise DimensionMismatchError(
            f"expected {len(form_dims)} vectors, got {len(vecs)}"
        )
    for i, (v, d) in enumerate(zip(vecs, form_dims)):
        if v.size != d:
            raise DimensionMismatchError(
                f"slot {i + 1}: vector length {v.size} != dim {d}"
            )
    return vecs


def evaluate(form: MultilinearForm, points: Sequence) -> float:
    """Contract the coefficient tensor against one vector per slot."""
    vecs = _check_points(form.dims, points)
    t = form.tensor
    for i in range(len(vecs) - 1, -1, -1):
        t = np.tensordot(t, vecs[i], axes=(i, 0))
    return float(t)

def partial_gradient(form: MultilinearForm, slot: int, points: Sequence) -> np.ndarray:
    """Gradient of the form w.r.t. the vector in ``slot`` (0-based).

    Component i equals the value of the form with that slot's vector replaced
    by the i-th canonical basis vector; the result does not depend on
    ``points[slot]``.
    """
    if not 0 <= slot < form.order:
        raise DimensionMismatchError(f"slot {slot} out of range 0..{form.order - 1}")
    vecs = _check_points(form.dims, points)
    t = form.tensor
    for i in range(len(vecs) - 1, -1, -1):
        if i == slot:
            continue
        t = np.tensordot(t, vecs[i], axes=(i, 0))
    return np.asarray(t, dtype=float).reshape(-1)


def gradient(form: MultilinearForm, points: Sequence) -> list:
    """All slot gradients at once."""
    return [partial_gradient(form, i, points) for i in range(form.order)]


# ---------------------------------------------------------------------------
# blocks of points: one (B, d_i) array of rows per slot, one row per point
# ---------------------------------------------------------------------------

def _subscripts(order):
    """einsum subscripts of each slot's partial gradient over a block of
    points, batch axis b: 'acd,bc,bd->ba' is slot 0 of a trilinear form."""
    axes = string.ascii_letters.replace("b", "")[:order]
    return [
        axes + "".join(",b" + c for c in axes[:i] + axes[i + 1 :]) + "->b" + axes[i]
        for i in range(order)
    ]


def _pair_subscripts(order):
    """einsum subscripts of each block (i, j), i < j in the order of
    ``itertools.combinations``, of l's Hessian over a block of points:
    'acd,bd->bac' is block (0, 1) of a trilinear form.  A bilinear form's
    one block, 'ac->ac', is its coefficient matrix, the same for every row."""
    axes = string.ascii_letters.replace("b", "")[:order]
    subs = []
    for i, j in itertools.combinations(range(order), 2):
        rest = [c for k, c in enumerate(axes) if k not in (i, j)]
        subs.append(axes + "".join(",b" + c for c in rest) + "->"
                    + "b" * bool(rest) + axes[i] + axes[j])
    return subs


def _partial(t, subs, slots, i, out=None):
    return np.einsum(subs[i], t, *slots[:i], *slots[i + 1 :], out=out)


def _row_dots(a, b):
    return np.einsum("bn,bn->b", a, b)


def _row_norms(a):
    return np.sqrt(_row_dots(a, a))


def _scaled(form):
    """The form every solver runs on, t 2^-k with max |c| 2^-k in [0.5, 1),
    and k: exact, so a tolerance in its units is relative to t's scale."""
    k = math.frexp(float(np.abs(form.coeffs).max()))[1]
    return MultilinearForm(form.dims, np.ldexp(form.coeffs, -k)), k


def _assess(t, subs, slots, grads=None):
    """l (by the Euler identity) and the fixed-point residual of each row
    of a block of points on the spheres; ``grads``, when given, are the
    slots' partial gradients there."""
    if grads is None:
        grads = [_partial(t, subs, slots, i) for i in range(len(slots))]
    value = _row_dots(grads[0], slots[0])
    residual = np.max(
        [_row_norms(g - value[:, None] * s) for g, s in zip(grads, slots)], axis=0
    )
    return value, residual


def flatten(mlmap: MultilinearMap) -> MultilinearForm:
    """Flatten a vector-valued map into the (r+1)-linear form
    ``(x_1, ..., x_r, y) -> <map(x_1, ..., x_r), y>``.

    The maximum of ``||map||`` over the domain spheres equals the maximum of
    the flattened form's absolute value over all r+1 spheres.
    """
    stacked = np.stack([f.tensor for f in mlmap.component_forms], axis=-1)
    return MultilinearForm(
        dims=mlmap.domain_dims + (mlmap.codomain_dim,), coeffs=stacked.reshape(-1)
    )


def form_inner(a: MultilinearForm, b: MultilinearForm) -> float:
    """Euclidean inner product of the coefficient tensors."""
    if a.dims != b.dims:
        raise DimensionMismatchError(f"dims {a.dims} != {b.dims}")
    return float(np.dot(a.coeffs, b.coeffs))


def form_norm(form: MultilinearForm) -> float:
    return float(np.linalg.norm(form.coeffs))


def rank_one_to_form(r1: RankOneForm) -> MultilinearForm:
    """Outer product of the factors as a dense form."""
    t = np.array(1.0)
    for f in r1.factors:
        t = np.multiply.outer(t, f)
    return MultilinearForm(dims=r1.dims, coeffs=t.reshape(-1))


def canonical_signs(rows) -> np.ndarray:
    """Flip each row of a 2-d array so its first nonzero entry is positive.
    Extreme points come in sign classes (+-x_1, ..., +-x_r); this picks a
    deterministic representative of each slot's vectors."""
    rows = np.asarray(rows, dtype=float)
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0.0, axis=1)]
    return rows * np.where(lead < 0.0, -1.0, 1.0)[:, None]
