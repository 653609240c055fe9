"""Exact counting of fixed points of multihomogeneous self-maps of
P^{n_1} x ... x P^{n_k}, hence of classes of extreme points (singular vector
tuples) of a generic multilinear form.

Arithmetic happens in the truncated integer polynomial ring
Z[a_1, ..., a_k] / (a_1^{n_1+1}, ..., a_k^{n_k+1}): the Chow ring of the
product of projective spaces, whose elements are held as dicts from exponent
tuples (e_1, ..., e_k), e_i <= n_i, to integers.  The number of fixed points
of a map with multidegree matrix (d_ij) is the coefficient of
a_1^{n_1} ... a_k^{n_k} in

    prod_j  sum_{i=0}^{n_j} (d_j1 a_1 + ... + d_jk a_k)^{n_j - i} a_j^i

(the product over j of the graph-times-diagonal contributions; the triple sum
of the counting theorem factors slot by slot).  Everything is exact integer
arithmetic; the convention d^0 = 1 holds even for d = 0, so a constant map
has one fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatchError, integers


@dataclass(frozen=True)
class MultidegreeProfile:
    """Dimensions (n_1..n_k) of the projective factors and the k x k
    multidegree matrix of the self-map (row j = multidegree of F_j)."""

    dims: tuple
    degrees: tuple

    def __post_init__(self):
        dims = integers(self.dims, "factor dims")
        degs = tuple(integers(row, "multidegrees") for row in self.degrees)
        k = len(dims)
        if any(n < 0 for n in dims):
            raise DimensionMismatchError(f"factor dims must be >= 0, got {dims}")
        if len(degs) != k or any(len(row) != k for row in degs):
            raise DimensionMismatchError(
                f"degree matrix must be {k}x{k} for dims {dims}"
            )
        if any(d < 0 for row in degs for d in row):
            raise DimensionMismatchError("multidegrees must be nonnegative")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "degrees", degs)

    @property
    def k(self) -> int:
        return len(self.dims)


def _product(a: dict, b: dict, dims) -> dict:
    """Product in the truncated ring; exponents exceeding n_i are dropped."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= n for x, n in zip(e, dims)):
                out[e] = out.get(e, 0) + ca * cb
    return out


def count_fixed_points(profile: MultidegreeProfile) -> int:
    """Number of fixed points (over C) of a generic self-map with the given
    multidegree profile."""
    dims = profile.dims
    k = profile.k

    def monomial(j, e):  # a_j^e
        return tuple(e if i == j else 0 for i in range(k))

    total = {(0,) * k: 1}
    for j, row in enumerate(profile.degrees):
        linear = {monomial(l, 1): d for l, d in enumerate(row) if d}
        # G_j = sum_{i=0}^{n_j} linear^{n_j - i} a_j^i by Horner's rule:
        # G <- G * linear + a_j^m for m = 1, ..., n_j
        gj = {(0,) * k: 1}
        for m in range(1, dims[j] + 1):
            gj = _product(gj, linear, dims)
            e = monomial(j, m)
            gj[e] = gj.get(e, 0) + 1
        total = _product(total, gj, dims)
    return total.get(dims, 0)


def gradient_profile(form_dims) -> MultidegreeProfile:
    """Multidegree profile of the gradient self-map of a generic multilinear
    form with slot dimensions form_dims = (n_1+1, ..., n_r+1): row i is 0 in
    position i and 1 elsewhere."""
    dims = tuple(d - 1 for d in integers(form_dims, "slot dims"))
    k = len(dims)
    degrees = tuple(
        tuple(0 if l == j else 1 for l in range(k)) for j in range(k)
    )
    return MultidegreeProfile(dims=dims, degrees=degrees)


def count_extreme_classes(form_dims) -> int:
    """Number of classes of extreme points (singular vector tuples, over C)
    of a generic multilinear form with the given slot dimensions.

    For a non-generic form with finitely many extreme classes this is an
    upper bound, not the exact count.
    """
    form_dims = integers(form_dims, "slot dims")
    if len(form_dims) < 2:
        raise DimensionMismatchError("need at least two slots")
    if any(d < 1 for d in form_dims):
        raise DimensionMismatchError(f"slot dims must be positive, got {form_dims}")
    return count_fixed_points(gradient_profile(form_dims))
