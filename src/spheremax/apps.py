"""Applications of the sphere-product maximizer.

Three consumers of the solver modules: the matrix 2-norm (first singular
value as the maximum of the bilinear form x^T A y), the closest unit rank-one
tensor (from the argmax of |l|), and the separable-state maximum for a
bipartite density matrix with its one-sided entanglement criterion.

All three take the maximum from one place (``_maximum``).  Its power method
is ``bilinear_max`` for r = 2 and, for r >= 3, a multistart of the monotone
Gauss-Seidel ascent finished by batched Newton steps (``poweriter._ascend``,
its starts one draw from the seed): the applications need only the
maximum, and the paper's joint iteration typically oscillates there.  Its
algebraic method is ``algsolver._exact_max``, the rule ``maximize`` follows
too, whose first point backs its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algsolver, multiform, poweriter
from .errors import NoConvergenceError, NotAStateError, integers
from .linalg import Matrix
from .multiform import MultilinearForm, RankOneForm

_EIGENVALUE_DROP = 1e-12
_ENTANGLEMENT_MARGIN = 1e-9
_DIGITS = 12           # significant digits of the separability form's grid
_UNCERTIFIED_VERDICT = (
    "entangled verdict not certified: the power method's separable maximum "
    "is a lower bound"
)
_METHODS = ("algebraic", "power", "auto")


@dataclass(frozen=True)
class DensityState:
    """Real symmetric PSD matrix with unit trace on a bipartite space."""

    dim_a: int
    dim_b: int
    matrix: Matrix

    def __post_init__(self):
        da, db = integers((self.dim_a, self.dim_b), "factor dimensions", NotAStateError)
        if da < 1 or db < 1:
            raise NotAStateError(f"factor dimensions must be positive, got {da}x{db}")
        n = da * db
        if self.matrix.rows != n or self.matrix.cols != n:
            raise NotAStateError(
                f"state matrix must be {n}x{n} for factors {da}x{db}, "
                f"got {self.matrix.rows}x{self.matrix.cols}"
            )
        a = self.matrix.array
        if not np.isfinite(a).all():  # every check below is False on NaN
            raise NotAStateError("state matrix has a non-finite entry")
        if float(np.abs(a - a.T).max(initial=0.0)) > 1e-10:
            raise NotAStateError("state matrix is not symmetric within 1e-10")
        if float(np.linalg.eigvalsh(0.5 * (a + a.T)).min()) < -1e-10:
            raise NotAStateError("state matrix has an eigenvalue below -1e-10")
        if abs(float(np.trace(a)) - 1.0) > 1e-10:
            raise NotAStateError(f"state trace {float(np.trace(a))} is not 1 within 1e-10")
        object.__setattr__(self, "dim_a", da)
        object.__setattr__(self, "dim_b", db)


@dataclass(frozen=True)
class RankOneApproximation:
    """Closest unit rank-one form to l: factors, l at the factors, distance,
    and the algebraic solve's genericity flags (none for the power method)."""

    factors: RankOneForm
    max_value: float
    distance: float
    flags: tuple


@dataclass(frozen=True)
class EntanglementReport:
    verdict: str            # "entangled" | "separable-consistent"
    self_overlap: float     # <rho, rho>
    sep_max: float          # max over product states of <rho, xx^T (x) yy^T>
    flags: tuple            # the algebraic solve's genericity flags; for power,
                            # one flag on an "entangled" verdict


def _resolve_method(method: str, order: int) -> str:
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if method == "auto":
        return "power" if order == 2 else "algebraic"
    return method


def _maximum(form: MultilinearForm, method: str, seed: int):
    """(point, value, flags): a point where |l| is largest over the product
    of spheres, the maximum, and the algebraic solve's genericity flags (()
    for power).  The power method runs bilinear_max for r = 2 and otherwise
    the best of poweriter._ASCENTS Gauss-Seidel ascents, each finished by
    Newton's method once near its end and drawn from one generator seeded
    with ``seed``, and raises NoConvergenceError when that run did not
    converge: its value is then not the maximum.  The algebraic method is
    algsolver._exact_max."""
    if _resolve_method(method, form.order) == "power":
        if form.order == 2:
            result = poweriter.bilinear_max(form, seed=seed)
        else:
            result = poweriter._ascend(form, seed, poweriter._ASCENTS)
        if result.status is poweriter.Status.NON_CONVERGED:
            raise NoConvergenceError(
                f"power iteration did not converge in {result.iterations} iterations "
                f"(residual {result.residual:.3e})"
            )
        return result.point, result.value, ()
    _, report = algsolver._exact_max(form, seed)
    return report.points[0].vectors, report.max_value, report.genericity_flags


def matrix_norm2(a: Matrix, method: str = "auto", seed: int = 0) -> float:
    """First singular value of a, as the maximum of x^T a y over unit x, y.
    Raises NoConvergenceError when the power method does not converge."""
    _resolve_method(method, 2)  # a bad method raises on the zero matrix too
    entries = a.array
    if not np.any(entries):
        return 0.0
    form = MultilinearForm(dims=(a.rows, a.cols), coeffs=entries.reshape(-1))
    return _maximum(form, method, seed)[1]


def closest_rank_one(
    form: MultilinearForm, method: str = "auto", seed: int = 0
) -> RankOneApproximation:
    """Closest unit rank-one form phi = <x_1 (x) ... (x) x_r, -> to l.

    The factors are _maximum's argmax of |l| over the product of spheres,
    with signs arranged so l(factors) = +max_value; then ||l - phi||^2 =
    ||l||^2 + 1 - 2*max_value.  For the power method that point is
    bilinear_max's (r = 2) or the best Gauss-Seidel ascent's (r >= 3), and
    one that did not converge raises NoConvergenceError; for the algebraic
    method it is the first point of algsolver._exact_max, which backs its
    value on either chart.
    """
    if not np.any(form.coeffs):
        raise ValueError("closest_rank_one needs a nonzero form")
    point, _, flags = _maximum(form, method, seed)
    vectors = [np.asarray(v, dtype=float) for v in point]
    value = multiform.evaluate(form, vectors)
    if value < 0.0:
        vectors[-1] = -vectors[-1]
        value = -value
    norm_sq = multiform.form_norm(form) ** 2
    distance_sq = max(norm_sq + 1.0 - 2.0 * value, 0.0)
    return RankOneApproximation(
        factors=RankOneForm(factors=tuple(vectors)),
        max_value=float(value),
        distance=math.sqrt(distance_sq),
        flags=flags,
    )


def _round_significant(values: np.ndarray) -> np.ndarray:
    """Round the entries onto one decimal grid n * 10^e, with e set so that
    the largest |entry| keeps _DIGITS = 12 significant digits: e =
    floor(log10 max|c|) - 11, n an integer with |n| <= 10^12.

    Each entry is the float written "{n}e{e}", so its repr is n * 10^e and
    ``algsolver.rationalize`` reads it as n / 10^-e: the exact solve gets
    integers of at most 40 bits over one power of ten, not the 17-digit
    repr of a float rounded in binary.  Each entry moves by at most
    10^e / 2 <= 5e-12 max|c|.
    """
    e = math.floor(math.log10(np.abs(values).max())) - (_DIGITS - 1)
    return np.array([float(f"{round(c / 10.0 ** e)}e{e}") for c in values.tolist()])


def _separability_form(rho: DensityState) -> MultilinearForm:
    """The trilinear form l(x, y, z) = sum_i sqrt(lam_i) <v_i, x (x) y> z_i
    from the spectral decomposition rho = sum_i lam_i v_i v_i^T, with z in
    the eigenbasis of rho: the z slot has one coordinate per eigenvalue
    kept, so its dimension is the rank of rho.

    Its maximum over the three spheres is the square root of the separable
    maximum max over product states of <rho, xx^T (x) yy^T>.

    The coefficients lie on one 12-digit decimal grid (_round_significant),
    which keeps the exact solve's rationals small.  Each of the N
    coefficients moves by at most 10^e / 2, so the maximum l_max of the form
    moves by at most 10^e sqrt(N) / 2 (the spectral norm of the change is at
    most its Frobenius norm), and the separable maximum l_max^2 by about
    twice l_max times that.
    """
    a = rho.matrix.array
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))  # DensityState checked symmetry
    keep = np.argsort(-vals)
    keep = keep[vals[keep] >= _EIGENVALUE_DROP]  # never empty: the trace is 1
    tensor = vecs[:, keep] * np.sqrt(vals[keep])
    coeffs = _round_significant(tensor.reshape(-1))
    return MultilinearForm(dims=(rho.dim_a, rho.dim_b, keep.size), coeffs=coeffs)


def separable_max(rho: DensityState, method: str = "auto", seed: int = 0) -> float:
    """max over product states xx^T (x) yy^T of <rho, ->, the separability
    bound: <rho, rho> <= separable_max(rho) whenever rho is separable.  It
    is the square of _maximum's value on the separability form: for the
    power method the best of poweriter._ASCENTS Gauss-Seidel ascents
    finished by Newton steps, which raises NoConvergenceError when it did
    not converge, and for the algebraic method algsolver._exact_max."""
    return _maximum(_separability_form(rho), method, seed)[1] ** 2


def self_overlap(rho: DensityState) -> float:
    """<rho, rho> = trace(rho^2)."""
    a = rho.matrix.array
    return float(np.sum(a * a))


def entanglement_check(
    rho: DensityState, method: str = "auto", seed: int = 0
) -> EntanglementReport:
    """One-sided criterion: a separable state satisfies
    <rho, rho> <= separable_max(rho).  A violation certifies entanglement;
    the converse is never claimed ("separable-consistent").  The power
    method's separable maximum is a lower bound, so its "entangled" verdict
    is not certified and carries a flag saying so."""
    overlap = self_overlap(rho)
    _, value, flags = _maximum(_separability_form(rho), method, seed)
    sep = value ** 2
    verdict = "entangled" if overlap > sep + _ENTANGLEMENT_MARGIN else "separable-consistent"
    if verdict == "entangled" and _resolve_method(method, 3) == "power":
        flags = (_UNCERTIFIED_VERDICT,)
    return EntanglementReport(verdict=verdict, self_overlap=overlap, sep_max=sep, flags=flags)
