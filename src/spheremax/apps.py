"""Applications of the sphere-product maximizer.

Three consumers of the solver modules: the matrix 2-norm (first singular
value as the maximum of the bilinear form x^T A y), the closest unit rank-one
tensor (from the argmax of |l|), and the separable-state maximum for a
bipartite density matrix with its one-sided entanglement criterion.

The power method of the two r >= 3 applications is a multistart of the
monotone Gauss-Seidel ascent (``poweriter._ascend``): they need only the
maximum, and the paper's joint iteration typically oscillates there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algsolver, multiform, poweriter
from .errors import NoConvergenceError, NotAStateError, PreconditionViolatedError
from .linalg import Matrix
from .multiform import MultilinearForm, RankOneForm

_EIGENVALUE_DROP = 1e-12
_ENTANGLEMENT_MARGIN = 1e-9
_UNCERTIFIED_VERDICT = (
    "entangled verdict not certified: the power method's separable maximum "
    "is a lower bound"
)
_METHODS = ("algebraic", "power", "auto")
# Gauss-Seidel starts of the r >= 3 power method: its maximum need not
# attract every start
_ASCENTS = 48


@dataclass(frozen=True)
class DensityState:
    """Real symmetric PSD matrix with unit trace on a bipartite space."""

    dim_a: int
    dim_b: int
    matrix: Matrix

    def __post_init__(self):
        da, db = int(self.dim_a), int(self.dim_b)
        if da < 1 or db < 1:
            raise NotAStateError(f"factor dimensions must be positive, got {da}x{db}")
        n = da * db
        if self.matrix.rows != n or self.matrix.cols != n:
            raise NotAStateError(
                f"state matrix must be {n}x{n} for factors {da}x{db}, "
                f"got {self.matrix.rows}x{self.matrix.cols}"
            )
        a = self.matrix.array
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


def _converged(result: poweriter.IterationResult) -> poweriter.IterationResult:
    """The power result, or NoConvergenceError when the run ended without
    converging: the value of such a run is not the maximum."""
    if result.status is poweriter.Status.NON_CONVERGED:
        raise NoConvergenceError(
            f"power iteration did not converge in {result.iterations} iterations "
            f"(residual {result.residual:.3e})"
        )
    return result


def _argmax(form: MultilinearForm, seed: int) -> algsolver.SolveReport:
    """solve_argmax's report; PreconditionViolatedError if it has no point."""
    report = algsolver.solve_argmax(form, seed=seed)
    if not report.points:
        raise PreconditionViolatedError(
            "no real critical point recovered: " + "; ".join(report.genericity_flags)
        )
    return report


def matrix_norm2(a: Matrix, method: str = "auto", seed: int = 0) -> float:
    """First singular value of a, as the maximum of x^T a y over unit x, y.
    Raises NoConvergenceError when the power method does not converge."""
    method = _resolve_method(method, 2)
    entries = a.array
    if not np.any(entries):
        return 0.0
    form = MultilinearForm(dims=(a.rows, a.cols), coeffs=entries.reshape(-1))
    if method == "power":
        return _converged(poweriter.bilinear_max(form, seed=seed)).value
    return algsolver.solve_max(form).max_value


def closest_rank_one(
    form: MultilinearForm, method: str = "auto", seed: int = 0
) -> RankOneApproximation:
    """Closest unit rank-one form phi = <x_1 (x) ... (x) x_r, -> to l.

    The factors are the argmax of |l| over the product of spheres with signs
    arranged so l(factors) = +max_value; then ||l - phi||^2 =
    ||l||^2 + 1 - 2*max_value.  For r >= 3 the power method takes the best
    of _ASCENTS Gauss-Seidel ascents; a power result that did not converge
    raises NoConvergenceError.  The algebraic method takes the best point of
    algsolver.solve_argmax in every format, square or not; it raises
    PreconditionViolatedError when no real critical point is recovered.
    """
    if not np.any(form.coeffs):
        raise ValueError("closest_rank_one needs a nonzero form")
    method = _resolve_method(method, form.order)
    flags = ()
    if method == "power":
        if form.order == 2:
            result = poweriter.bilinear_max(form, seed=seed)
        else:
            result = poweriter._ascend(form, seed, _ASCENTS)
        vectors = [np.asarray(v, dtype=float) for v in _converged(result).point]
    else:
        report = _argmax(form, seed)
        vectors = [np.asarray(v, dtype=float) for v in report.points[0].vectors]
        flags = report.genericity_flags
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


def _round_significant(values: np.ndarray, digits: int = 12) -> np.ndarray:
    """Round each entry to `digits` significant decimal digits.

    Keeps the exact rationalization of the coefficients (used by the
    algebraic path) at a manageable size; the induced maximum shift is far
    below the reported precision.
    """
    out = np.zeros_like(values)
    nz = values != 0.0
    mags = np.floor(np.log10(np.abs(values[nz])))
    out[nz] = np.round(values[nz] / 10.0 ** mags, digits - 1) * 10.0 ** mags
    return out


def _separability_form(rho: DensityState) -> MultilinearForm:
    """The trilinear form l(x, y, z) = sum_i sqrt(lam_i) <v_i, x (x) y> z_i
    from the spectral decomposition rho = sum_i lam_i v_i v_i^T, with z in
    the eigenbasis of rho: the z slot has one coordinate per eigenvalue
    kept, so its dimension is the rank of rho.

    Its maximum over the three spheres is the square root of the separable
    maximum max over product states of <rho, xx^T (x) yy^T>.
    """
    a = rho.matrix.array
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))  # DensityState checked symmetry
    keep = np.argsort(-vals)
    keep = keep[vals[keep] >= _EIGENVALUE_DROP]  # never empty: the trace is 1
    tensor = vecs[:, keep] * np.sqrt(vals[keep])
    coeffs = _round_significant(tensor.reshape(-1))
    return MultilinearForm(dims=(rho.dim_a, rho.dim_b, keep.size), coeffs=coeffs)


def _separable_max(rho: DensityState, method: str, seed: int):
    """separable_max, and the flags of its algebraic solve (() for power)."""
    method = _resolve_method(method, 3)
    form = _separability_form(rho)
    if method == "power":
        return _converged(poweriter._ascend(form, seed, _ASCENTS)).value ** 2, ()
    report = _argmax(form, seed)
    return report.max_value ** 2, report.genericity_flags


def separable_max(rho: DensityState, method: str = "auto", seed: int = 0) -> float:
    """max over product states xx^T (x) yy^T of <rho, ->, the separability
    bound: <rho, rho> <= separable_max(rho) whenever rho is separable.  The
    power method takes the best of _ASCENTS Gauss-Seidel ascents and raises
    NoConvergenceError when that one did not converge."""
    return _separable_max(rho, method, seed)[0]


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
    sep, flags = _separable_max(rho, method, seed)
    verdict = "entangled" if overlap > sep + _ENTANGLEMENT_MARGIN else "separable-consistent"
    if verdict == "entangled" and _resolve_method(method, 3) == "power":
        flags = (_UNCERTIFIED_VERDICT,)
    return EntanglementReport(verdict=verdict, self_overlap=overlap, sep_max=sep, flags=flags)
