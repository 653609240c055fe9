#!/usr/bin/env python3
"""End-to-end showcase of the library on a set of worked instances.

Covers every entry point: exact extreme-class counting, power iteration for
bilinear forms, the exact algebraic maximum/argmax for higher-order forms,
matrix 2-norms, the closest unit rank-one form, and the separability bound
with its entanglement verdict.  Runs in about a second (1.1 s on a 2-core
x86_64 VM); about half of that is solve_argmax's affine-chart solve of the
4-linear instance.  tests/test_showcase.py runs it as a smoke test.
"""

import time

import numpy as np

from spheremax import (
    DensityState,
    Matrix,
    MultilinearForm,
    bilinear_max,
    closest_rank_one,
    count_extreme_classes,
    entanglement_check,
    matrix_norm2,
    multilinear_iterate,
    self_overlap,
    solve_argmax,
    solve_max,
)


def heading(text: str):
    print(f"\n=== {text} ===")


def main():
    heading("Exact counts of extreme-point classes")
    for dims in [(2, 2), (4, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3),
                 (2, 2, 2, 2)]:
        print(f"  dims {dims}: {count_extreme_classes(dims)} classes")

    heading("Power iteration on bilinear forms")
    small = MultilinearForm(dims=(2, 1), coeffs=[4, 2])
    res = bilinear_max(small)
    print(f"  max of 4*x1*y + 2*x2*y on S^1 x S^0: {res.value:.10f}"
          f"  (exact sqrt(20) = {np.sqrt(20):.10f})")
    a = np.array([[3, 2, 32], [2, 1, 36], [-3, 25, 2], [0, -1, 1]], dtype=float)
    print(f"  2-norm of a 4x3 matrix: {matrix_norm2(Matrix.from_array(a)):.10f}"
          f"  (SVD: {np.linalg.svd(a, compute_uv=False)[0]:.10f})")

    heading("A trilinear form whose maximum is not attractive")
    tri = MultilinearForm(dims=(2, 2, 2), coeffs=[6, -14, -6, -11, 3, -15, 16, 8])
    t0 = time.perf_counter()
    exact = solve_max(tri)
    print(f"  algebraic maximum: {exact.max_value:.10f}"
          f"  (quotient dim {exact.quotient_dim}, {time.perf_counter() - t0:.2f}s)")
    statuses = {}
    for seed in range(10):
        st = multilinear_iterate(tri, seed=seed).status.value
        statuses[st] = statuses.get(st, 0) + 1
    print(f"  power iteration across 10 seeds: {statuses}")

    heading("Exact argmax of a 4-linear form")
    quad = MultilinearForm(
        dims=(2, 2, 2, 2),
        coeffs=[4, 2, -5, -9, 1, -7, -5, -6, 6, -3, -6, -9, 7, 9, 0, 8],
    )
    t0 = time.perf_counter()
    report = solve_argmax(quad)
    print(f"  maximum {report.max_value:.10f} over {report.quotient_dim} classes"
          f"  ({time.perf_counter() - t0:.2f}s)")
    for i, v in enumerate(report.points[0].vectors):
        print(f"  factor {i + 1}: {np.array2string(np.asarray(v), precision=10)}")

    heading("Closest unit rank-one form (3x2 bilinear)")
    b = np.array([[4, -9], [2, 1], [-5, -7]], dtype=float)
    form = MultilinearForm(dims=(3, 2), coeffs=b.reshape(-1))
    r1 = closest_rank_one(form)
    print(f"  max value {r1.max_value:.10f}, distance {r1.distance:.10f}")
    for i, v in enumerate(r1.factors.factors):
        print(f"  factor {i + 1}: {np.array2string(np.asarray(v), precision=10)}")

    heading("Separability bound for two 4x4 states on R^2 (x) R^2")
    state_a = DensityState(2, 2, Matrix.from_array(np.array([
        [0.242894940524649938, -0.123994312358229969, -0.0712215842649899789, 0.219784373378769966],
        [-0.123994312358229969, 0.0888784895376599772, 0.111143109132249979, -0.0627261109839499926],
        [-0.0712215842649899789, 0.111143109132249979, 0.361255602168969903, 0.0603142605185699871],
        [0.219784373378769966, -0.0627261109839499926, 0.0603142605185699871, 0.306970967813849916],
    ])))
    state_b = DensityState(2, 2, Matrix.from_array(np.array([
        [0.168106937369559950, -0.190509527669719958, -0.200004375511779936, -0.0690454833860399825],
        [-0.190509527669719958, 0.257651665981429912, 0.267759084652009926, 0.0985801483325399742],
        [-0.200004375511779936, 0.267759084652009926, 0.320790216378169901, 0.194053687463299957],
        [-0.0690454833860399825, 0.0985801483325399742, 0.194053687463299957, 0.253451180300149959],
    ])))
    for name, rho in (("state A", state_a), ("state B", state_b)):
        rep = entanglement_check(rho)
        print(f"  {name}: <rho,rho> = {self_overlap(rho):.10f}, "
              f"sepMax = {rep.sep_max:.10f} -> {rep.verdict}")


if __name__ == "__main__":
    main()
