"""Command-line interface: JSON round-trips, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from spheremax import cli, poweriter
from spheremax.algsolver import SolveReport
from spheremax.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER

from conftest import (
    CLASS_COUNT_FLAG,
    CLASS_COUNTS,
    NON_GENERIC_FORMS,
    QUADLINEAR_COEFFS,
    STATE_PURE_PRODUCT,
    MATRIX_4X3,
    MATRIX_4X3_NORM2,
    STATE_ENTANGLED,
    STATE_ENTANGLED_OVERLAP,
    STATE_ENTANGLED_SEPMAX,
    STATE_SEPARABLE,
    TRILINEAR_COEFFS,
    TRILINEAR_MAX,
    UNCERTIFIED_FLAG,
    non_converged_bilinear_max,
)


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def bilinear_file(tmp_path):
    return _write(tmp_path, "bilinear.json", {"dims": [2, 1], "coeffs": [4, 2]})


@pytest.fixture
def trilinear_file(tmp_path):
    return _write(
        tmp_path, "trilinear.json", {"dims": [2, 2, 2], "coeffs": TRILINEAR_COEFFS}
    )


@pytest.fixture
def matrix_file(tmp_path):
    entries = [e for row in MATRIX_4X3 for e in row]
    return _write(tmp_path, "matrix.json", {"rows": 4, "cols": 3, "entries": entries})


@pytest.fixture
def state_file(tmp_path):
    entries = [e for row in STATE_ENTANGLED for e in row]
    return _write(
        tmp_path,
        "state.json",
        {"dimA": 2, "dimB": 2, "matrix": {"rows": 4, "cols": 4, "entries": entries}},
    )


def test_count_exact(capsys):
    for dims, expected in CLASS_COUNTS.items():
        code, out = _run(capsys, ["count", *map(str, dims)])
        assert code == EXIT_OK
        assert out.strip() == str(expected)


def test_count_rejects_single_dim(capsys):
    code, _ = _run(capsys, ["count", "3"])
    assert code == EXIT_IO
    code, _ = _run(capsys, ["count", "2", "0"])
    assert code == EXIT_IO


def test_maximize_power_bilinear(capsys, bilinear_file, monkeypatch):
    # one power path for every order: multilinear_iterate runs the
    # Gauss-Seidel block of bilinear_max for two slots
    monkeypatch.delattr(poweriter, "bilinear_max")
    code, out = _run(capsys, ["maximize", bilinear_file, "--method", "power"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["method"] == "power"
    assert report["maxValue"] == pytest.approx(math.sqrt(20), abs=1e-8)
    assert report["flags"] == ["converged"]
    assert report["residual"] <= 1e-8
    code, out = _run(capsys, ["maximize", bilinear_file, "--method", "power", "--points"])
    assert code == EXIT_OK
    (point,) = json.loads(out)["points"]
    assert point["value"] == report["maxValue"] and point["residual"] == report["residual"]
    assert [np.linalg.norm(v) for v in point["vectors"]] == pytest.approx([1.0, 1.0])


def test_maximize_algebraic_sphere_chart(capsys, trilinear_file):
    code, out = _run(
        capsys, ["maximize", trilinear_file, "--method", "algebraic"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["chart"] == "sphere"
    assert report["maxValue"] == pytest.approx(TRILINEAR_MAX, abs=1e-6)
    assert report["quotientDim"] == 48


def test_maximize_algebraic_affine_points(capsys, trilinear_file):
    code, out = _run(
        capsys,
        ["maximize", trilinear_file, "--method", "algebraic", "--points"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["chart"] == "affine"
    assert report["quotientDim"] == 6
    assert report["maxValue"] == pytest.approx(TRILINEAR_MAX, abs=1e-6)
    best = report["points"][0]
    assert abs(best["value"]) == pytest.approx(TRILINEAR_MAX, abs=1e-6)
    for v in best["vectors"]:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-8)
    # the affine chart runs exactly when --points is given
    code = cli.main(["maximize", trilinear_file, "--method", "algebraic", "--chart", "affine"])
    assert code == EXIT_IO


def test_norm2_round_trip(capsys, matrix_file, tmp_path):
    out_path = str(tmp_path / "report.json")
    code, out = _run(capsys, ["norm2", matrix_file, "--out", out_path])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["norm2"] == pytest.approx(MATRIX_4X3_NORM2, abs=1e-6)
    with open(out_path) as fh:
        assert json.load(fh) == report


def test_rank1_algebraic_on_2x2x4_form(capsys, tmp_path):
    # n = (1, 1, 3) fails 2 n_i <= sum n_j; the affine chart still holds
    # one point per extreme class and the answer beats every power ascent
    coeffs = np.random.default_rng(7).integers(-9, 10, size=16).tolist()
    path = _write(tmp_path, "form.json", {"dims": [2, 2, 4], "coeffs": coeffs})
    code, out = _run(capsys, ["rank1", path])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["method"] == "algebraic"
    code, out = _run(capsys, ["rank1", path, "--method", "power"])
    assert code == EXIT_OK
    assert report["maxValue"] >= json.loads(out)["maxValue"] - 1e-8


def test_rank1_power(capsys, trilinear_file):
    code, out = _run(capsys, ["rank1", trilinear_file, "--method", "power"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report["factors"]) == 3
    assert report["distance"] > 0
    assert report["maxValue"] > 0


def test_separability_entangled(capsys, state_file):
    code, out = _run(capsys, ["separability", state_file, "--method", "power"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "entangled"
    assert report["selfOverlap"] == pytest.approx(STATE_ENTANGLED_OVERLAP, abs=1e-8)
    assert report["sepMax"] == pytest.approx(STATE_ENTANGLED_SEPMAX, abs=1e-6)


def test_separability_power_verdicts_carry_the_uncertified_flag(capsys, tmp_path, state_file):
    # only an "entangled" power verdict rests on a lower bound
    code, out = _run(capsys, ["separability", state_file, "--method", "power"])
    assert code == EXIT_OK
    flags = json.loads(out)["flags"]
    assert len(flags) == 1 and UNCERTIFIED_FLAG in flags[0]
    path = _write(tmp_path, "separable.json", _state_obj(STATE_SEPARABLE))
    code, out = _run(capsys, ["separability", path, "--method", "power"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "separable-consistent"
    assert report["flags"] == []


def test_norm2_near_tied_top_singular_values(capsys, tmp_path):
    path = _write(tmp_path, "near-tie.json",
                  {"rows": 2, "cols": 2, "entries": [1.0, 0.0, 0.0, 1.0 - 1e-6]})
    code, out = _run(capsys, ["norm2", path])
    assert code == EXIT_OK
    report = _strict_json(out)
    assert report["method"] == "power"
    assert report["norm2"] == pytest.approx(1.0, abs=1e-12)


def _state_obj(rows):
    entries = [e for row in rows for e in row]
    return {"dimA": 2, "dimB": 2, "matrix": {"rows": 4, "cols": 4, "entries": entries}}


_SPARSE_DIMS, _SPARSE_COEFFS = NON_GENERIC_FORMS["sparse-2x2x2"]
_E2E2_DIMS, _E2E2_COEFFS = NON_GENERIC_FORMS["e2xe2"]


@pytest.mark.parametrize("command, obj, flagged", [
    ("rank1", {"dims": _SPARSE_DIMS, "coeffs": _SPARSE_COEFFS}, True),
    ("rank1", {"dims": _E2E2_DIMS, "coeffs": _E2E2_COEFFS}, True),
    ("separability", _state_obj(STATE_PURE_PRODUCT), True),
    ("rank1", {"dims": [2, 2, 2], "coeffs": TRILINEAR_COEFFS}, False),
    ("rank1", {"dims": [2, 2, 2, 2], "coeffs": QUADLINEAR_COEFFS}, False),
    ("separability", _state_obj(STATE_ENTANGLED), False),
], ids=["sparse-2x2x2", "e2xe2", "pure-product", "trilinear", "quadlinear", "entangled"])
def test_rank1_and_separability_report_flags(capsys, tmp_path, command, obj, flagged):
    # the algebraic solve's flags reach the report, as in `maximize`: the
    # non-generic inputs carry the class-count flag, the generic ones none
    path = _write(tmp_path, "input.json", obj)
    code, out = _run(capsys, [command, path, "--method", "algebraic"])
    assert code == EXIT_OK
    flags = json.loads(out)["flags"]
    if flagged:
        assert sum(CLASS_COUNT_FLAG in f for f in flags) == 1
    else:
        assert flags == []


def test_bench_single_row(capsys):
    code, out = _run(capsys, ["bench", "--rows", "2,2,2"])
    assert code == EXIT_OK
    report = json.loads(out)
    row = report["rows"][0]
    assert row["dims"] == [2, 2, 2]
    assert row["quotientDim"] == row["expectedClasses"] == 6
    # the stage names of SolveReport.timings, as `maximize` reports them
    assert set(row["timings"]) == {"system", "groebner", "normalSet", "eigen", "total"}
    # stdout holds the whole report; nothing is echoed beside it
    assert capsys.readouterr().err == ""


def test_determinism_same_command_same_output(capsys, trilinear_file):
    _, out1 = _run(capsys, ["maximize", trilinear_file, "--method", "power", "--seed", "7"])
    _, out2 = _run(capsys, ["maximize", trilinear_file, "--method", "power", "--seed", "7"])
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timings"), r2.pop("timings")
    assert r1 == r2


def test_seed_env_default(capsys, trilinear_file, monkeypatch):
    monkeypatch.setenv("SPHEREMAX_SEED", "7")
    _, out1 = _run(capsys, ["maximize", trilinear_file, "--method", "power"])
    _, out2 = _run(capsys, ["maximize", trilinear_file, "--method", "power", "--seed", "7"])
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timings"), r2.pop("timings")
    assert r1 == r2
    monkeypatch.setenv("SPHEREMAX_SEED", "seven")
    code, out = _run(capsys, ["maximize", trilinear_file, "--method", "power"])
    assert code == EXIT_IO and out == ""


def test_seed_env_ignored_without_seed_option(capsys, trilinear_file, monkeypatch):
    # count takes no --seed, so it never reads SPHEREMAX_SEED
    monkeypatch.setenv("SPHEREMAX_SEED", "x")
    code, out = _run(capsys, ["count", "2", "2"])
    assert code == EXIT_OK and out.strip() == "2"
    code, out = _run(capsys, ["maximize", trilinear_file, "--method", "power"])
    assert code == EXIT_IO and out == ""


@pytest.mark.parametrize("argv", [
    ["bench", "--rows", "2,x"],
    ["bench", "--rows", "3"],
    ["bench", "--rows", "2,0"],
], ids=["rows-not-int", "rows-one-slot", "rows-zero-dim"])
def test_bad_bench_rows_are_io_error_before_any_solve(capsys, monkeypatch, argv):
    def solve(*args, **kwargs):
        raise AssertionError("a bad --rows entry must fail before the first solve")

    monkeypatch.setattr(cli, "bench_row", solve)
    code, out = _run(capsys, argv)
    assert code == EXIT_IO
    assert out == ""


def test_missing_file_is_io_error(capsys, tmp_path):
    code, _ = _run(capsys, ["maximize", str(tmp_path / "nope.json")])
    assert code == EXIT_IO


def test_malformed_json_is_io_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = _run(capsys, ["maximize", str(p)])
    assert code == EXIT_IO


def test_coeff_length_mismatch_is_io_error(capsys, tmp_path):
    p = _write(tmp_path, "short.json", {"dims": [2, 2], "coeffs": [1, 2, 3]})
    code, _ = _run(capsys, ["maximize", p])
    assert code == EXIT_IO


def test_missing_field_is_io_error(capsys, tmp_path):
    p = _write(tmp_path, "nofield.json", {"dims": [2, 2]})
    code, _ = _run(capsys, ["maximize", p])
    assert code == EXIT_IO


def test_solver_budget_exhaustion_is_solver_error(capsys, trilinear_file):
    code, _ = _run(
        capsys,
        ["maximize", trilinear_file, "--method", "algebraic",
         "--budget-reductions", "50"],
    )
    assert code == EXIT_SOLVER


_STATE_MATRIX = {"rows": 4, "cols": 4, "entries": [e for row in STATE_ENTANGLED for e in row]}


@pytest.mark.parametrize("argv, obj", [
    # what JSON can get wrong, checked by the CLI: JSON true is a bool, which
    # Python counts as the int 1, and NaN/Infinity are not JSON numbers
    (["maximize"], {"dims": [True, 2], "coeffs": [1, 2]}),
    (["norm2"], {"rows": True, "cols": 2, "entries": [1, 2]}),
    (["separability", "--method", "power"],
     {"dimA": True, "dimB": 4, "matrix": _STATE_MATRIX}),
    (["maximize", "--method", "power"], {"dims": [2, 2], "coeffs": [1, True, 3, 4]}),
    (["maximize", "--method", "power"], {"dims": [2, 2], "coeffs": [1, math.nan, 3, 4]}),
    (["maximize", "--method", "algebraic"], {"dims": [2, 2], "coeffs": [1, math.nan, 3, 4]}),
    (["maximize", "--method", "power"], {"dims": [2, 2], "coeffs": [1, math.inf, 3, 4]}),
    (["maximize", "--method", "algebraic"], {"dims": [2, 2], "coeffs": [1, -math.inf, 3, 4]}),
    (["norm2"], {"rows": 2, "cols": 2, "entries": [1, math.inf, 3, 4]}),
    (["norm2"], 5),
    (["separability"], {"dimA": 2, "dimB": 2, "matrix": [1, 0, 0, 1]}),
    # what the library types refuse, named by their file
    (["norm2"], {"rows": 2, "cols": 2, "entries": [1, 2, 3]}),
    (["norm2"], {"rows": 0, "cols": 0, "entries": []}),
    (["norm2"], {"rows": -1, "cols": -1, "entries": [1]}),
    (["maximize"], {"dims": [0, 2], "coeffs": []}),
    (["separability"], {"dimA": 2, "dimB": 2,
                        "matrix": {"rows": 4, "cols": 4, "entries": [1, 2]}}),
    (["separability"], {"dimA": 2, "dimB": 2,
                        "matrix": {"rows": 0, "cols": 4, "entries": []}}),
], ids=["bool-dims", "bool-rows", "bool-dimA", "bool-coeff", "nan-power", "nan-algebraic",
        "inf-power", "-inf-algebraic", "inf-entry", "top-level-not-object",
        "state-matrix-not-object", "entries-length", "rows-zero", "rows-negative",
        "dims-zero", "state-entries-length", "state-rows-zero"])
def test_non_finite_or_boolean_number_is_io_error(capsys, tmp_path, argv, obj):
    p = _write(tmp_path, "input.json", obj)
    code = cli.main([argv[0], p, *argv[1:]])
    assert code == EXIT_IO
    assert p in capsys.readouterr().err


def test_invalid_state_is_io_error(capsys, tmp_path):
    p = _write(
        tmp_path,
        "badstate.json",
        {"dimA": 2, "dimB": 2,
         "matrix": {"rows": 4, "cols": 4, "entries": [float(i) for i in range(16)]}},
    )
    code, _ = _run(capsys, ["separability", p])
    assert code == EXIT_IO


def test_floats_rounded_to_ten_significant_digits(capsys, bilinear_file):
    _, out = _run(capsys, ["maximize", bilinear_file, "--method", "power"])
    report = json.loads(out)
    text = repr(report["maxValue"])
    digits = text.replace("-", "").replace(".", "").lstrip("0")
    assert len(digits) <= 10


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_report_is_strict_json_without_real_eigenvalue(capsys, trilinear_file, monkeypatch):
    nan_report = SolveReport(
        quotient_dim=48,
        eigenvalues=(1j, -1j),
        max_value=float("nan"),
        points=(),
        genericity_flags=("no real eigenvalues within tolerance",),
    )
    monkeypatch.setattr(cli.algsolver, "solve_max", lambda form, budget: nan_report)
    code, out = _run(capsys, ["maximize", trilinear_file, "--method", "algebraic"])
    assert code == EXIT_OK
    report = _strict_json(out)
    assert report["maxValue"] is None
    assert report["flags"] == ["no real eigenvalues within tolerance"]


@pytest.mark.parametrize("command", ["norm2", "rank1", "separability"])
def test_iteration_options_only_on_maximize(capsys, matrix_file, command):
    code = cli.main([command, matrix_file, "--max-iters", "5"])
    assert code == EXIT_IO
    assert "unrecognized arguments" in capsys.readouterr().err
    code = cli.main([command, matrix_file, "--tol", "1e-9"])
    assert code == EXIT_IO


_UNREAD_OPTIONS = {
    "maximize": [["--force"]],
    "count": [["--force"]],
    "rank1": [["--budget-reductions", "1"], ["--force"]],
    "norm2": [["--budget-reductions", "1"], ["--force"]],
    "separability": [["--budget-reductions", "1"], ["--force"]],
    "bench": [["--force"]],
}


@pytest.mark.parametrize("command", sorted(_UNREAD_OPTIONS))
def test_unread_options_are_rejected(capsys, matrix_file, command):
    # each subcommand takes only the options it reads; no solver
    # precondition is left for a --force to override
    argv = {"count": ["count", "2", "2"], "bench": ["bench", "--rows"]}.get(
        command, [command, matrix_file, "--method", "algebraic"]
    )
    for option in _UNREAD_OPTIONS[command]:
        code = cli.main([*argv, *option])
        assert code == EXIT_IO, option
        assert "unrecognized arguments" in capsys.readouterr().err


def test_state_within_symmetry_tolerance_is_solved(capsys, tmp_path):
    entries = [e for row in STATE_ENTANGLED for e in row]
    entries[1] += 5e-11  # rho[0, 1]: asymmetric by half the input tolerance
    path = _write(tmp_path, "state.json", {
        "dimA": 2, "dimB": 2, "matrix": {"rows": 4, "cols": 4, "entries": entries}})
    code, out = _run(capsys, ["separability", path, "--method", "power"])
    assert code == EXIT_OK
    assert json.loads(out)["sepMax"] == pytest.approx(STATE_ENTANGLED_SEPMAX, abs=1e-6)


def test_norm2_power_not_converged_is_solver_error(capsys, matrix_file, monkeypatch):
    monkeypatch.setattr(poweriter, "bilinear_max", non_converged_bilinear_max)
    code = cli.main(["norm2", matrix_file, "--method", "power"])
    captured = capsys.readouterr()
    assert code == EXIT_SOLVER
    assert captured.out == ""
    assert "NoConvergenceError" in captured.err


def test_maximize_algebraic_reports_stage_times(capsys, trilinear_file):
    code, out = _run(capsys, ["maximize", trilinear_file, "--method", "algebraic"])
    assert code == EXIT_OK
    timings = json.loads(out)["timings"]
    assert set(timings) == {"system", "groebner", "normalSet", "eigen", "total"}
    assert sum(timings[k] for k in timings if k != "total") <= timings["total"]


@pytest.mark.parametrize("command, fixture", [
    ("rank1", "trilinear_file"), ("separability", "state_file"),
])
def test_power_ascent_not_converged_is_solver_error(capsys, request, monkeypatch,
                                                    command, fixture):
    monkeypatch.setattr(poweriter, "_ASCENT_SWEEPS", 1)
    path = request.getfixturevalue(fixture)
    code = cli.main([command, path, "--method", "power"])
    captured = capsys.readouterr()
    assert code == EXIT_SOLVER
    assert captured.out == ""
    assert "NoConvergenceError" in captured.err
