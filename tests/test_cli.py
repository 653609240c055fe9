"""Command-line interface: JSON round-trips, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from spheremax import cli, poweriter
from spheremax.algsolver import SolveReport
from spheremax.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER

from conftest import (
    CLASS_COUNTS,
    MATRIX_4X3,
    MATRIX_4X3_NORM2,
    STATE_ENTANGLED,
    STATE_ENTANGLED_OVERLAP,
    STATE_ENTANGLED_SEPMAX,
    TRILINEAR_COEFFS,
    TRILINEAR_MAX,
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


def test_bench_single_row(capsys):
    code, out = _run(capsys, ["bench", "--rows", "2,2,2"])
    assert code == EXIT_OK
    report = json.loads(out)
    row = report["rows"][0]
    assert row["dims"] == [2, 2, 2]
    assert row["quotientDim"] == row["expectedClasses"] == 6
    assert set(row["timings"]) == {"systemBuild", "groebnerNormalSet", "eigen", "total"}


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


_UNREAD_OPTIONS = {
    "norm2": [["--budget-reductions", "1"], ["--force"]],
    "rank1": [["--budget-reductions", "1"]],
    "separability": [["--budget-reductions", "1"], ["--force"]],
}


@pytest.mark.parametrize("command", ["norm2", "rank1", "separability"])
def test_iteration_options_only_on_maximize(capsys, matrix_file, command):
    # each subcommand takes only the options it reads
    code = cli.main([command, matrix_file, "--max-iters", "5"])
    assert code == EXIT_IO
    assert "unrecognized arguments" in capsys.readouterr().err
    code = cli.main([command, matrix_file, "--tol", "1e-9"])
    assert code == EXIT_IO
    for option in _UNREAD_OPTIONS[command]:
        code = cli.main([command, matrix_file, "--method", "algebraic", *option])
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
