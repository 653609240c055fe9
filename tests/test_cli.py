"""Command-line interface: JSON round-trips, exit codes, determinism."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from spheremax import (MultilinearForm, NotZeroDimensionalError, cli,
                       count_extreme_classes, poweriter, solve_argmax, solve_max)
from spheremax.algsolver import SolveReport
from spheremax.apps import _separability_form
from spheremax.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER

from conftest import (
    AFFINE_REFUSAL,
    CLASS_COUNTS,
    NON_GENERIC_FORMS,
    QUADLINEAR_COEFFS,
    QUADLINEAR_MAX,
    STATE_PURE_PRODUCT,
    MATRIX_4X3,
    MATRIX_4X3_NORM2,
    STATE_ENTANGLED,
    STATE_ENTANGLED_OVERLAP,
    STATE_ENTANGLED_SEPMAX,
    STATE_SEPARABLE,
    STATE_SEPARABLE_SEPMAX,
    TRILINEAR_COEFFS,
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
def quadlinear_file(tmp_path):
    return _write(
        tmp_path, "quadlinear.json", {"dims": [2, 2, 2, 2], "coeffs": QUADLINEAR_COEFFS}
    )


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
    # one power path for every order: multilinear_iterate runs the block
    # (subspace) iteration of bilinear_max for two slots
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


def test_maximize_algebraic_generic_form_affine_chart(capsys, quadlinear_file):
    # the affine quotient of a generic form holds all 24 classes, so the
    # affine chart answers without --points (a trilinear form with a slot of
    # dimension 2 answers from its pencil instead)
    code, out = _run(
        capsys, ["maximize", quadlinear_file, "--method", "algebraic"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["chart"] == "affine"
    assert report["maxValue"] == pytest.approx(QUADLINEAR_MAX, abs=1e-6)
    assert report["quotientDim"] == 24


@pytest.fixture
def full_precision(monkeypatch):
    """Reports keep every digit of their floats, not 10 significant ones."""
    monkeypatch.setattr(cli, "_sig10", float)


def _form_file(tmp_path, form, scale=1.0):
    return _write(tmp_path, "form.json",
                  {"dims": list(form.dims), "coeffs": (form.coeffs * scale).tolist()})


def _maximize_algebraic(capsys, path, *options):
    code, out = _run(capsys, ["maximize", path, "--method", "algebraic", *options])
    assert code == EXIT_OK
    return json.loads(out)


def _no_groebner(*args, **kwargs):
    raise AssertionError("groebner() ran")


def _no_gram_kernel(monkeypatch):
    """Every bilinear form goes to the charts, as if the Gram kernel had
    not certified it."""
    monkeypatch.setattr(cli.algsolver, "_gram_max", lambda form, k, poly: None)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3), (3, 3)], ids=["2x2x2", "2x3", "3x3"])
def test_maximize_algebraic_generic_forms_answer_from_the_affine_chart(
        capsys, tmp_path, monkeypatch, full_precision, dims):
    # no chart answers these any more: the 2x2x2 form answers from its
    # pencil, and a bilinear form the Gram kernel declines (here by force)
    # from the largest root of its Gram polynomial, flagged; neither runs a
    # Groebner basis, and each reads solve_max's maximum
    _no_gram_kernel(monkeypatch)
    form = cli._random_integer_form(dims, np.random.default_rng(0))
    want = solve_max(form).max_value
    monkeypatch.setattr(cli.algsolver, "groebner", _no_groebner)
    report = _maximize_algebraic(capsys, _form_file(tmp_path, form))
    if len(dims) == 3:
        assert (report["chart"], report["flags"]) == ("pencil", [])
    else:
        assert report["chart"] == "sphere" and len(report["flags"]) == 1
        assert "not zero-dimensional" in report["flags"][0]
    assert report["quotientDim"] == 0
    assert report["maxValue"] == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dims, coeffs", [
    pytest.param((2, 3), None, id="2x3"),
    pytest.param((3, 3), None, id="3x3"),
    pytest.param((2, 2), [3, 0, 0, 2], id="diag(3,2)"),
])
def test_maximize_algebraic_bilinear_forms_answer_from_the_gram_kernel(
        capsys, tmp_path, full_precision, dims, coeffs):
    # distinct nonzero singular values: the Gram kernel answers, with no
    # flag and no chart run (diag(3, 2) has a class off the affine chart),
    # solve_max's report bit for bit, one point per singular pair
    form = (cli._random_integer_form(dims, np.random.default_rng(0)) if coeffs is None
            else MultilinearForm(dims=dims, coeffs=coeffs))
    report = _maximize_algebraic(capsys, _form_file(tmp_path, form), "--points")
    sphere = solve_max(form)
    assert (report["chart"], report["flags"]) == ("sphere", [])
    assert report["quotientDim"] == sphere.quotient_dim == 4 * min(dims)
    assert report["maxValue"] == sphere.max_value
    assert report["maxValue"] == pytest.approx(
        np.linalg.svd(form.tensor, compute_uv=False)[0], rel=1e-15, abs=0.0)
    assert len(report["points"]) == min(dims)
    assert abs(report["points"][0]["value"]) == report["maxValue"]
    assert set(report["timings"]) == {"gram", "charpoly", "sturm", "points", "total"}


def test_maximize_algebraic_separability_form_answers_from_the_affine_chart(
        capsys, tmp_path, separable_state):
    # the sphere chart did not finish on this form in 300 s, and the affine
    # chart answered it; its pencil (the 2x2x4 form has a slot of dimension
    # 2) now does, unflagged
    form = _separability_form(separable_state)
    report = _maximize_algebraic(capsys, _form_file(tmp_path, form))
    assert (report["chart"], report["flags"]) == ("pencil", [])
    assert report["maxValue"] ** 2 == pytest.approx(STATE_SEPARABLE_SEPMAX, abs=1e-6)


_GRAM_TOP_FLAG = "not zero-dimensional"


@pytest.mark.parametrize("dims, coeffs, chart, first_flag", [
    pytest.param(*NON_GENERIC_FORMS["sparse-2x2x2"], "pencil", None, id="sparse-2x2x2"),
    pytest.param(*NON_GENERIC_FORMS["sparse-2x2x3"], "pencil", None, id="sparse-2x2x3"),
    pytest.param(*NON_GENERIC_FORMS["e2xe2"], "sphere", _GRAM_TOP_FLAG, id="e2xe2"),
    # its affine chart cannot separate the solutions
    pytest.param(*NON_GENERIC_FORMS["diagonal-3x3x3"], "sphere", AFFINE_REFUSAL,
                 id="diagonal-3x3x3"),
    pytest.param((2, 2), [3, 0, 0, 2], "sphere", _GRAM_TOP_FLAG, id="diag(3,2)"),
])
def test_maximize_algebraic_non_generic_forms_answer_from_the_sphere_chart(
        capsys, tmp_path, monkeypatch, full_precision, dims, coeffs, chart, first_flag):
    # the affine quotient misses a class of each (or the chart refuses).
    # The trilinear forms with a slot of dimension 2 answer from their
    # pencil, unflagged; the matrices the Gram kernel declines (e2 (x) e2 by
    # itself, a zero singular value, and diag(3, 2) here) from the largest
    # root of their Gram polynomial, flagged, no chart run; both read
    # solve_max's value within 1e-12.  The diagonal 3x3x3 form answers from
    # the sphere chart: solve_max's value, bit for bit, after the flag that
    # says why.  Each first point backs the value
    _no_gram_kernel(monkeypatch)
    form = MultilinearForm(dims=dims, coeffs=coeffs)
    report = _maximize_algebraic(capsys, _form_file(tmp_path, form), "--points")
    sphere = solve_max(form)
    assert report["chart"] == chart
    top = abs(report["points"][0]["value"])
    assert top == pytest.approx(report["maxValue"], rel=1e-9, abs=0.0)
    timings = report["timings"]
    assert sum(t for k, t in timings.items() if k != "total") <= timings["total"]
    if first_flag != AFFINE_REFUSAL:
        assert len(report["flags"]) == (first_flag is not None)
        assert all(first_flag in f for f in report["flags"])
        assert report["quotientDim"] == 0
        assert report["maxValue"] == pytest.approx(sphere.max_value, rel=1e-12, abs=0.0)
        return
    assert report["maxValue"] == sphere.max_value
    assert report["quotientDim"] == sphere.quotient_dim
    assert first_flag in report["flags"][0]
    # the stages account for the affine attempt too, so they add up to at
    # most the total
    assert {k for k in timings if k.startswith("affine.")} == {"affine.refused"}


@pytest.mark.parametrize("unscored", [
    "eigenvectors with near-zero constant coordinate skipped: 1",
    "discarded point with residual 1.000e-03 above tolerance",
], ids=["skipped-eigenvector", "discarded-point"])
def test_maximize_algebraic_falls_back_when_a_solution_went_unscored(
        capsys, monkeypatch, quadlinear_file, full_precision, unscored):
    # the affine quotient holds every class, but one solution was not
    # scored, so the maximum may be missing from its points: the sphere
    # chart answers, after the flag that says why
    form = MultilinearForm((2, 2, 2, 2), QUADLINEAR_COEFFS)
    retry = "repeated eigenvalue for multiplication matrix of 1*y2; retrying"
    affine = replace(solve_argmax(form), genericity_flags=(retry, unscored))
    lift = cli.algsolver._solve_argmax(form, cli.algsolver.DEFAULT_REDUCTION_BUDGET, 0)[3]
    monkeypatch.setattr(cli.algsolver, "_solve_argmax", lambda form, budget, seed: (
        affine, (unscored,), count_extreme_classes(form.dims), lift))
    report = _maximize_algebraic(capsys, quadlinear_file)
    sphere = solve_max(form)
    assert report["chart"] == "sphere"
    assert report["maxValue"] == sphere.max_value
    assert report["flags"] == [unscored, retry, *sphere.genericity_flags]


def test_maximize_algebraic_keeps_the_affine_answer_after_a_separation_retry(
        capsys, tmp_path, full_precision):
    # a retried separating form scores every solution, so the affine chart
    # still answers: the retry flag alone sends nothing to the sphere chart.
    # The form is symmetric in its middle slots, so x2 takes each value
    # twice; 10 of its 24 solutions are real
    form = MultilinearForm((2, 2, 2, 2), [8, 4, -2, -8, -2, -8, -10, -10,
                                          -8, 6, 2, 6, 2, 6, 10, 6])
    affine = solve_argmax(form)
    assert affine.quotient_dim == count_extreme_classes((2, 2, 2, 2)) == 24
    assert len(affine.points) == 10
    assert len(affine.genericity_flags) == 1
    assert affine.genericity_flags[0].startswith("repeated eigenvalue")
    report = _maximize_algebraic(capsys, _form_file(tmp_path, form))
    assert report["chart"] == "affine"
    assert report["flags"] == list(affine.genericity_flags)
    assert report["maxValue"] == affine.max_value


def test_maximize_algebraic_falls_back_on_the_affine_refusal(capsys, tmp_path, full_precision):
    # 2x2x2x2, 1 at 0000 and 2 at 1111, times 1e-9: no multiplication matrix
    # separates the affine solutions
    form = MultilinearForm((2, 2, 2, 2), [1.0] + [0.0] * 14 + [2.0])
    report = _maximize_algebraic(capsys, _form_file(tmp_path, form, 1e-9))
    assert report["chart"] == "sphere"
    assert report["flags"][0].startswith(AFFINE_REFUSAL)
    assert report["maxValue"] == pytest.approx(2e-9, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("dims, coeffs", [
    # e2 = (0, 1, 0); on 2x2x2 the forms e2 (x) e2 (x) e2 and all-ones
    # answer from their pencil (test_pencil_answers_the_non_generic_table)
    ((3, 3, 3), [float(i == 13) for i in range(27)]),
    ((3, 3, 3), [1] * 27),
    # every point is critical; the Gram kernel's largest root, 0, answers nothing
    ((2, 2), [0] * 4),
], ids=["e2xe2xe2", "all-ones-3x3x3", "zero-2x2"])
def test_maximize_algebraic_positive_dimensional_form_is_solver_error(
        capsys, tmp_path, dims, coeffs):
    path = _form_file(tmp_path, MultilinearForm(dims=dims, coeffs=coeffs))
    code = cli.main(["maximize", path, "--method", "algebraic"])
    assert code == EXIT_SOLVER
    assert "NotZeroDimensionalError" in capsys.readouterr().err


@pytest.mark.parametrize("dims, coeffs, want", [
    ((2, 2), [1, 0, 0, 1], 1.0),
    ((3, 3), [3, 0, 0, 0, 3, 0, 0, 0, 1], 3.0),
    ((2, 2), [1, 1, 1, -1], math.sqrt(2)),
], ids=["I_2", "diag(3,3,1)", "hadamard-2x2"])
def test_tied_top_singular_value_answers_from_the_largest_root(
        capsys, tmp_path, full_precision, dims, coeffs, want):
    # a positive-dimensional bilinear form: the Gram kernel declines it, and
    # the largest root of its polynomial answers, flagged, its
    # point the top singular pair; norm2 --method algebraic agrees
    form = MultilinearForm(dims=dims, coeffs=coeffs)
    report = _maximize_algebraic(capsys, _form_file(tmp_path, form), "--points")
    assert (report["chart"], report["quotientDim"], report["maxValue"]) == ("sphere", 0, want)
    assert "not zero-dimensional" in report["flags"][-1]
    assert abs(report["points"][0]["value"]) == pytest.approx(want, rel=1e-15, abs=0.0)
    path = _write(tmp_path, "matrix.json", {"rows": dims[0], "cols": dims[1], "entries": coeffs})
    code, out = _run(capsys, ["norm2", path, "--method", "algebraic"])
    assert code == EXIT_OK and json.loads(out)["norm2"] == want


def test_maximize_algebraic_reads_a_tiny_form_at_its_scale(capsys, tmp_path):
    # a complex critical value (real part 13.92) of this form once passed
    # for real at scale 1e-9 and came out as the maximum, unflagged
    form = cli._random_integer_form((2, 2, 2), np.random.default_rng(32))
    path = _write(tmp_path, "tiny.json", {"dims": [2, 2, 2],
                                          "coeffs": (form.coeffs * 1e-9).tolist()})
    code, out = _run(capsys, ["maximize", path, "--method", "algebraic"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["maxValue"] == pytest.approx(10.80988359680519e-9, rel=1e-9, abs=0.0)
    assert report["flags"] == []


@pytest.mark.parametrize("scale", [0.1, 1e-9])
def test_maximize_algebraic_scaled_forms_are_exact(capsys, tmp_path, full_precision, scale):
    # the decimal reprs of this form times 0.1 perturb its exact system: on
    # the sphere chart spurious real eigenvalues up to 235.4 came out as the
    # maximum, unflagged, and then 5.3e-8 off once dropped, flagged; the
    # affine chart held every class of it, and its pencil, read through the
    # same decimals, answers it
    form = cli._random_integer_form((2, 2, 2), np.random.default_rng(16))
    report = _maximize_algebraic(capsys, _form_file(tmp_path, form, scale))
    assert (report["chart"], report["flags"]) == ("pencil", [])
    assert report["maxValue"] == pytest.approx(9.975584812060896 * scale, rel=1e-12, abs=0.0)


def test_maximize_algebraic_affine_points(capsys, trilinear_file, quadlinear_file):
    code, out = _run(
        capsys,
        ["maximize", quadlinear_file, "--method", "algebraic", "--points"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["chart"] == "affine"
    assert report["quotientDim"] == 24
    assert report["maxValue"] == pytest.approx(QUADLINEAR_MAX, abs=1e-6)
    best = report["points"][0]
    assert abs(best["value"]) == pytest.approx(QUADLINEAR_MAX, abs=1e-6)
    for v in best["vectors"]:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-8)
    # the code picks the chart; no option does
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


def test_norm2_cluster_wider_than_the_block(capsys, tmp_path):
    # seventeen top singular values within 1.6e-5, one more than the power
    # method's first block holds: the block widens and the run converges
    sigma = np.r_[1.0 - 1e-6 * np.arange(17), 0.5]
    path = _write(tmp_path, "cluster.json",
                  {"rows": 18, "cols": 18, "entries": np.diag(sigma).reshape(-1).tolist()})
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


@pytest.mark.parametrize("command, obj, flag", [
    ("rank1", {"dims": _SPARSE_DIMS, "coeffs": _SPARSE_COEFFS}, None),
    ("rank1", {"dims": _E2E2_DIMS, "coeffs": _E2E2_COEFFS}, _GRAM_TOP_FLAG),
    ("separability", _state_obj(STATE_PURE_PRODUCT), None),
    ("rank1", {"dims": [2, 2, 2], "coeffs": TRILINEAR_COEFFS}, None),
    ("rank1", {"dims": [2, 2, 2, 2], "coeffs": QUADLINEAR_COEFFS}, None),
    ("separability", _state_obj(STATE_ENTANGLED), None),
], ids=["sparse-2x2x2", "e2xe2", "pure-product", "trilinear", "quadlinear", "entangled"])
def test_rank1_and_separability_report_flags(capsys, tmp_path, command, obj, flag):
    # the algebraic solve's flags reach the report, as in `maximize`: e2 (x)
    # e2 carries the Gram polynomial's positive-dimensional flag; the
    # sparse form and the pure product state, which the affine chart
    # flagged, answer from their pencil, and the generic inputs from theirs
    # or from the affine chart, all with no flag
    path = _write(tmp_path, "input.json", obj)
    code, out = _run(capsys, [command, path, "--method", "algebraic"])
    assert code == EXIT_OK
    flags = json.loads(out)["flags"]
    if flag is not None:
        assert sum(flag in f for f in flags) == 1
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


def test_solver_budget_exhaustion_is_solver_error(capsys, quadlinear_file):
    # the kernels spend no reductions, so the form has no slot of dimension 2
    # beside two others
    code, _ = _run(
        capsys,
        ["maximize", quadlinear_file, "--method", "algebraic",
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


@pytest.mark.parametrize("command", ["maximize", "rank1"])
@pytest.mark.parametrize("method", ["power", "algebraic"])
def test_one_slot_form_is_io_error_on_both_methods(capsys, tmp_path, command, method):
    p = _write(tmp_path, "one-slot.json", {"dims": [3], "coeffs": [1, 2, 2]})
    code = cli.main([command, p, "--method", method])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("dims, tol", [
    ([2, 2], "nan"), ([2, 2], "inf"), ([2, 2], "0"), ([2, 2, 2], "-1"),
], ids=["nan", "inf", "zero", "negative"])
def test_tol_that_is_not_finite_and_positive_is_io_error(capsys, tmp_path, dims, tol):
    coeffs = list(range(1, 1 + math.prod(dims)))
    p = _write(tmp_path, "form.json", {"dims": dims, "coeffs": coeffs})
    code = cli.main(["maximize", p, "--method", "power", "--tol", tol])
    assert code == EXIT_IO
    assert "tol" in capsys.readouterr().err


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


def test_report_is_strict_json_without_real_eigenvalue(capsys, quadlinear_file, monkeypatch):
    nan_report = SolveReport(
        quotient_dim=48,
        eigenvalues=(1j, -1j),
        max_value=float("nan"),
        points=(),
        genericity_flags=("no real eigenvalues within tolerance",),
    )

    def refuse(form, budget, seed):
        raise NotZeroDimensionalError("no pure power of x2 among leading terms")

    # the affine chart refuses, and the sphere chart finds no real value
    monkeypatch.setattr(cli.algsolver, "_solve_argmax", refuse)
    monkeypatch.setattr(cli.algsolver, "_sphere_max", lambda form, k, budget: nan_report)
    code, out = _run(capsys, ["maximize", quadlinear_file, "--method", "algebraic"])
    assert code == EXIT_OK
    report = _strict_json(out)
    assert report["chart"] == "sphere"
    assert report["maxValue"] is None
    assert report["flags"] == [
        f"{AFFINE_REFUSAL}: no pure power of x2 among leading terms",
        "no real eigenvalues within tolerance",
    ]


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


def test_maximize_algebraic_reports_stage_times(capsys, quadlinear_file, trilinear_file):
    # the affine chart's stages, and the pencil's on a trilinear form with a
    # slot of dimension 2
    for path, stages in ((quadlinear_file, {"system", "groebner", "normalSet", "eigen"}),
                         (trilinear_file, {"setup", "search", "certificate"})):
        code, out = _run(capsys, ["maximize", path, "--method", "algebraic"])
        assert code == EXIT_OK
        timings = json.loads(out)["timings"]
        assert set(timings) == stages | {"total"}
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
