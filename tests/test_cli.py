"""Exit codes, determinism, and output shape of the command line."""
import json
import warnings
from importlib import resources

import pytest

from nscurves import cli
from nscurves.cli import main, sigma_weight


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- info --------------------------------------------------------------------


def test_info_trigonal(capsys):
    code, out, _ = run(capsys, "info", "3", "4")
    assert code == 0
    assert "genus        3" in out
    assert "gaps         1, 2, 5" in out
    assert "sigma weight -5" in out


def test_info_elliptic(capsys):
    code, out, _ = run(capsys, "info", "2", "3")
    assert code == 0
    assert "genus        1" in out
    assert "gaps         1" in out
    assert "sigma weight -1" in out


def test_info_rejects_common_factor(capsys):
    code, _, err = run(capsys, "info", "4", "6")
    assert code == 2
    assert "factor" in err


def test_sigma_weight_values():
    assert sigma_weight(3, 4) == -5
    assert sigma_weight(2, 3) == -1
    assert sigma_weight(3, 5) == -8


# -- expand and differentials ------------------------------------------------


def test_expand_json_lists_gap_series(capsys):
    code, out, _ = run(capsys, "expand", "2", "5", "--order", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"x", "y", "dx/f_y", "u_1", "u_3"}
    assert data["u_1"].startswith("xi + -1/10*l4*xi^5")


def test_expand_accepts_any_order_from_two(capsys):
    code, out, _ = run(capsys, "expand", "5", "9", "--order", "8")
    assert code == 0
    assert out.startswith("x = xi^-5 + O(xi^3)\n")


def test_expand_defaults_to_the_level_count(capsys):
    # (5,9) has c = 4 levels, and c is also the depth expand shows by default
    code, default, _ = run(capsys, "expand", "5", "9")
    assert code == 0
    code, explicit, _ = run(capsys, "expand", "5", "9", "--order", "4")
    assert code == 0
    assert default == explicit


def test_expand_rejects_order_below_two(capsys):
    code, out, err = run(capsys, "expand", "2", "5", "--order", "1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [("formulas", "2", "5", "2", "--order", "8"), ("differentials", "3", "4", "--order", "3")],
    ids=["formulas", "differentials"],
)
def test_derivations_take_no_order(capsys, argv):
    # the depth of a derivation is a fact of the shape, so --order is unknown
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --order" in captured.err
    assert "Traceback" not in captured.err


def test_differentials_show_corrected_numerator(capsys):
    code, out, _ = run(capsys, "differentials", "3", "4")
    assert code == 0
    assert "dr_2 = (2*y*x) dx / f_y" in out


# -- formulas ----------------------------------------------------------------


@pytest.mark.parametrize(
    "n,s,m", [(3, 4, 1), (3, 7, 2), (4, 7, 1), (5, 9, 1), (2, 5, 2)]
)
def test_formulas_check_golden_passes(capsys, n, s, m):
    code, out, _ = run(capsys, "formulas", str(n), str(s), str(m), "--check-golden")
    assert code == 0
    assert out.strip() == f"PASS system_{n}_{s}.json"


def _frozen_25():
    return (resources.files("nscurves") / "golden" / "system_2_5.json").read_text()


def test_formulas_check_golden_reports_the_first_difference(capsys, monkeypatch):
    frozen = _frozen_25()
    lines = frozen.splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines, 1) if '"rational": "-1"' in line)
    lines[lineno - 1] = lines[lineno - 1].replace('"-1"', '"-2"')
    monkeypatch.setattr(cli, "emit_system", lambda system, fmt: "".join(lines))
    code, out, _ = run(capsys, "formulas", "2", "5", "2", "--check-golden")
    assert code == 1
    assert out.splitlines() == [
        f"FAIL system_2_5.json: first difference at line {lineno}",
        '  emitted:         "rational": "-2"',
        '  frozen:          "rational": "-1"',
    ]


@pytest.mark.parametrize("edit", ["truncated", "extended"])
def test_formulas_check_golden_reports_a_length_mismatch(capsys, monkeypatch, edit):
    frozen = _frozen_25()
    lines = frozen.splitlines(keepends=True)
    emitted = "".join(lines[:20]) if edit == "truncated" else frozen + "\n\n"
    monkeypatch.setattr(cli, "emit_system", lambda system, fmt: emitted)
    code, out, _ = run(capsys, "formulas", "2", "5", "2", "--check-golden")
    assert code == 1
    assert out == "FAIL system_2_5.json: length mismatch\n"


def test_formulas_json_emission_parses(capsys):
    code, out, _ = run(capsys, "formulas", "3", "5", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and data["s"] == 5 and data["m"] == 1


def test_formulas_family_index_must_match(capsys):
    code, _, err = run(capsys, "formulas", "3", "4", "2")
    assert code == 2
    assert "does not match" in err


def test_formulas_rank_cap(capsys):
    code, _, err = run(capsys, "formulas", "6", "7", "1")
    assert code == 2
    assert "rank" in err


def test_formulas_no_golden_store(capsys):
    code, _, err = run(capsys, "formulas", "5", "11", "2", "--check-golden")
    assert code == 2
    assert "no frozen system" in err


# -- roundtrip ---------------------------------------------------------------


CURVE_25 = """\
n = 2
s = 5
lambda.4 = -1
lambda.6 = 1/2
lambda.8 = 1/4
lambda.10 = -3/4
"""


def test_roundtrip_passes_and_is_deterministic(capsys, tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text(CURVE_25)
    code, first, _ = run(capsys, "roundtrip", str(path), "--count", "4", "--seed", "3")
    assert code == 0
    assert first.count("PASS") == 5
    code, second, _ = run(capsys, "roundtrip", str(path), "--count", "4", "--seed", "3")
    assert code == 0
    assert first == second


def test_roundtrip_needs_numeric_lambda(capsys, tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text("n = 3\ns = 4\nlambda.2 = sym\n")
    code, _, err = run(capsys, "roundtrip", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        "n = 2\ns = 5\nlambda.4 = nan\n",
        "n = 3\ns = 4\nlambda.2 = inf\n",
        "n = 2\ns = 4\n",
        "n = 3\ns = 4\nextended = maybe\nlambda.12 = 7/10\n",
        "n = 3\ns = 4\nlambda.12 = 7/10\nlambda.12 = 3/10\n",
        "n = 3\ns = 4\nlambda.6 = 1/0\n",
        "n = 3\ns = 4\nlambda.6 = 1e400\n",
        "n = 3\ns = 4\nlambda.6 = abc\n",
        "n = abc\ns = 4\n",
        "n = 3\ns = 4\nlambda.x = 1\n",
    ],
    ids=["nan-lambda", "inf-lambda", "common-factor", "unknown-extended", "repeated-lambda",
         "zero-denominator", "past-double-range", "malformed-lambda", "non-integer-n",
         "non-integer-index"],
)
def test_roundtrip_refuses_malformed_curve_files(capsys, tmp_path, text):
    path = tmp_path / "curve.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "roundtrip", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_lambda_errors_name_their_line_or_index(capsys, tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text("n = 3\ns = 4\nlambda.6 = 1/0\n")
    assert run(capsys, "roundtrip", str(path))[2] == (
        "error: line 3: lambda.6 = 1/0 divides by zero\n")
    path.write_text("n = 3\ns = 4\nlambda.6 = 1e400\n")
    assert run(capsys, "roundtrip", str(path))[2] == (
        "error: lambda_6 is a rational outside double range\n")
    # a value that is not a number, or not an integer where one is needed
    for text, message in [
        ("n = 3\ns = 4\nlambda.6 = abc\n", "line 3: lambda.6 = 'abc' is not a number"),
        ("n = abc\ns = 4\n", "line 1: n must be an integer, not 'abc'"),
        ("n = 3\ns = 4\nlambda.x = 1\n",
         "line 3: the index of lambda.x must be an integer, not 'x'"),
    ]:
        path.write_text(text)
        assert run(capsys, "roundtrip", str(path))[2] == f"error: {message}\n"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_roundtrip_refuses_a_count_below_one(capsys, tmp_path, count):
    # a PASS over no round trips would check nothing
    path = tmp_path / "curve.txt"
    path.write_text(CURVE_25)
    code, out, err = run(capsys, "roundtrip", str(path), "--count", count)
    assert code == 2
    assert out == ""
    assert err == f"error: --count must be at least 1, not {count}\n"


TOLERANCES = ["nan", "inf", "-1", "0", "-0"]


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_roundtrip_refuses_an_invalid_tolerance(capsys, tmp_path, tolerance):
    # no error passes a nan or a non-positive bound: a FAIL would blame the curve
    path = tmp_path / "curve.txt"
    path.write_text(CURVE_25)
    argv = ("roundtrip", str(path), "--count", "1", "--tolerance", tolerance)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    shown = f"{float(tolerance):g}"
    assert err == f"error: --tolerance must be positive and finite, not {shown}\n"


def test_roundtrip_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "roundtrip", str(tmp_path / "absent.txt"))
    assert code == 2


# -- hyper-demo --------------------------------------------------------------


def test_hyper_demo_genus1(capsys):
    code, out, _ = run(capsys, "hyper-demo", "1", "--seed", "4")
    assert code == 0
    data = json.loads(out)
    assert data["curve"]["s"] == 3
    assert data["max_abs_err"] < 1e-6
    assert [r["identity"] for r in data["report"]] == ["e_1(x) from R_2", "y_1 from R_3"]


def test_hyper_demo_genus2_deterministic(capsys):
    code, first, _ = run(capsys, "hyper-demo", "2", "--seed", "9")
    assert code == 0
    data = json.loads(first)
    assert data["max_abs_err"] < 1e-6
    assert len(data["report"]) == 4
    code, second, _ = run(capsys, "hyper-demo", "2", "--seed", "9")
    assert first == second


def test_hyper_demo_genus3(capsys):
    code, out, _ = run(capsys, "hyper-demo", "3", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["curve"]["s"] == 7
    assert data["max_abs_err"] < 1e-6
    assert len(data["report"]) == 6


def test_hyper_demo_rejects_other_genus(capsys):
    for genus in ("0", "4"):
        code, _, err = run(capsys, "hyper-demo", genus)
        assert code == 2
        assert "the demo covers genus 1 to 3" in err


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_hyper_demo_refuses_an_invalid_tolerance(capsys, tolerance):
    code, out, err = run(capsys, "hyper-demo", "2", "--tolerance", tolerance)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --tolerance must be positive and finite, not ")
    assert "Traceback" not in err


# -- output flag -------------------------------------------------------------


def test_output_writes_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "info", "2", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert "genus        1" in target.read_text()
