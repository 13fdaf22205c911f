import io
import json
import re
from contextlib import redirect_stdout

import pytest

from carnot import bundled_spec as spec_path
from carnot.cli import ParseError, Report, main, parse_spec_text, run_verify, parse_spec_file
from carnot.group_realization import PolyVectorField
from .conftest import GOLDEN


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def as_dict(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


# -- parsing --------------------------------------------------------------


def test_parse_engel_spec():
    spec = parse_spec_file(spec_path("engel.alg"))
    assert spec.name == "engel"
    assert spec.layers == [["X1", "X2"], ["Y"], ["Z"]]
    assert spec.recipe_factors == [["X2", "Y", "Z"], ["X1"]]
    assert spec.g0_kind == "conformal"
    assert spec.max_k == 10 and spec.oracle_degree == 6


def test_parse_rational_coefficients():
    from fractions import Fraction
    spec = parse_spec_text("""
[algebra]
layer -1 = A B
layer -2 = C D
[A,B] = 1/2 C + D
[A,C] = 0
""")
    assert spec.brackets[("A", "B")] == [(Fraction(1, 2), "C"), (Fraction(1), "D")]
    assert spec.brackets[("A", "C")] == []


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_spec_text("[algebra]\nlayer -1 = A B\n[A,B] = 1/2 @@\n", "f.alg")
    assert err.value.line == 3
    assert err.value.col == 13
    assert "f.alg:3:13" in str(err.value)


def test_parse_rejects_layer_gaps():
    with pytest.raises(ParseError):
        parse_spec_text("[algebra]\nlayer -1 = A\nlayer -3 = B\n")


def test_parse_rejects_unknown_section_content():
    with pytest.raises(ParseError):
        parse_spec_text("layer -1 = A\n")


# -- commands -------------------------------------------------------------


def test_validate_engel():
    code, out = run_cli(["validate", spec_path("engel.alg")])
    assert code == 0
    d = as_dict(out)
    assert d["valid"] == "true"
    assert d["dim"] == "4"
    assert d["layer_dims"] == "[2, 1, 1]"


def test_validate_heisenberg():
    code, out = run_cli(["validate", spec_path("heisenberg.alg")])
    assert code == 0


def test_validate_parse_failure_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("[algebra]\nlayer -1 = A B\n[A,B] = @@\n")
    code = main(["validate", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(r"bad\.alg:3:\d+", err)


def test_validate_semantic_failure_exit_1(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("[algebra]\nlayer -1 = A B\nlayer -2 = C\n[A,B] = A\n")
    code, out = run_cli(["validate", str(bad)])
    assert code == 1
    assert "GradingViolation" in out


def test_prolong_engel_report():
    code, out = run_cli(["prolong", spec_path("engel.alg")])
    assert code == 0
    d = as_dict(out)
    assert d["g0_dim"] == "1"
    assert d["levels"] == "[1, 0]"
    assert d["terminated_at"] == "1"
    assert d["total_dim"] == "5"
    assert d["g0_basis_1"] == "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]"


def test_prolong_r2_cutoff():
    code, out = run_cli(["prolong", spec_path("r2_co2.alg"), "--max-k", "6"])
    assert code == 0
    d = as_dict(out)
    assert d["status"] == "cutoff_reached"
    assert d["levels"] == "[2, 2, 2, 2, 2, 2, 2]"


def test_prolong_r3():
    code, out = run_cli(["prolong", spec_path("r3_co3.alg")])
    d = as_dict(out)
    assert d["total_dim"] == "10"
    assert d["terminated_at"] == "2"


def test_verify_engel_passes():
    code, out = run_cli(["verify", spec_path("engel.alg")])
    assert code == 0
    d = as_dict(out)
    assert d["overall"] == "PASS"
    assert d["epsilon"] == "-1"
    assert d["automorphism_similar"] == "false"
    assert d["translations_similar"] == "true"


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_one_frame_per_command(monkeypatch, command):
    import carnot.cli as cli
    import carnot.group_realization as group_realization
    calls = []
    for module in (cli, group_realization):
        def counting(*args, _original=module.left_invariant_frame):
            calls.append(args)
            return _original(*args)
        monkeypatch.setattr(module, "left_invariant_frame", counting)
    code, _ = run_cli([command, spec_path("engel.alg")])
    assert code == 0
    assert len(calls) == 1


def test_verify_with_injected_field_fails():
    spec = parse_spec_file(spec_path("engel.alg"))
    from carnot.cli import spec_algebra, spec_recipe
    from carnot.group_realization import left_invariant_frame
    g = spec_algebra(spec)
    frame = left_invariant_frame(g, spec_recipe(spec, g))
    ring = frame.ring
    bad = PolyVectorField((ring.zero(), ring.zero(), ring.one(), ring.zero()), "frame")
    report = Report()
    code = run_verify(spec, report, max_k=10, extra_fields=[bad])
    assert code == 1
    d = dict(report.items)
    assert d["overall"] == "FAIL"
    assert d["contact_defects_zero"] is False


def test_oracle_engel():
    code, out = run_cli(["oracle", spec_path("engel.alg"), "--degree", "6"])
    assert code == 0
    d = as_dict(out)
    assert d["ansatz_dim"] == "5"
    assert d["dims_agree"] == "true"
    assert d["span_match"] == "true"


def test_oracle_engel_low_degree_still_complete():
    # every conformal field already fits at degree 2 under the
    # per-component allowance, so the dimension is stable here too
    code, out = run_cli(["oracle", spec_path("engel.alg"), "--degree", "2"])
    assert code == 0
    assert as_dict(out)["ansatz_dim"] == "5"


def test_oracle_heisenberg_agrees():
    code, out = run_cli(["oracle", spec_path("heisenberg.alg")])
    assert code == 0
    d = as_dict(out)
    assert d["ansatz_dim"] == "8"
    assert d["prolongation_total"] == "8"
    assert d["dims_agree"] == "true"
    assert d["tau_available"] == "false"


@pytest.mark.parametrize("name, degree, ansatz, prolongation, agree", [
    ("engel", 6, [1, 1, 2, 1, 0, 0, 0, 0, 0, 0], [1, 1, 2, 1], "true"),
    # level 2 has weighted degree 2, out of reach of the degree-1 ansatz
    ("heisenberg", 1, [1, 2, 2, 2], [1, 2, 2, 2, 1], "false"),
])
def test_oracle_reports_dims_by_degree(name, degree, ansatz, prolongation, agree):
    code, out = run_cli(["oracle", spec_path(name + ".alg"), "--degree", str(degree)])
    d = as_dict(out)
    assert d["ansatz_dims_by_degree"] == str(ansatz)
    assert d["prolongation_dims_by_degree"] == str(prolongation)
    assert d["ansatz_dim"] == str(sum(ansatz))
    assert d["dims_agree"] == agree
    assert code == (0 if agree == "true" else 1)
    keys = list(d)
    assert keys.index("ansatz_dims_by_degree") == keys.index("ansatz_dim") + 1
    assert keys.index("prolongation_dims_by_degree") == keys.index("prolongation_total") + 1


def test_oracle_cutoff_reports_no_prolongation_dims():
    code, out = run_cli(["oracle", spec_path("r1.alg"), "--degree", "2"])
    d = as_dict(out)
    assert d["ansatz_dims_by_degree"] == "[1, 1, 1, 1]"
    assert "prolongation_dims_by_degree" not in d


def test_struct_format_is_json():
    code, out = run_cli(["validate", spec_path("engel.alg"), "--format", "struct"])
    assert code == 0
    obj = json.loads(out)
    assert obj["valid"] is True
    assert obj["layer_dims"] == [2, 1, 1]


@pytest.mark.parametrize("argv", [
    ["validate", "ENGEL"],
    ["prolong", "ENGEL"],
    ["verify", "ENGEL"],
    ["oracle", "ENGEL", "--degree", "4"],
    ["validate", "ENGEL", "--format", "struct"],
])
def test_outputs_are_byte_identical(argv):
    argv = [a if a != "ENGEL" else spec_path("engel.alg") for a in argv]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("command, name", [
    ("prolong", "engel"),
    ("prolong", "heisenberg"),
    ("prolong", "r1"),
    ("prolong", "r2_co2"),
    ("prolong", "r3_co3"),
    ("verify", "engel"),
    # generated specs, stored next to their reports
    ("verify", "heis_x_r"),
    ("verify", "free_3_2"),
    ("verify", "cartan_235"),
    ("verify", "two_centre"),
    ("oracle", "engel"),
    ("oracle", "heis_x_r"),
    ("oracle", "free_3_2"),
    ("oracle", "cartan_235"),
    ("oracle", "two_centre"),
])
def test_report_matches_saved_copy(command, name):
    # the saved copies pin basis order and signs, which two runs of the
    # same code cannot; the generated specs run the oracle at degree 3,
    # engel at its bundled degree
    stored = GOLDEN / f"{name}.alg"
    argv = [command, str(stored) if stored.exists() else spec_path(name + ".alg")]
    if command == "oracle" and stored.exists():
        argv += ["--degree", "3"]
    code, out = run_cli(argv)
    assert code == 0
    assert out == (GOLDEN / f"{command}_{name}.txt").read_text(encoding="utf-8")


FILIFORM = ("[algebra]\nname = filiform\nlayer -1 = X1 X2\nlayer -2 = Y\nlayer -3 = Z\n"
            "layer -4 = W\n[X1,X2] = Y\n[X1,Y] = Z\n[X1,Z] = W\n")


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_step_four_is_a_structured_failure(tmp_path, command):
    spec = tmp_path / "filiform.alg"
    spec.write_text(FILIFORM)
    for fmt in ("text", "struct"):
        code, out = run_cli([command, str(spec), "--format", fmt])
        assert code == 1
        d = as_dict(out) if fmt == "text" else json.loads(out)
        assert d["overall"] == "FAIL"
        assert d["failure"] == "UnsupportedStep: step 4 exceeds the supported truncation (3)"
    assert run_cli(["prolong", str(spec)])[0] == 0


def test_missing_file_exit_2(capsys):
    code = main(["validate", "/nonexistent/missing.alg"])
    assert code == 2


def test_text_and_struct_agree_on_numbers():
    _, text = run_cli(["prolong", spec_path("engel.alg")])
    _, struct = run_cli(["prolong", spec_path("engel.alg"), "--format", "struct"])
    d, obj = as_dict(text), json.loads(struct)
    for key in ("g0_dim", "total_dim", "terminated_at", "derivations_dim"):
        assert d[key] == str(obj[key])
    assert d["levels"] == str(obj["levels"]).replace("'", "")


# -- input boundary: located parse errors and usage errors -----------------


def test_zero_denominator_is_a_located_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("[algebra]\nlayer -1 = X1 X2\nlayer -2 = Y\n[X1,X2] = 1/0 Y\n")
    with pytest.raises(ParseError) as err:
        parse_spec_file(str(bad))
    assert (err.value.line, err.value.col) == (4, 11)
    assert main(["validate", str(bad)]) == 2
    assert re.search(r"bad\.alg:4:11: zero denominator", capsys.readouterr().err)


@pytest.mark.parametrize("condition, entry, col", [
    ("B(0,0)", "B(0,0)", 13),
    ("B(1,2) - B(5,1)", "B(5,1)", 22),
])
def test_condition_outside_first_layer_is_a_parse_error(tmp_path, capsys, condition, entry, col):
    bad = tmp_path / "bad.alg"
    bad.write_text("[algebra]\nlayer -1 = X1 X2\n[g0]\nconstraint = explicit\n"
                   f"condition = B(1,1) - B(2,2)\ncondition = {condition}\n")
    with pytest.raises(ParseError) as err:
        parse_spec_file(str(bad))
    assert (err.value.line, err.value.col) == (6, col)
    assert f"{entry} outside the 2x2 first-layer block" in str(err.value)
    assert main(["prolong", str(bad)]) == 2
    assert f"bad.alg:6:{col}:" in capsys.readouterr().err


def test_condition_range_is_only_checked_under_explicit_constraint():
    spec = parse_spec_text("[algebra]\nlayer -1 = X1 X2\n[g0]\ncondition = B(5,1)\n")
    assert spec.g0_kind == "conformal"


@pytest.mark.parametrize("argv", [
    ["prolong", "ENGEL", "--max-k", "-1"],
    ["oracle", "ENGEL", "--degree", "-3"],
    ["oracle", "ENGEL", "--max-k", "x"],
])
def test_negative_or_malformed_counts_are_usage_errors(argv, capsys):
    argv = [a if a != "ENGEL" else spec_path("engel.alg") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--max-k" in err or "--degree" in err


def test_zero_max_k_is_accepted():
    code, out = run_cli(["prolong", spec_path("r1.alg"), "--max-k", "0"])
    assert code == 0
    assert as_dict(out)["status"] == "cutoff_reached"


ENGEL_ALGEBRA = ("[algebra]\nname = engel\nlayer -1 = X1 X2\nlayer -2 = Y\nlayer -3 = Z\n"
                 "[X1,X2] = Y\n[X1,Y] = Z\n[recipe]\nfactor = X2 Y Z\n")


@pytest.mark.parametrize("last_factor, col, message", [
    ("factor = X1 Q", 13, "factor entry 'Q' is no basis name"),
    ("factor = X1 Y", 13, "factor entry 'Y' is listed twice"),
    ("factor = X2", 10, "factor entry 'X2' is listed twice"),
    ("  factor =", 3, "factors leave out X1"),
])
def test_recipe_factor_errors_are_located_parse_errors(tmp_path, capsys, last_factor, col,
                                                       message):
    bad = tmp_path / "bad.alg"
    bad.write_text(ENGEL_ALGEBRA + last_factor + "\n")
    with pytest.raises(ParseError) as err:
        parse_spec_file(str(bad))
    assert (err.value.line, err.value.col) == (10, col)
    assert str(err.value).endswith(message)
    for command in ("validate", "prolong", "verify", "oracle"):
        assert main([command, str(bad)]) == 2
        assert f"bad.alg:10:{col}: {message}" in capsys.readouterr().err


def test_recipe_over_a_repeated_basis_name_leaves_the_repeat_to_validation(tmp_path):
    spec = tmp_path / "repeat.alg"
    spec.write_text("[algebra]\nlayer -1 = X X\n[recipe]\nfactor = X\n")
    code, out = run_cli(["validate", str(spec)])
    assert code == 1
    assert as_dict(out)["violation"] == "InvalidAlgebra: duplicate basis names"


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_colliding_coordinate_names_are_a_structured_failure(tmp_path, command):
    spec = tmp_path / "collide.alg"
    spec.write_text("[algebra]\nname = collide\nlayer -1 = X x\nlayer -2 = Y\n[X,x] = Y\n")
    for fmt in ("text", "struct"):
        code, out = run_cli([command, str(spec), "--format", fmt])
        assert code == 1
        d = as_dict(out) if fmt == "text" else json.loads(out)
        assert d["overall"] == "FAIL"
        assert d["failure"] == "CoordinateCollision: coordinate names collide after lowercasing"
    for command in ("validate", "prolong"):
        assert run_cli([command, str(spec)])[0] == 0
