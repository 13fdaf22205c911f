import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import carnot
from carnot import bundled_spec as spec_path
from carnot.cli import (ParseError, Report, _dense_str, _field_str, _homomorphism_check,
                        _parser, main, parse_spec_file, parse_spec_text, run_verify,
                        spec_algebra, spec_constraint, spec_recipe)
from carnot.contact_pde import solve_polynomial_conformal
from carnot.group_realization import (Frame, PolyVectorField, _flow_generators,
                                      left_invariant_frame)
from carnot.prolongation import constrain_g0, full_prolongation, strata_derivations
from .conftest import (BUNDLED, FULL_DERIVATIONS, GOLDEN, TERMINATING, ZERO_G0,
                       assert_int_when_integral, cartan_235_spec, dense_action,
                       free_step_two_spec, heisenberg_spec, named_spec, scale_family_text,
                       spec_file, spec_text, spec_tower, to_coords)


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


@pytest.mark.parametrize("first, second, message", [
    ("[X1,X2] = Y", "[X1,X2] = 2 Y", "bracket [X1,X2] listed twice"),
    ("[X1,X2] = Y", "[X2,X1] = Y", "bracket [X2,X1] listed twice (as [X1,X2])"),
    ("[X2,X1] = -Y", "[X1,X2] = Y", "bracket [X1,X2] listed twice (as [X2,X1])"),
    ("[X1,X2] = Y", "[X1,X1] = Y", "bracket [X1,X1] of an element with itself"),
])
def test_a_repeated_or_self_bracket_is_a_located_parse_error(tmp_path, capsys, first, second,
                                                             message):
    # either orientation of a listed pair, or an element with itself, is
    # found at its line, before any algebra is built
    bad = tmp_path / "bad.alg"
    bad.write_text(f"[algebra]\nlayer -1 = X1 X2\nlayer -2 = Y\n{first}\n  {second}\n")
    for command in ("validate", "verify"):
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr() == ("", f"carnot: {bad}:5:3: {message}\n")


@pytest.mark.parametrize("layer, col, name", [
    ("X X' W", 14, '"X\'"'), ("X1 1Y", 15, "'1Y'")])
def test_a_layer_entry_outside_the_name_grammar_is_a_located_parse_error(tmp_path, capsys,
                                                                        layer, col, name):
    # a primed name would collide with the primed copy of a coordinate in
    # the ring of the group law; every command stops at the name
    bad = tmp_path / "bad.alg"
    bad.write_text(f"[algebra]\nlayer -1 = {layer}\n")
    for command in ("validate", "prolong", "verify", "oracle"):
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr() == (
            "", f"carnot: {bad}:2:{col}: layer entry {name} is no basis name: "
                "a letter, then letters, digits or _\n")


@pytest.mark.parametrize("line, col, name", [
    ("[1X,X2] = Y", 2, "'1X'"), ("  [Xé, X2] = Y", 4, "'Xé'"), ("[X1, 2 ] = Y", 6, "'2'")])
def test_a_bracket_entry_outside_the_name_grammar_is_a_located_parse_error(tmp_path, capsys,
                                                                          line, col, name):
    # the two names of a bracket line follow the grammar of layer entries,
    # so a Unicode word or a leading digit is no unknown name but a parse error
    bad = tmp_path / "bad.alg"
    bad.write_text(f"[algebra]\nlayer -1 = X1 X2\nlayer -2 = Y\n{line}\n", encoding="utf-8")
    for command in ("validate", "verify"):
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"carnot: {bad}:4:{col}: bracket entry {name} is no basis name: "
            "a letter, then letters, digits or _")


def test_validate_semantic_failure_exit_1(tmp_path):
    # the whole report, as main renders every InvalidAlgebra
    bad = tmp_path / "bad.alg"
    for text, violation in [
            ("[algebra]\nlayer -1 = A B\nlayer -2 = C\n[A,B] = A\n",
             "GradingViolation: [A,B] has component A of weight -1, expected -2"),
            ("[algebra]\nlayer -1 = A B\nlayer -2 = C\n",
             "GenerationFailure: layer -1 does not generate the lower layers")]:
        bad.write_text(text)
        assert run_cli(["validate", str(bad)]) == (
            1, f"command = validate\nname = unnamed\nvalid = false\nviolation = {violation}\n")
        assert run_cli(["validate", str(bad), "--format", "struct"]) == (
            1, '{\n  "command": "validate",\n  "name": "unnamed",\n  "valid": false,\n'
               f'  "violation": "{violation}"\n}}\n')


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


def test_verify_pushes_the_translation_family_forward_once(monkeypatch):
    # every left translation is decided by one pushforward of the law, with
    # its first point symbolic, and one Gram test of its columns; so is
    # every dilation, by the family with the scale symbolic.  No single
    # translation or dilation is built at runtime: the tests keep
    # left_translation as the reference
    import carnot
    import carnot.group_realization as group_realization
    assert not hasattr(carnot, "left_translation")
    assert not hasattr(group_realization, "left_translation")
    import carnot.cli as cli
    rings = []
    original = group_realization.pushforward

    def counting(pmap, frame):
        rings.append(pmap[0].ring.names)
        return original(pmap, frame)
    # verify pushes the translation family forward itself, and the other
    # two maps through similarity_check
    monkeypatch.setattr(cli, "pushforward", counting)
    monkeypatch.setattr(group_realization, "pushforward", counting)
    code, _ = run_cli(["verify", spec_path("engel.alg")])
    assert code == 0
    coords = ("x1", "x2", "y", "z")
    assert rings == [coords + tuple(f"{x}'" for x in coords), ("λ",) + coords, coords]


def test_verify_makes_three_similarity_checks(monkeypatch):
    # the translation family, the dilation family and the automorphism:
    # no check at a sampled point or at a fixed scale.  The translation
    # family is pushed forward in verify itself, which reads its factor off
    # the same columns as the homomorphism check, so similarity_check runs
    # on the other two only
    import carnot.cli as cli
    import carnot.group_realization as group_realization
    assert not hasattr(cli, "DILATION_SCALES")
    factors, similar = [], []

    def factor(cols, frame, _original=group_realization.conformal_factor):
        factors.append(_original(cols, frame))
        return factors[-1]

    def similarity(pmap, frame, _original=cli.similarity_check):
        similar.append(_original(pmap, frame))
        return similar[-1]
    monkeypatch.setattr(cli, "conformal_factor", factor)
    monkeypatch.setattr(group_realization, "conformal_factor", factor)
    monkeypatch.setattr(cli, "similarity_check", similarity)
    code, out = run_cli(["verify", spec_path("engel.alg")])
    assert code == 0
    assert "dilation_scales" not in as_dict(out)
    assert [str(k) for k in factors] == ["1", "λ^2", "None"]
    assert [str(k) for k in similar] == ["λ^2", "None"]


def test_a_misweighted_dilation_family_fails_verify(monkeypatch):
    # scaled by lambda^(2w) the family is a similarity with the factor
    # lambda^4, not the square of the scale: one failure line, for the
    # family, naming no scale
    import carnot.cli as cli
    from carnot.group_realization import dilations

    def squared(recipe):
        ring = dilations(recipe)[0].ring
        lam = ring.var(0)
        return tuple(lam ** (2 * w) * ring.var(1 + c)
                     for c, w in enumerate(recipe.coord_weights))
    monkeypatch.setattr(cli, "dilations", squared)
    code, out = run_cli(["verify", spec_path("engel.alg")])
    assert code == 1
    d = as_dict(out)
    assert d["translations_similar"] == "true"
    assert d["dilation_similar_with_square_scale"] == "false"
    failures = [v for k, v in d.items() if k.startswith("failure_")]
    assert failures == ["dilations not similar with the square of the scale"]


def test_verify_reports_each_translation_that_is_not_similar(monkeypatch):
    # on the right-invariant frame no left translation is a similarity; the
    # family fails as one identity, in one failure line that names no point
    import carnot.cli as cli
    monkeypatch.setattr(cli, "left_invariant_frame",
                        lambda recipe: Frame(recipe, _flow_generators(recipe, right=True)))
    code, out = run_cli(["verify", spec_path("engel.alg")])
    assert code == 1
    d = as_dict(out)
    assert "translations_checked" not in d
    assert d["translations_similar"] == "false"
    assert d["failure_5"] == "left translations not similar"
    assert "failure_6" not in d


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


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize("spec", [spec_path("engel.alg"), str(GOLDEN / "cartan_235.alg")],
                         ids=["engel", "cartan_235"])
def test_one_group_law_per_command(monkeypatch, command, spec):
    # the frame, the right-invariant fields and every left translation are
    # read off one symbolic product; engel's two-factor recipe is the
    # costliest, cartan_235 the one of step 3
    import carnot.group_realization as group_realization
    calls = []

    def counting(*args, _original=group_realization.group_product):
        calls.append(args)
        return _original(*args)
    monkeypatch.setattr(group_realization, "group_product", counting)
    code, _ = run_cli([command, spec])
    assert code == 0
    assert len(calls) == 1


def test_realize_tau_makes_no_rref_call(monkeypatch):
    # heisenberg has levels (2, 2, 1) over two layers: each level field is
    # a series in the bracket table, with no elimination, where one per
    # level and layer made six
    import carnot.cli as cli
    import carnot.exact_linalg as exact_linalg
    calls = []
    inside = []
    realized = []

    def counting_rref(m, _original=exact_linalg.rref):
        calls.append(bool(inside))
        return _original(m)

    def marked(*args, _original=cli.realize_tau):
        inside.append(True)
        try:
            fields = _original(*args)
            realized.append(len(fields))
            return fields
        finally:
            inside.pop()
    monkeypatch.setattr(exact_linalg, "rref", counting_rref)
    monkeypatch.setattr(cli, "realize_tau", marked)
    run_cli(["verify", spec_path("heisenberg.alg")])
    assert realized == [8]
    assert calls and calls.count(True) == 0


def test_verify_certifies_each_field_as_contact_twice(monkeypatch):
    # the residual kernel runs once in conformal_defect, which certifies
    # contact from that run, and once in jet for all of the field's points
    import carnot.contact_pde as contact_pde
    calls = []

    def counting(*args, _original=contact_pde._system_terms):
        calls.append(args)
        return _original(*args)
    monkeypatch.setattr(contact_pde, "_system_terms", counting)
    code, out = run_cli(["verify", spec_path("engel.alg")])
    assert code == 0
    assert len(calls) == 2 * int(as_dict(out)["fields"]) == 10


def test_verify_with_injected_field_fails():
    spec = parse_spec_file(spec_path("engel.alg"))
    from carnot.cli import spec_algebra, spec_recipe
    from carnot.group_realization import left_invariant_frame
    g = spec_algebra(spec)
    frame = left_invariant_frame(spec_recipe(spec, g))
    ring = frame.ring
    bad = PolyVectorField((ring.zero(), ring.zero(), ring.one(), ring.zero()))
    report = Report()
    code = run_verify(spec, report, max_k=10, extra_fields=[bad])
    assert code == 1
    d = dict(report.items)
    assert d["overall"] == "FAIL"
    assert d["contact_defects_zero"] is False
    assert d["failure_1"].startswith("contact defect nonzero for injected_1: ")


def _all_pairs_homomorphism(algebra, taucoords, ring, labels):
    """Reference for the homomorphism check: every pair a < b is bracketed."""
    from carnot.contact_pde import vf_bracket
    epsilon = None
    failures = []
    for a in range(algebra.dim):
        for b in range(a + 1, algebra.dim):
            lhs = vf_bracket(taucoords[a], taucoords[b])
            rhs = [ring.zero()] * len(lhs)
            for i, c in algebra.bracket_table[a][b]:
                rhs = [x + c * y for x, y in zip(rhs, taucoords[i])]
            if all(r.is_zero() for r in rhs) and all(l.is_zero() for l in lhs):
                continue
            matched = None
            for cand in (Fraction(1), Fraction(-1)):
                if all((l - cand * r).is_zero() for l, r in zip(lhs, rhs)):
                    matched = cand
                    break
            if matched is None:
                failures.append(f"bracket mismatch at ({labels[a]},{labels[b]})")
            elif epsilon is None:
                epsilon = matched
            elif matched != epsilon:
                failures.append("homomorphism sign is not uniform")
    return epsilon, failures


def realized_fields(name):
    """The prolongation algebra of a named spec, its realized fields, its
    frame and the pushforward of its translation family, as ``run_verify``
    passes them to the homomorphism check."""
    from carnot.group_realization import pushforward, realize_tau
    spec = named_spec(name)
    g = spec_algebra(spec)
    g0 = constrain_g0(strata_derivations(g), spec_constraint(spec))
    algebra, _ = full_prolongation(g, g0, max_k=spec.max_k)
    recipe = spec_recipe(spec, g)
    frame = left_invariant_frame(recipe)
    return algebra, realize_tau(algebra, frame), frame, pushforward(recipe.law, frame)


def all_pairs_reference(algebra, fields, frame, labels):
    """The verdict of ``_all_pairs_homomorphism`` on the fields in coordinates."""
    taucoords = [to_coords(frame, f.components) for f in fields]
    return _all_pairs_homomorphism(algebra, taucoords, frame.ring, labels)


def test_terminating_names_every_bundled_and_saved_tower_that_terminates():
    names = BUNDLED + tuple(path.stem for path in GOLDEN.glob("*.alg"))
    terminating = set()
    for name in names:
        if spec_tower(named_spec(name))[1].terminated:
            terminating.add(name)
    assert terminating == set(TERMINATING)


@pytest.mark.parametrize("name", TERMINATING + ("r3", "r4", "r5", "r6", "r7", "r8",
                                                "h1", "h2", "h3"))
def test_layer_minus_one_pairs_give_the_verdict_of_all_pairs(name):
    algebra, fields, frame, translations = realized_fields(name)
    labels = list(algebra.labels)
    result = _homomorphism_check(algebra, fields, frame, translations, labels)
    assert result == (Fraction(-1), [])
    assert all_pairs_reference(algebra, fields, frame, labels) == result


@pytest.mark.parametrize("name", ["engel", "heisenberg", "two_centre"])
def test_a_corrupted_level_field_fails_at_a_layer_minus_one_pair(name):
    # x1 X2 has degree 1 - 1 = 0: a wrong term of the same degree as the
    # first level field, so the field stays homogeneous
    algebra, fields, frame, translations = realized_fields(name)
    labels = list(algebra.labels)
    u = algebra.weights.index(0)
    assert tuple(algebra.negative.weights[:2]) == (-1, -1)
    comps = list(fields[u].components)
    comps[1] = comps[1] + frame.ring.var(0)
    fields[u] = PolyVectorField(tuple(comps))
    _, failures = _homomorphism_check(algebra, fields, frame, translations, labels)
    _, reference = all_pairs_reference(algebra, fields, frame, labels)
    assert failures and set(failures) <= set(reference)
    # a pair fails where the field is bracketed and where it is a bracket
    pairs = [set(re.fullmatch(r"bracket mismatch at \((\w+),(\w+)\)", line).groups())
             for line in failures]
    horizontal = {labels[a] for a, w in enumerate(algebra.weights) if w == -1}
    assert all(pair & horizontal for pair in pairs)
    assert any(labels[u] in pair for pair in pairs)


@pytest.mark.parametrize("name", ["engel", "heisenberg", "two_centre"])
def test_each_sign_flip_names_its_pair(name):
    # the negated first level field flips the sign of every checked pair it
    # is a member of, or whose bracket it is: one failure line per pair,
    # each naming it, where one repeated line said that the sign flipped
    algebra, fields, frame, translations = realized_fields(name)
    labels = list(algebra.labels)
    u = algebra.weights.index(0)
    fields[u] = PolyVectorField(tuple(-f for f in fields[u].components))
    epsilon, failures = _homomorphism_check(algebra, fields, frame, translations, labels)
    assert epsilon == -1
    assert len(set(failures)) == len(failures)
    horizontal = {labels[a] for a, w in enumerate(algebra.weights) if w == -1}
    assert {f"homomorphism sign flips at ({x},{labels[u]})" for x in horizontal} <= set(failures)
    for line in failures:
        pair = re.fullmatch(r"homomorphism sign flips at \((\w+),(\w+)\)", line).groups()
        assert set(pair) & horizontal


def run_engel_verify():
    code, out = run_cli(["verify", spec_path("engel.alg")])
    d = as_dict(out)
    return code, d, [v for k, v in d.items() if k.startswith("failure_")]


def test_a_law_that_moves_the_identity_fails_verify(monkeypatch):
    # the law shifted by a constant on the central z is L_{x exp(Z)}: every
    # member preserves the frame, and frame and generators, read off the
    # parts of the law linear in one point, are unchanged; but L_0 is not
    # the identity, so the translation family says nothing about [R_v, X_i]
    import carnot.cli as cli

    def shifted(spec, g, _original=cli.spec_recipe):
        recipe = _original(spec, g)
        law = list(recipe.law)
        law[-1] = law[-1] + 1
        recipe.__dict__["law"] = tuple(law)
        return recipe
    monkeypatch.setattr(cli, "spec_recipe", shifted)
    code, d, failures = run_engel_verify()
    assert code == 1
    assert failures == ["group law does not fix the identity"]
    assert (d["epsilon"], d["homomorphism_sign_uniform"]) == ("0", "false")
    assert d["translations_similar"] == "true"


def test_translations_that_only_rotate_the_frame_fail_verify(monkeypatch):
    # the translation columns turned by a quarter turn in the X1, X2 plane
    # are still a similarity with factor 1, but no longer the identity
    import carnot.cli as cli

    def turned(pmap, frame, _original=cli.pushforward):
        cols = _original(pmap, frame)
        return [cols[1], [-x for x in cols[0]]] + cols[2:]
    monkeypatch.setattr(cli, "pushforward", turned)
    code, d, failures = run_engel_verify()
    assert code == 1
    assert failures == ["left translations do not preserve the frame"]
    assert (d["epsilon"], d["homomorphism_sign_uniform"]) == ("0", "false")
    assert d["translations_similar"] == "true"


@pytest.mark.parametrize("name", ["engel", "cartan_235"])
def test_a_frame_off_its_relations_fails_the_homomorphism_check(name):
    # a term added below the diagonal of the first deep frame field breaks
    # the relation that defines it; the law and the horizontal frame
    # fields stay, so the translation family still fixes the frame
    from carnot.group_realization import pushforward
    algebra, fields, frame, _ = realized_fields(name)
    g = frame.algebra
    t = next(iter(g.spanned_by))
    columns = [list(col) for col in frame.columns]
    columns[t][-1] = columns[t][-1] + frame.ring.var(0) ** (-g.weights[-1] + g.weights[t])
    stand_in = Frame(frame.recipe, columns)
    translations = pushforward(frame.recipe.law, stand_in)
    assert all(x == (1 if i == j else 0) for i, col in enumerate(translations)
               for j, x in enumerate(col))
    i, j = next((i, j) for _, i, j in g.spanned_by[t])
    assert _homomorphism_check(algebra, fields, stand_in, translations, list(algebra.labels)) \
        == (None, [f"frame bracket [{g.names[i]},{g.names[j]}] is not the algebra's"])


@pytest.mark.parametrize("name, calls", [("engel", 7), ("heis_x_r", 12), ("free_3_2", 24),
                                         ("cartan_235", 11), ("two_centre", 34), ("r8", 324)])
def test_verify_brackets_only_the_pairs_with_a_layer_minus_one_member(monkeypatch, tmp_path,
                                                                     name, calls):
    # all pairs are 10, 15, 45, 21, 55 and 990.  Each checked pair is
    # derivatives along R_x in frame components, with no bracket of vector
    # fields: what is left is one frame relation per generation pair, the
    # entries of spanned_by
    import carnot.cli as cli
    pairs, brackets = [], []

    def along(right, v, comps, _original=cli._bracket_along):
        pairs.append(v)
        return _original(right, v, comps)

    def bracket(*args, _original=cli.vf_bracket):
        brackets.append(args)
        return _original(*args)
    monkeypatch.setattr(cli, "_bracket_along", along)
    monkeypatch.setattr(cli, "vf_bracket", bracket)
    if name in TERMINATING:
        path = spec_file(name)
    else:
        path = tmp_path / f"{name}.alg"
        path.write_text(scale_family_text(name))
    code, out = run_cli(["verify", str(path)])
    d = as_dict(out)
    assert (d["epsilon"], d["homomorphism_sign_uniform"]) == ("-1", "true")
    assert len(pairs) == calls
    g = spec_algebra(named_spec(name))
    assert len(brackets) == sum(map(len, g.spanned_by.values()))
    assert len(brackets) == {"engel": 2, "heis_x_r": 1, "free_3_2": 3, "cartan_235": 3,
                             "two_centre": 2, "r8": 0}[name]
    # R^8 ends in FAIL at jet_one_part_zero, after the homomorphism check
    assert code == (1 if name == "r8" else 0)


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
    assert d["tau_available"] == "true"
    assert d["span_match"] == "true"


def test_oracle_heisenberg_below_the_top_degree_misses_the_span():
    # the degree-2 field of level 2 is realized but lies outside the
    # degree-1 ansatz, so both the count and the span disagree
    code, out = run_cli(["oracle", spec_path("heisenberg.alg"), "--degree", "1"])
    assert code == 1
    d = as_dict(out)
    assert d["dims_agree"] == "false"
    assert d["tau_available"] == "true"
    assert d["span_match"] == "false"
    assert d["overall"] == "FAIL"


def test_oracle_warns_that_a_low_degree_misses_fields():
    code, out = run_cli(["oracle", spec_path("heisenberg.alg"), "--degree", "0"])
    assert code == 1
    d = as_dict(out)
    assert (d["ansatz_dim"], d["prolongation_total"]) == ("5", "8")
    assert d["dims_agree"] == "false"
    assert d["warning"] == ("cutoff too small: ansatz dimension is below the "
                            "prolongation total; raise --degree")


def test_oracle_agrees_with_a_zero_g0(tmp_path):
    # g0 = 0 leaves H_1 with g_- and a zero first level: total 3; the
    # oracle reads the same condition rows, so it finds the same 3 fields
    path = tmp_path / "heis_rigid.alg"
    path.write_text(heisenberg_spec(ZERO_G0))
    code, out = run_cli(["oracle", str(path), "--degree", "2"])
    assert code == 0
    d = as_dict(out)
    assert d["ansatz_dims_by_degree"] == "[1, 2, 0, 0, 0]"
    assert (d["ansatz_dim"], d["prolongation_total"]) == ("3", "3")
    assert (d["dims_agree"], d["span_match"]) == ("true", "true")
    assert "warning" not in d
    code, out = run_cli(["verify", str(path)])
    assert code == 0
    d = as_dict(out)
    assert d["g0_defects_zero"] == "true"
    assert "conformal_defects_zero" not in d


# towers of every strata-preserving derivation: g2 on the (2,3,5) algebra
# (Cartan 1910, Yamaguchi 1993) and so(n, n+1) on the free step-2 algebra
# on n generators, of dimension n(2n+1)
@pytest.mark.parametrize("text, degree, dims", [
    (cartan_235_spec(FULL_DERIVATIONS), 3, [2, 1, 2, 4, 2, 1, 2]),
    (free_step_two_spec(3, FULL_DERIVATIONS), 3, [3, 3, 9, 3, 3, 0]),
    (free_step_two_spec(4, FULL_DERIVATIONS), 2, [6, 4, 16, 4, 6]),
], ids=["g2", "so(3,4)", "so(4,5)"])
def test_oracle_and_verify_read_the_full_derivation_g0(tmp_path, text, degree, dims):
    path = tmp_path / "tower.alg"
    path.write_text(text)
    code, out = run_cli(["oracle", str(path), "--degree", str(degree)])
    assert code == 0
    d = as_dict(out)
    assert d["ansatz_dims_by_degree"] == str(dims)
    assert d["prolongation_total"] == d["ansatz_dim"] == str(sum(dims))
    assert (d["dims_agree"], d["span_match"]) == ("true", "true")
    # the fields are true symmetries of the structure; only part 1 of
    # their jets, nonzero where g1 is, still fails
    _, out = run_cli(["verify", str(path)])
    d = as_dict(out)
    assert (d["contact_defects_zero"], d["g0_defects_zero"]) == ("true", "true")
    assert "conformal_defects_zero" not in d
    assert (d["jet_zero_part_in_g0"], d["jet_derivation_law"]) == ("true", "true")
    assert d["jet_one_part_zero"] == "false"
    failures = [v for k, v in d.items() if k.startswith("failure_")]
    assert failures and all(f.startswith("one-part of ") for f in failures)


# non-terminating towers cut at their max_k: each block of the oracle has
# the dimension of its level, up to the cutoff.  On R^3 with B(1,2) = B(1,3)
# = 0, f_1 depends on x_1 alone, since block entry (r, c) is X_c(f_r) in the
# oracle as in constrain_g0; reading the rows transposed gives level 1 the
# dimension 12
@pytest.mark.parametrize("text, degree, dims", [
    ((GOLDEN / "r3_gl.alg").read_text(), 2, [3, 9, 18, 30]),
    ((GOLDEN / "h1_der.alg").read_text(), 3, [1, 2, 4, 6, 9, 12]),
    (spec_text("r3_row1", [["X1", "X2", "X3"]], {},
               "constraint = explicit\ncondition = B(1,2)\ncondition = B(1,3)")
     + "[options]\nmax_k = 2\n", 2, [3, 7, 13, 21]),
], ids=["r3_gl", "h1_der", "r3_row1"])
def test_oracle_blocks_equal_the_levels_of_a_cut_off_tower(tmp_path, text, degree, dims):
    path = tmp_path / "cut.alg"
    path.write_text(text)
    code, out = run_cli(["oracle", str(path), "--degree", str(degree)])
    assert code == 0
    d = as_dict(out)
    assert d["prolongation_status"] == "cutoff_reached"
    assert d["ansatz_dims_by_degree"] == str(dims)
    levels = json.loads(run_cli(["prolong", str(path), "--format", "struct"])[1])["levels"]
    assert dims[-(degree + 1):] == levels[:degree + 1]


def scale_family_spec(tmp_path, name):
    """Spec file of H_n (``h<n>``) or R^n (``r<n>``) with the conformal g0."""
    path = tmp_path / f"{name}.alg"
    path.write_text(scale_family_text(name))
    return str(path)


# two specs whose level bases hold non-integer entries, and four cut-off towers
@pytest.mark.parametrize("name, fractional, max_k", [
    pytest.param("heisenberg", True, None, id="heisenberg-True"),
    pytest.param("h3", True, None, id="h3-True"),
    pytest.param("r3_gl", False, None, id="r3_gl-False"),
    pytest.param("h1_der", False, None, id="h1_der-False"),
    ("r1", False, 6), ("r2_co2", False, 6)])
def test_level_basis_lines_equal_the_dense_rendering(tmp_path, name, fractional, max_k):
    # each g{k}_basis_{b} line writes only the nonzero entries and the runs
    # of zeros between them; the reference writes every local coordinate
    if name == "h3":
        path = scale_family_spec(tmp_path, name)
    elif (GOLDEN / f"{name}.alg").exists():
        path = str(GOLDEN / f"{name}.alg")
    else:
        path = spec_path(name + ".alg")
    spec = parse_spec_file(path)
    g = spec_algebra(spec)
    g0 = constrain_g0(strata_derivations(g), spec_constraint(spec))
    max_k = spec.max_k if max_k is None else max_k
    s, _ = full_prolongation(g, g0, max_k=max_k)
    expected = {}
    for lvl in s.levels[1:]:
        for b in range(lvl.dim):
            expected[f"g{lvl.k}_basis_{b + 1}"] = "; ".join(
                f"{g.names[j]}:[" + ", ".join(map(str, dense_action(lvl, b, j))) + "]"
                for j in range(g.dim))
    assert any("/" in line for line in expected.values()) == fractional
    for fmt in ("text", "struct"):
        code, out = run_cli(["prolong", path, "--format", fmt, "--max-k", str(max_k)])
        assert code == 0
        d = as_dict(out) if fmt == "text" else json.loads(out)
        assert {k: v for k, v in d.items() if re.fullmatch(r"g[1-9]\d*_basis_\d+", k)} == expected


# dim su(n+1,1) = (n+2)^2 - 1 for H_n (Koranyi-Reimann) and dim so(n+1,1) =
# (n+1)(n+2)/2 for R^n (Liouville); the top level has degree 2 and 1
@pytest.mark.parametrize("name, total, degree", [
    ("h1", 8, 2), ("h2", 15, 2), ("r3", 10, 1), ("r4", 15, 1), ("r5", 21, 1)])
def test_scale_families_realize_every_level(tmp_path, name, total, degree):
    spec = scale_family_spec(tmp_path, name)
    _, out = run_cli(["verify", spec])
    d = as_dict(out)
    assert d["total_dim"] == d["fields"] == str(total)
    assert d["contact_defects_zero"] == "true"
    assert d["conformal_defects_zero"] == "true"
    assert d["epsilon"] == "-1"
    assert d["homomorphism_sign_uniform"] == "true"
    code, out = run_cli(["oracle", spec, "--degree", str(degree)])
    d = as_dict(out)
    assert d["prolongation_total"] == d["ansatz_dim"] == str(total)
    assert d["tau_available"] == "true"
    assert d["span_match"] == "true"
    assert code == 0


def test_verify_failure_lines_name_each_failing_field_once():
    # the jet checks are identities in the point, so a failing field gets
    # one line, in basis order, and no line names a point
    code, out = run_cli(["verify", spec_path("heisenberg.alg")])
    assert code == 1
    assert "Fraction(" not in out and "at (" not in out
    failures = [v for k, v in as_dict(out).items() if k.startswith("failure_")]
    assert failures == [f"one-part of {label} jet nonzero" for label in ("u1_1", "u1_2", "u2_1")]


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
    # non-integral structure constants
    ("prolong", "half_constants"),
    ("verify", "half_constants"),
    ("oracle", "half_constants"),
    # saved as --format struct (.json)
    ("prolong", "free_3_2"),
    ("prolong", "cartan_235"),
    # full-derivation towers, cut by the max_k of their stored specs
    ("prolong", "h1_der"),
    ("prolong", "r3_gl"),
    ("oracle", "h1_der"),
    # the terminating full-derivation tower g2
    ("oracle", "g2_full"),
])
def test_report_matches_saved_copy(command, name):
    # the saved copies pin what two runs of the same code cannot: the
    # prolong and verify reports print the g0 and level bases and the
    # realized fields, so they pin basis order and signs; an oracle report
    # prints only counts and verdicts (its fields are pinned by
    # test_oracle_fields_match_saved_copy).  The generated specs run the
    # oracle at degree 3, engel at its bundled degree
    stored = GOLDEN / f"{name}.alg"
    argv = [command, str(stored) if stored.exists() else spec_path(name + ".alg")]
    if command == "oracle" and stored.exists():
        argv += ["--degree", "3"]
    saved = GOLDEN / f"{command}_{name}.txt"
    if not saved.exists():
        # the JSON copies pin what text cannot: a Fraction entry, zeros
        # included, renders as a string such as "0"
        saved = saved.with_suffix(".json")
        argv += ["--format", "struct"]
    code, out = run_cli(argv)
    assert code == 0
    assert out == saved.read_text(encoding="utf-8")


# every verify and degree-2 oracle report of engel and of the specs stored
# in tests/golden, in --format struct, with its exit code.  The JSON pins
# the type of each reported number: a Fraction prints as a string such as
# "1", so an int that reached a report would show as 1
STRUCT_SPECS = ("engel", "cartan_235", "free_3_2", "g2_full", "h1_der", "half_constants",
                "heis_x_r", "r3_gl", "two_centre")
FAILING_STRUCT = {("verify", "g2_full"), ("verify", "h1_der"), ("verify", "r3_gl"),
                  ("oracle_degree2", "g2_full")}


@pytest.mark.parametrize("saved", ["verify", "oracle_degree2"])
@pytest.mark.parametrize("name", STRUCT_SPECS)
def test_struct_report_matches_saved_copy(saved, name):
    stored = GOLDEN / f"{name}.alg"
    argv = [saved.split("_")[0], str(stored) if stored.exists() else spec_path(name + ".alg")]
    if saved == "oracle_degree2":
        argv += ["--degree", "2"]
    code, out = run_cli(argv + ["--format", "struct"])
    assert code == (1 if (saved, name) in FAILING_STRUCT else 0)
    assert out == (GOLDEN / "struct" / f"{saved}_{name}.json").read_text(encoding="utf-8")


# the bundled specs with g1 != 0: verify fails at part 1 of the jets, and
# the saved copies pin the failure lines, one per failing field
@pytest.mark.parametrize("name", ["heisenberg", "r3_co3"])
def test_failing_report_matches_saved_copy(name):
    code, out = run_cli(["verify", spec_path(name + ".alg")])
    assert code == 1
    assert out == (GOLDEN / f"verify_{name}.txt").read_text(encoding="utf-8")


# the oracle's fields themselves, one line each in the report's rendering,
# so that a change of the echelon basis or of its signs shows
@pytest.mark.parametrize("name, degree", [("engel", 6), ("g2_full", 3)])
def test_oracle_fields_match_saved_copy(name, degree):
    stored = GOLDEN / f"{name}.alg"
    spec = parse_spec_file(str(stored) if stored.exists() else spec_path(name + ".alg"))
    g = spec_algebra(spec)
    frame = left_invariant_frame(spec_recipe(spec, g))
    fields = solve_polynomial_conformal(frame, spec_constraint(spec), degree).fields
    out = "".join(f"field_{i} = {_field_str(g, f)}\n" for i, f in enumerate(fields, start=1))
    assert out == (GOLDEN / f"oracle_fields_{name}.txt").read_text(encoding="utf-8")


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


# the bad byte follows a two-byte "é" and a line ended by "\r\n"
def test_non_utf8_file_is_a_located_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"[algebra]\r\nname = \xc3\xa9\xff\nlayer -1 = X1\n")
    with pytest.raises(ParseError) as err:
        parse_spec_file(str(bad))
    assert (err.value.line, err.value.col) == (2, 9)
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == f"carnot: {bad}:2:9: not UTF-8 text\n"


def test_byte_order_mark_is_not_content(tmp_path, capsys):
    engel = spec_path("engel.alg")
    bom = tmp_path / "bom.alg"
    with open(engel, "rb") as fh:
        bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
    for argv in (["validate"], ["prolong"]):
        for fmt in ("text", "struct"):
            assert run_cli(argv + [str(bom), "--format", fmt]) == \
                run_cli(argv + [engel, "--format", fmt])
    # errors on line 1 keep their columns: the mark is not counted
    bom.write_bytes(b"\xef\xbb\xbf  [nope]\n")
    assert main(["validate", str(bom)]) == 2
    assert capsys.readouterr().err == (f"carnot: {bom}:1:3: unknown section [nope]; the sections "
                                       "are [algebra], [g0], [recipe], [options]\n")
    bom.write_bytes(b"\xef\xbb\xbfname = \xc3\xa9\xff\n")
    assert main(["validate", str(bom)]) == 2
    assert capsys.readouterr().err == f"carnot: {bom}:1:9: not UTF-8 text\n"


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


@pytest.mark.parametrize("text, line, col", [
    ("[bogus]\n[algebra]\nlayer -1 = A\n", 1, 1),
    ("[algebra]\nlayer -1 = A B\n  [bogus]\n[A,B] = 0\n", 3, 3),
])
def test_unknown_section_is_a_located_parse_error(tmp_path, capsys, text, line, col):
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == (f"carnot: {bad}:{line}:{col}: unknown section [bogus]; "
                                       "the sections are [algebra], [g0], [recipe], [options]\n")


@pytest.mark.parametrize("condition, row", [
    ("B(1,2) + B(2,1) - B(1,2)", {(1, 0): 1}),
    ("B(1,1) - B(2,2) + B(1,1) + B(2,2)", {(0, 0): 2}),
    ("B(1,1) - B(1,1)", None),
    ("B(1,2) - B(2,1) + B(2,1) - B(1,2)", None),
])
def test_condition_entries_that_cancel_are_dropped(tmp_path, capsys, condition, row):
    text = ("[algebra]\nlayer -1 = X1 X2\nlayer -2 = Y\n[X1,X2] = Y\n[g0]\n"
            f"constraint = explicit\ncondition = {condition}\n")
    bad = tmp_path / "cond.alg"
    bad.write_text(text)
    if row is None:
        # a row that constrains nothing is the empty condition
        assert main(["prolong", str(bad)]) == 2
        assert capsys.readouterr().err == f"carnot: {bad}:7:1: empty condition\n"
        return
    spec = parse_spec_text(text)
    assert spec.g0_conditions == [row]
    assert_int_when_integral(row.values())
    assert main(["prolong", str(bad)]) == 0


@pytest.mark.parametrize("condition, row", [
    ("2 B(1,1) - B(2,2)", {(0, 0): 2, (1, 1): -1}),
    ("1/2 B(1,2) + B(2,1)", {(0, 1): Fraction(1, 2), (1, 0): 1}),
])
def test_condition_coefficients_are_read_as_in_brackets(tmp_path, condition, row):
    text = f"[algebra]\nlayer -1 = X1 X2\n[g0]\nconstraint = explicit\ncondition = {condition}\n"
    spec = parse_spec_text(text)
    assert spec.g0_conditions == [row]
    assert_int_when_integral(row.values())
    path = tmp_path / "cond.alg"
    path.write_text(text)
    code, out = run_cli(["prolong", str(path), "--max-k", "0"])
    assert code == 0
    # the one condition leaves a 3-dimensional g0 inside gl(2)
    assert as_dict(out)["g0_dim"] == "3"


@pytest.mark.parametrize("condition, col, message", [
    ("B(1,1) foo B(2,2)", 20, "expected '+' or '-'"),
    ("B(1,1) B(2,2)", 20, "expected '+' or '-'"),
    ("1/0 B(1,1)", 13, "zero denominator in coefficient"),
    ("2 X1", 15, "expected B(r,c)"),
])
def test_condition_text_that_is_not_a_term_is_a_located_parse_error(tmp_path, capsys, condition,
                                                                     col, message):
    bad = tmp_path / "bad.alg"
    bad.write_text(f"[algebra]\nlayer -1 = X1 X2\n[g0]\nconstraint = explicit\n"
                   f"condition = {condition}\n")
    assert main(["prolong", str(bad)]) == 2
    assert capsys.readouterr().err == f"carnot: {bad}:5:{col}: {message}\n"


SINGLE_VALUED = ("[algebra]\nname = some\nlayer -1 = X1 X2\n[g0]\nconstraint = conformal\n"
                 "[options]\nmax_k = 2\noracle_degree = 2\n")


@pytest.mark.parametrize("first, repeat", [
    ("name = some", "name = other"),
    ("constraint = conformal", "constraint = full_derivations"),
    ("max_k = 2", "max_k = 4"),
    ("oracle_degree = 2", "oracle_degree = 4"),
])
def test_a_repeated_single_valued_line_is_a_located_parse_error(tmp_path, capsys, first, repeat):
    text = SINGLE_VALUED.replace(f"{first}\n", f"{first}\n  {repeat}\n")
    lineno = text.splitlines().index(f"  {repeat}") + 1
    key = repeat.split(" = ")[0]
    with pytest.raises(ParseError) as err:
        parse_spec_text(text)
    assert (err.value.line, err.value.col) == (lineno, 3)
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == f"carnot: {bad}:{lineno}:3: {key} listed twice\n"
    # each line given once is accepted
    (tmp_path / "good.alg").write_text(SINGLE_VALUED)
    assert main(["validate", str(tmp_path / "good.alg")]) == 0


@pytest.mark.parametrize("line, col, message", [
    ("max_k = -1", 9, "max_k must be a non-negative integer"),
    ("oracle_degree = x", 17, "oracle_degree must be a non-negative integer"),
    ("  max_k=1.5", 9, "max_k must be a non-negative integer"),
    ("oracle_degree =", 16, "oracle_degree must be a non-negative integer"),
    ("max_depth = 3", 1, "unrecognized option line: 'max_depth = 3'"),
])
def test_an_option_value_that_is_not_a_count_is_a_located_parse_error(tmp_path, capsys, line,
                                                                       col, message):
    text = f"[algebra]\nlayer -1 = X1 X2\n[options]\n{line}\n"
    with pytest.raises(ParseError) as err:
        parse_spec_text(text)
    assert (err.value.line, err.value.col) == (4, col)
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == f"carnot: {bad}:4:{col}: {message}\n"


def test_condition_range_is_only_checked_under_explicit_constraint():
    # without constraint = explicit the condition line itself is the error
    with pytest.raises(ParseError) as err:
        parse_spec_text("[algebra]\nlayer -1 = X1 X2\n[g0]\ncondition = B(5,1)\n")
    assert (err.value.line, err.value.col) == (4, 1)
    assert "outside" not in str(err.value)
    assert "needs constraint = explicit, not conformal" in str(err.value)


@pytest.mark.parametrize("g0, line, col, kind", [
    ("condition = B(1,2)", 4, 1, "conformal"),
    ("  condition = B(1,2)\nconstraint = full_derivations", 4, 3, "full_derivations"),
    ("constraint = conformal\ncondition = B(1,1)\ncondition = B(1,2)", 5, 1, "conformal"),
])
def test_a_condition_without_explicit_constraint_is_a_located_parse_error(tmp_path, capsys,
                                                                          g0, line, col, kind):
    path = tmp_path / "spec.alg"
    path.write_text(f"[algebra]\nlayer -1 = X1 X2\n[g0]\n{g0}\n")
    assert main(["prolong", str(path)]) == 2
    assert capsys.readouterr().err == (f"carnot: {path}:{line}:{col}: a condition line needs "
                                       f"constraint = explicit, not {kind}\n")
    # the same lines under constraint = explicit are accepted
    explicit = g0.replace(f"constraint = {kind}", "constraint = explicit")
    if explicit == g0:
        explicit = "constraint = explicit\n" + g0
    path.write_text(f"[algebra]\nlayer -1 = X1 X2\n[g0]\n{explicit}\n")
    assert main(["validate", str(path)]) == 0


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


@pytest.mark.parametrize("argv, last", [
    (["prolong", "ENGEL", "--max-k", "abc"], "argument --max-k: must be a non-negative integer, "
                                             "got 'abc'"),
    (["prolong", "ENGEL", "--max-k", "-1"], "argument --max-k: must be a non-negative integer, "
                                            "got '-1'"),
    (["oracle", "ENGEL", "--degree", "1.5"], "argument --degree: must be a non-negative integer, "
                                             "got '1.5'"),
])
def test_a_bad_count_names_the_rule_not_the_converter(argv, last, capsys):
    argv = [a if a != "ENGEL" else spec_path("engel.alg") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert err.splitlines()[-1] == f"carnot {argv[0]}: error: {last}"


def _fresh_process(argv):
    """Exit code, stdout and stderr of ``argv`` run by a new interpreter."""
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(carnot.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "carnot.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_the_shared_parser_carries_nothing_from_one_call_to_the_next(monkeypatch, capsys):
    # COLUMNS fixes the width of the usage lines on both sides
    monkeypatch.setenv("COLUMNS", "80")
    engel = spec_path("engel.alg")
    calls = [["prolong", engel, "--format", "struct"],
             ["oracle", engel, "--degree", "x"],
             ["oracle", engel, "--degree", "2"],
             ["prolong", engel]]
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh_process(argv), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0]
    assert out.startswith("command = prolong\n")
    assert "degree" not in as_dict(out)


def test_main_builds_the_parser_at_most_once(monkeypatch):
    # argparse's own super() calls name the class, so its __init__ is
    # wrapped in place; the four subcommand parsers pass through it too
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    _parser.cache_clear()
    engel = spec_path("engel.alg")
    for argv in (["validate", engel], ["prolong", engel], ["prolong", engel, "--max-k", "1"],
                 ["validate", engel, "--format", "struct"], ["validate", engel]):
        assert run_cli(argv)[0] == 0
    assert built == ["carnot"] + [f"carnot {name}" for name in
                                  ("validate", "prolong", "verify", "oracle")]


def _dense_reference(value, size):
    """Every local coordinate of a level value written out, zeros included."""
    cells = ["0"] * size
    for t, c in value.items():
        cells[t] = str(c)
    return ", ".join(cells)


def test_sparse_values_format_as_the_dense_join():
    rng = random.Random(2718)
    entries = (1, -1, 7, -12, Fraction(1, 2), Fraction(-3, 4), Fraction(22, 7))
    cases = [({}, 0), ({}, 1), ({0: 5}, 1), ({0: Fraction(-1, 3)}, 1), ({9: -2}, 10),
             ({3: 1, 0: Fraction(2, 5)}, 4)]
    for _ in range(300):
        size = rng.randrange(1, 40)
        picked = rng.sample(range(size), rng.randrange(min(size, 6) + 1))
        if rng.random() < 0.3:
            picked.append(size - 1)
        cases.append(({t: rng.choice(entries) for t in picked}, size))
    for value, size in cases:
        assert _dense_str(value, size) == _dense_reference(value, size), (value, size)


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
