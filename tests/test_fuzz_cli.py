"""Property tests of the command line over generated and mutated spec files.

Every input must end in a report or a located message, with exit code 0,
1 or 2, never in a traceback, and the report must not change between runs.
"""

import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from carnot import bundled_spec
from carnot.cli import main

from .conftest import (FULL_DERIVATIONS, ZERO_G0, cartan_235_spec, free_step_two_spec,
                       heisenberg_spec, scale_family_text)

COMMANDS = (["validate"], ["prolong"], ["verify"], ["oracle", "--degree", "2"])

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def spec_texts(draw):
    # Every bracket with the first generator is set.  When it is the only
    # one acting and each lower layer is a single element, the spec
    # satisfies Jacobi and generation whenever it has 2 generators or one
    # layer, so about half the specs reach the later stages, step 4 and 5
    # included.
    only_first = draw(st.booleans())
    depth = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, 3))]
    sizes += [1 if only_first else draw(st.integers(1, 2)) for _ in range(depth - 1)]
    layers = [[f"E{d}_{i}" for i in range(n)] for d, n in enumerate(sizes, start=1)]
    lines = ["[algebra]", "name = fuzz"]
    lines += [f"layer -{d} = {' '.join(names)}" for d, names in enumerate(layers, start=1)]
    for d1 in range(1, depth + 1):
        for d2 in range(d1, depth + 1 - d1):
            targets = layers[d1 + d2 - 1]
            for a in layers[d1 - 1]:
                for b in layers[d2 - 1]:
                    if d1 == d2 and a >= b:
                        continue
                    if a != layers[0][0] and (only_first or not draw(st.booleans())):
                        continue
                    terms = draw(st.lists(st.tuples(coefficients, st.sampled_from(targets)),
                                          min_size=1, max_size=2, unique_by=lambda t: t[1]))
                    rhs = " + ".join(f"{c} {name}" for c, name in terms)
                    lines.append(f"[{a},{b}] = {rhs}")
    lines += ["[g0]", f"constraint = {draw(st.sampled_from(['conformal', 'full_derivations']))}"]
    return "\n".join(lines) + "\n"


# Pieces of the spec language that malformed files are made of: section
# headers, recipe factors, first-layer conditions and degenerate numbers,
# and a line holding the byte 0xff, which is not UTF-8 (the lone surrogate
# "\udcff" is written as the byte it escapes).
TOKENS = ("[recipe]", "[algebra]", "[g0]", "[options]", "factor", "=", "factor =", "B(1,2)",
          "B(3,1)", "B(0,0)", "1/0", "0", "1/2", "-", "+", "X1", "X2", "x1", "Y", "Z", "Q",
          "layer", "-1", "-4", "[X1,Y]", "explicit", "condition", "max_k", "#")
LINES = ("[recipe]", "name = \udcff", "factor = X1 Q", "factor = X2 Y Z", "factor = X1",
         "factor =", "[recipe]\nfactor = X1 X2 Y", "[recipe]\nfactor = X2 x1", "[X1,X2] = 1/0 Y",
         "[X1,X2] = Y + Y", "[X2,Y] = Z", "[X1,Z] = Y", "constraint = explicit",
         "condition = B(1,2) - B(3,1)", "condition = B(1,1)", "layer -2 = x1", "layer -2 = Y'",
         "layer -3 = Z", "layer -4 = W", "oracle_degree = 1")


def _statements(name):
    with open(bundled_spec(name), encoding="utf-8") as fh:
        return tuple(line for line in fh.read().splitlines() if line and line[0] != "#")


BUNDLED = tuple(_statements(name) for name in ("engel.alg", "heisenberg.alg", "r1.alg",
                                               "r2_co2.alg", "r3_co3.alg"))


@st.composite
def mutated_specs(draw):
    """A bundled spec with a few lines or tokens inserted, deleted or duplicated."""
    lines = list(draw(st.sampled_from(BUNDLED)))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(("line", "token")))
        op = draw(st.sampled_from(("insert", "delete", "duplicate")))
        if kind == "line" or i == len(lines):
            if op == "insert" or i == len(lines):
                lines.insert(i, draw(st.sampled_from(LINES)))
            elif op == "delete":
                del lines[i]
            else:
                lines.insert(i, lines[i])
            continue
        # token edits go to the value side of "key = value" lines, where
        # names, factors, conditions and coefficients are
        key, sep, value = lines[i].rpartition(" = ")
        tokens = value.split()
        j = draw(st.integers(0, len(tokens)))
        if op == "insert" or j == len(tokens):
            tokens.insert(j, draw(st.sampled_from(TOKENS)))
        elif op == "delete":
            del tokens[j]
        else:
            tokens.insert(j, tokens[j])
        lines[i] = key + sep + " ".join(tokens)
    return "\n".join(lines) + "\n"


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec_texts())
def test_every_command_ends_in_a_report_or_a_located_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in COMMANDS:
            argv = [command[0], path, "--max-k", "2", *command[1:]]
            code, out = run(argv)
            assert code in (0, 1, 2), (argv, text)
            assert run(argv) == (code, out), (argv, text)
            if command[0] == "oracle":
                check_realization(out, text)


def check_realization(out, text):
    """Every terminated tower is realized, and its fields span the ansatz
    solution whenever the dimensions agree."""
    report = dict(line.split(" = ", 1) for line in out.splitlines())
    if report.get("prolongation_status") != "terminated" or "failure" in report:
        return
    assert report["tau_available"] == "true", text
    if report["dims_agree"] == "true":
        assert report["span_match"] == "true", text


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_specs())
def test_malformed_spec_text_ends_in_a_report_or_a_located_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.alg")
        with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(text)
        for command in COMMANDS:
            argv = [command[0], path, "--max-k", "2", *command[1:]]
            code, _ = run(argv)
            assert code in (0, 1, 2), (argv, text)


G0_BODIES = (FULL_DERIVATIONS, "constraint = conformal", ZERO_G0)


@st.composite
def primed_specs(draw):
    """A valid spec from the generators of ``tests/conftest.py`` with one
    layer -1 name primed wherever it is used, the primed name, and the line
    and column of its layer entry."""
    text = draw(st.one_of(
        st.builds(free_step_two_spec, st.integers(2, 4), st.sampled_from(G0_BODIES)),
        st.sampled_from(G0_BODIES).map(cartan_235_spec),
        st.sampled_from(G0_BODIES).map(heisenberg_spec),
        st.sampled_from([f"{kind}{n}" for kind in "rh" for n in (1, 2, 3)]).map(
            scale_family_text)))
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("layer -1 ="))
    entries = list(re.finditer(r"\S+", lines[lineno - 1].split("=", 1)[1]))
    entry = draw(st.sampled_from(entries))
    primed = entry.group(0) + "'"
    col = len(lines[lineno - 1].split("=", 1)[0]) + 1 + entry.start() + 1
    text = re.sub(rf"\b{re.escape(entry.group(0))}\b", primed, text)
    return text, primed, lineno, col


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(primed_specs())
def test_a_primed_generator_is_a_located_parse_error(case):
    # a primed name would collide with the primed copy of a coordinate in
    # the ring of the group law; the parser stops at its layer entry
    text, primed, lineno, col = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "primed.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("validate", "verify"):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
                code = main([command, path])
            assert (code, out.getvalue(), err.getvalue()) == (
                2, "", f"carnot: {path}:{lineno}:{col}: layer entry {primed!r} is no basis "
                       "name: a letter, then letters, digits or _\n"), text
