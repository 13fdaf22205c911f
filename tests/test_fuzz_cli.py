"""Property test of the command line over small generated spec files.

Every input must end in a report or a located message, with exit code 0,
1 or 2, never in a traceback, and the report must not change between runs.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from carnot.cli import main

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
