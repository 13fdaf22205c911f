"""Command-line front end: parse algebra spec files, run the pipeline, report.

Commands: ``carnot validate|prolong|verify|oracle <file>``.  Reports are
flat ``key = value`` text or a JSON object (``--format struct``); all
numbers are exact rationals rendered as ``p/q``.  Exit codes: 0 all checks
pass, 1 semantic failure, 2 parse or usage error.

The argument parser is a constant: it is built once per process, on the
first :func:`main` call (not at import), and every later call reuses it.
``parse_args`` returns a fresh namespace each time and leaves the parser
unchanged, so no call sees the arguments of another.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .exact_linalg import Matrix, exact
from .graded_lie import GradedLieAlgebra, InvalidAlgebra, build_algebra
from .prolongation import (GZeroConstraint, constrain_g0, degree_zero_matrix,
                           full_prolongation, strata_derivations)
from .group_realization import (CoordinateCollision, CoordinateRecipe, Frame, PolyVectorField,
                                UnsupportedStep, conformal_factor, dilations,
                                extend_first_layer_automorphism, graded_automorphism,
                                left_invariant_frame, pushforward, realize_tau,
                                similarity_check)
from .polynomials import Poly
from .contact_pde import (NotContact, conformal_defect, contact_defect, jet,
                          jet_jacobi_check, same_span, solve_polynomial_conformal, vf_bracket)


class ParseError(Exception):
    def __init__(self, filename: str, line: int, col: int, message: str):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.filename = filename
        self.line = line
        self.col = col


@dataclass
class AlgebraSpec:
    """Parsed contents of a .alg file."""

    name: str = "unnamed"
    layers: list[list[str]] = field(default_factory=list)
    brackets: dict = field(default_factory=dict)
    g0_kind: str = "conformal"
    g0_conditions: list[dict] = field(default_factory=list)
    recipe_factors: list[list[str]] | None = None
    max_k: int = 10
    oracle_degree: int = 6


_SECTIONS = ("algebra", "g0", "recipe", "options")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")
_ENTRY_RE = re.compile(r"B\((\d+),(\d+)\)")
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")


def _parse_terms(expr: str, filename: str, lineno: int, base_col: int,
                 term_re: re.Pattern = _NAME_RE, what: str = "a basis name"):
    """Parse 'c1 N1 + c2 N2 - N3' style linear combinations: a list of
    ``(coefficient, match)``, one per term N that ``term_re`` matches."""
    terms = []
    pos = 0
    sign = Fraction(1)
    expect_term = True
    while pos < len(expr):
        ch = expr[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-":
            if expect_term and ch == "-":
                sign = -sign
                pos += 1
                continue
            if expect_term:
                pos += 1
                continue
            sign = Fraction(1) if ch == "+" else Fraction(-1)
            pos += 1
            expect_term = True
            continue
        if not expect_term:
            raise ParseError(filename, lineno, base_col + pos + 1, "expected '+' or '-'")
        m = _RATIONAL_RE.match(expr, pos)
        coeff = Fraction(1)
        if m and not expr[pos].isalpha():
            try:
                coeff = Fraction(m.group(0))
            except ZeroDivisionError:
                raise ParseError(filename, lineno, base_col + pos + 1,
                                 "zero denominator in coefficient") from None
            pos = m.end()
            while pos < len(expr) and expr[pos].isspace():
                pos += 1
        m = term_re.match(expr, pos)
        if m is None:
            if coeff == 0 and not terms and expr.strip() == "0":
                return []
            raise ParseError(filename, lineno, base_col + pos + 1, f"expected {what}")
        terms.append((sign * coeff, m))
        pos = m.end()
        sign = Fraction(1)
        expect_term = False
    if expect_term and terms:
        raise ParseError(filename, lineno, base_col + pos, "dangling operator")
    return terms


def parse_spec_text(text: str, filename: str = "<spec>") -> AlgebraSpec:
    spec = AlgebraSpec()
    section = None
    declared_layers: dict[int, list[str]] = {}
    entry_positions: list[tuple[int, int, int, int]] = []  # line, column, r, c of each B(r,c)
    factor_positions: list[tuple[int, int, str]] = []  # line, column, name of each factor entry
    condition_line = None  # line and column of the first condition line
    given: set[str] = set()  # the single-valued keys read so far

    def once(key: str, lineno: int, col: int) -> None:
        if key in given:
            raise ParseError(filename, lineno, col, f"{key} listed twice")
        given.add(key)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = line.index(stripped[0]) + 1
        m = re.fullmatch(r"\[(\w+)\]", stripped)
        if m:
            if m.group(1) not in _SECTIONS:
                raise ParseError(filename, lineno, col,
                                 f"unknown section [{m.group(1)}]; the sections are "
                                 + ", ".join(f"[{name}]" for name in _SECTIONS))
            section = m.group(1)
            continue
        if section is None:
            raise ParseError(filename, lineno, col, "content before any [section] header")
        if section == "algebra":
            if stripped.startswith("["):
                m = re.match(r"\[\s*(\w+)\s*,\s*(\w+)\s*\]\s*=\s*(.*)", stripped)
                if m is None:
                    raise ParseError(filename, lineno, col, "malformed bracket relation")
                a, b, expr = m.group(1), m.group(2), m.group(3)
                for group in (1, 2):
                    if not _NAME_RE.fullmatch(m.group(group)):
                        raise ParseError(filename, lineno, col + m.start(group),
                                         f"bracket entry {m.group(group)!r} is no basis "
                                         "name: a letter, then letters, digits or _")
                key = (a, b)
                if a == b:
                    raise ParseError(filename, lineno, col,
                                     f"bracket [{a},{a}] of an element with itself")
                if key in spec.brackets:
                    raise ParseError(filename, lineno, col, f"bracket [{a},{b}] listed twice")
                if (b, a) in spec.brackets:
                    raise ParseError(filename, lineno, col,
                                     f"bracket [{a},{b}] listed twice (as [{b},{a}])")
                spec.brackets[key] = [(c, t.group(0)) for c, t in
                                      _parse_terms(expr, filename, lineno, col + m.start(3) - 1)]
                continue
            m = re.match(r"name\s*=\s*(\S+)$", stripped)
            if m:
                once("name", lineno, col)
                spec.name = m.group(1)
                continue
            m = re.match(r"layer\s+(-\d+)\s*=\s*(.*)", stripped)
            if m:
                depth = -int(m.group(1))
                names = m.group(2).split()
                if depth < 1:
                    raise ParseError(filename, lineno, col, "layer depth must be negative")
                if depth in declared_layers:
                    raise ParseError(filename, lineno, col, f"layer -{depth} declared twice")
                if not names:
                    raise ParseError(filename, lineno, col, "empty layer")
                for nm in re.finditer(r"\S+", m.group(2)):
                    if not _NAME_RE.fullmatch(nm.group(0)):
                        raise ParseError(filename, lineno, col + m.start(2) + nm.start(),
                                         f"layer entry {nm.group(0)!r} is no basis name: "
                                         "a letter, then letters, digits or _")
                declared_layers[depth] = names
                continue
            raise ParseError(filename, lineno, col, f"unrecognized algebra line: {stripped!r}")
        if section == "g0":
            m = re.match(r"constraint\s*=\s*(\w+)$", stripped)
            if m:
                kind = m.group(1)
                if kind not in ("conformal", "full_derivations", "explicit"):
                    raise ParseError(filename, lineno, col, f"unknown constraint {kind!r}")
                once("constraint", lineno, col)
                spec.g0_kind = kind
                continue
            m = re.match(r"condition\s*=\s*(.*)", stripped)
            if m:
                row: dict = {}
                start = col + m.start(1)
                for a, em in _parse_terms(m.group(1), filename, lineno, start - 1,
                                          _ENTRY_RE, "B(r,c)"):
                    r, c = int(em.group(1)) - 1, int(em.group(2)) - 1
                    row[(r, c)] = row.get((r, c), 0) + a
                    entry_positions.append((lineno, start + em.start(), r, c))
                # entries that cancel constrain nothing
                row = {rc: exact(a) for rc, a in row.items() if a}
                if not row:
                    raise ParseError(filename, lineno, col, "empty condition")
                spec.g0_conditions.append(row)
                condition_line = condition_line or (lineno, col)
                continue
            raise ParseError(filename, lineno, col, f"unrecognized g0 line: {stripped!r}")
        if section == "recipe":
            m = re.match(r"factor\s*=\s*(.*)", stripped)
            if m:
                if spec.recipe_factors is None:
                    spec.recipe_factors = []
                spec.recipe_factors.append(m.group(1).split())
                factor_line = (lineno, col)
                factor_positions += [(lineno, col + m.start(1) + nm.start(), nm.group(0))
                                     for nm in re.finditer(r"\S+", m.group(1))]
                continue
            raise ParseError(filename, lineno, col, f"unrecognized recipe line: {stripped!r}")
        if section == "options":
            m = re.match(r"(max_k|oracle_degree)\s*=\s*(.*)", stripped)
            if m:
                key, value = m.group(1), m.group(2)
                if not re.fullmatch(r"\d+", value):
                    raise ParseError(filename, lineno, col + m.start(2),
                                     f"{key} must be a non-negative integer")
                once(key, lineno, col)
                setattr(spec, key, int(value))
                continue
            raise ParseError(filename, lineno, col, f"unrecognized option line: {stripped!r}")
    if not declared_layers:
        raise ParseError(filename, 1, 1, "no [algebra] layers declared")
    depths = sorted(declared_layers)
    if depths != list(range(1, len(depths) + 1)):
        raise ParseError(filename, 1, 1, "layer depths must be -1, -2, ... without gaps")
    spec.layers = [declared_layers[d] for d in depths]
    if spec.g0_kind == "explicit":
        width = len(spec.layers[0])
        for lineno, entry_col, r, c in entry_positions:
            if not (0 <= r < width and 0 <= c < width):
                raise ParseError(filename, lineno, entry_col,
                                 f"condition entry B({r + 1},{c + 1}) outside the "
                                 f"{width}x{width} first-layer block")
    elif condition_line is not None:
        # any other constraint would drop the rows unread
        raise ParseError(filename, *condition_line,
                         f"a condition line needs constraint = explicit, not {spec.g0_kind}")
    if spec.recipe_factors is not None:
        unplaced = list(dict.fromkeys(name for layer in spec.layers for name in layer))
        for lineno, name_col, name in factor_positions:
            if name not in unplaced:
                why = "listed twice" if any(name in ly for ly in spec.layers) else "no basis name"
                raise ParseError(filename, lineno, name_col, f"factor entry {name!r} is {why}")
            unplaced.remove(name)
        if unplaced:
            raise ParseError(filename, *factor_line, f"factors leave out {', '.join(unplaced)}")
    return spec


def parse_spec_file(path: str) -> AlgebraSpec:
    # an undecodable byte reads as a lone surrogate, reported where it
    # stands; a leading byte-order mark is dropped, so columns do not count it
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        text = fh.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        bad = _UNDECODABLE_RE.search(line)
        if bad:
            raise ParseError(path, lineno, bad.start() + 1, "not UTF-8 text")
    return parse_spec_text(text, path)


def spec_algebra(spec: AlgebraSpec) -> GradedLieAlgebra:
    return build_algebra(spec.layers, spec.brackets)


def spec_recipe(spec: AlgebraSpec, g: GradedLieAlgebra) -> CoordinateRecipe:
    if spec.recipe_factors is None:
        return CoordinateRecipe.single_factor(g)
    return CoordinateRecipe.from_factor_names(g, spec.recipe_factors)


def spec_constraint(spec: AlgebraSpec) -> GZeroConstraint:
    if spec.g0_kind == "conformal":
        return GZeroConstraint.conformal()
    if spec.g0_kind == "full_derivations":
        return GZeroConstraint.full_derivations()
    return GZeroConstraint.explicit(spec.g0_conditions)


# -- report rendering ----------------------------------------------------


_NUMBERS = {int, Fraction}  # compared with exact types, so a bool is not one


def _render_value(v) -> str:
    # bool is an int subclass, so it is told apart first
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        if _NUMBERS.issuperset(map(type, v)):
            # a flat list of numbers, such as a row of a g0_basis matrix
            return "[" + ", ".join(map(str, v)) + "]"
        return "[" + ", ".join(_render_value(x) for x in v) + "]"
    return str(v)


def _json_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, list):
        return [_json_value(x) for x in v]
    return v


class Report:
    """Ordered key/value report with text and JSON renderings."""

    def __init__(self):
        self.items: list[tuple[str, object]] = []

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def render(self, fmt: str) -> str:
        if fmt == "struct":
            obj = {k: _json_value(v) for k, v in self.items}
            return json.dumps(obj, indent=2, sort_keys=True) + "\n"
        return "".join(f"{k} = {_render_value(v)}\n" for k, v in self.items)


def _matrix_rows(m: Matrix) -> list:
    return [list(row) for row in m.entries]


def _field_str(g, field: PolyVectorField) -> str:
    parts = []
    for name, comp in zip(g.names, field.components):
        if not comp.is_zero():
            parts.append(f"({comp}) ~{name}")
    return " + ".join(parts) if parts else "0"


# -- commands -------------------------------------------------------------


def cmd_validate(spec: AlgebraSpec, report: Report) -> int:
    report.add("command", "validate")
    report.add("name", spec.name)
    # an InvalidAlgebra is reported by main, as for every command
    g = spec_algebra(spec)
    report.add("valid", True)
    report.add("dim", g.dim)
    report.add("step", g.step)
    report.add("layer_dims", g.layer_dims)
    # construction raises GenerationFailure unless layer -1 generates
    report.add("generated", True)
    return 0


def _prolong(spec: AlgebraSpec, max_k: int):
    g = spec_algebra(spec)
    ders = strata_derivations(g)
    g0 = constrain_g0(ders, spec_constraint(spec))
    algebra, rep = full_prolongation(g, g0, max_k=max_k)
    return g, ders, g0, algebra, rep


def _dense_str(value: dict[int, Fraction], size: int) -> str:
    """The ``size`` local coordinates of a level value ``{t: c}``, comma
    separated; each run of zeros is written in one step, so the work grows
    with the entries of ``value``, not with ``size``."""
    text = ""
    pos = 0
    for t in sorted(value):
        text += "0, " * (t - pos) + str(value[t]) + ", "
        pos = t + 1
    return (text + "0, " * (size - pos))[:-2]


def cmd_prolong(spec: AlgebraSpec, report: Report, max_k: int) -> int:
    report.add("command", "prolong")
    report.add("name", spec.name)
    g, ders, g0, algebra, rep = _prolong(spec, max_k)
    report.add("derivations_dim", ders.dim)
    report.add("g0_constraint", spec.g0_kind)
    report.add("g0_dim", g0.dim)
    for i, values in enumerate(g0.actions, start=1):
        report.add(f"g0_basis_{i}", degree_zero_matrix(g, values))
    report.add("levels", list(rep.level_dims))
    report.add("status", rep.status)
    if rep.terminated_at is not None:
        report.add("terminated_at", rep.terminated_at)
    report.add("total_dim", rep.total_dim)
    for lvl in algebra.levels:
        if lvl.k == 0:
            continue
        for b, values in enumerate(lvl.actions, start=1):
            desc = "; ".join(f"{name}:[{_dense_str(value, len(cols))}]"
                             for name, value, cols in zip(g.names, values, lvl.columns))
            report.add(f"g{lvl.k}_basis_{b}", desc)
    return 0


def _commutation_failure(frame: Frame, translations: list[list[Poly]]) -> str | None:
    """The failure line of the first premise of ``_homomorphism_check``
    that fails, P1 to P3, or None when all three hold.  ``translations``
    is the pushforward of the left translation family y -> mu(x, y)."""
    law = frame.recipe.law
    ring = law[0].ring
    n = len(frame)
    # P1: mu(0, y) = y, the part of the law free of x
    for c, comp in enumerate(law):
        if {e: x for e, x in comp.terms.items() if not any(e[:n])} != ring.var(n + c).terms:
            return "group law does not fix the identity"
    # P2: every left translation pushes each horizontal frame field to itself
    zero, one = ring.zero(), ring.one()
    if any(x != (one if i == j else zero)
           for i, col in enumerate(translations) for j, x in enumerate(col)):
        return "left translations do not preserve the frame"
    # P3: [X_i, X_j] = sum_k c_ij^k X_k on every generation pair
    g = frame.algebra
    zero = frame.ring.zero()
    for i, j in dict.fromkeys((i, j) for terms in g.spanned_by.values() for _, i, j in terms):
        expect = [sum((c * frame.columns[k][r] for k, c in g.rows[i][j]), zero)
                  for r in range(n)]
        if vf_bracket(frame.columns[i], frame.columns[j]) != expect:
            return f"frame bracket [{g.names[i]},{g.names[j]}] is not the algebra's"
    return None


def _put(out: dict, key: tuple, x) -> None:
    out[key] = out[key] + x if key in out else x


def _bracket_along(right, v: int, comps: list[dict]) -> dict:
    """``[R_v, sum_j f_j X_j]`` as frame terms ``{(j, e): c}``, the f_j
    given by their terms in ``comps``: ``sum_j R_v(f_j) X_j``, read from
    the derivative table ``right`` of the right-invariant fields.  One
    call per pair that ``_homomorphism_check`` brackets."""
    out: dict = {}
    for j, terms in enumerate(comps):
        for exp, c in terms.items():
            for e, d in right.derivative_terms(v, exp):
                _put(out, (j, e), c * d)
    return {key: c for key, c in out.items() if c}


def _homomorphism_check(algebra, fields: list[PolyVectorField], frame: Frame,
                        translations: list[list[Poly]], labels: list[str]
                        ) -> tuple[Fraction | None, list[str]]:
    """``[tau(a), tau(b)] = epsilon tau([a, b])`` with one sign ``epsilon``:
    the first sign matched (None when every checked pair is zero on both
    sides), and a failure line per pair that matches neither sign or not
    ``epsilon``.  ``fields[a]`` is ``tau(e_a)`` in components of
    ``frame``, and ``translations`` the pushforward of the left
    translation family y -> mu(x, y) (:func:`pushforward` of the law).

    A checked pair has a member x in layer -1, and ``tau(x)`` is the
    right-invariant field R_x (see ``realize_tau``).  For the other member
    ``tau(b) = sum_j f_j X_j``, ``[R_x, tau(b)] = sum_j R_x(f_j) X_j``
    once ``[R_v, X_j] = 0`` for every v and j: n derivatives along R_x,
    read from the recipe's table, compared with ``tau([x, b])`` term by
    term in frame components.  The commutation is proved, not assumed,
    from three premises, checked first; a failed one is the only failure
    line, with no pair verdicts.

    - P1: the law fixes the identity, ``mu(0, y) = y``.
    - P2: the translation family preserves the frame: its columns are
      the identity, ``translations[i][j] = delta_ij``, not only a
      similarity.  With L_0 = id by P1, differentiating
      ``(L_{t e_v})_* X_i = X_i`` at t = 0 gives ``[R_v, X_i] = 0`` for
      every horizontal X_i, since R_v is d/dt L_{t e_v} at t = 0.
    - P3: the frame relations ``[X_i, X_j] = sum_k c_ij^k X_k`` hold on
      each generation pair of ``g.spanned_by``.  So each deep X_t is
      ``sum c [X_i, X_j]`` over ``spanned_by[t]``, with X_i horizontal
      and X_j shallower, and the Jacobi identity for vector fields
      carries ``[R_v, X_t] = 0`` down by induction on depth.

    Only the pairs ``a < b`` with a member of weight -1 are bracketed, in
    lexicographic order; they prove the rest.  Write ``D(a, b)`` for the
    defect ``[tau(a), tau(b)] - epsilon tau([a, b])``, zero on every
    checked pair, so on every pair with a member x in layer -1.

    - A negative element of depth d > 1 is a sum of brackets [x, a'] with
      x in layer -1 and a' of depth d - 1, since layer -1 generates.  The
      Jacobi identity for vector fields and in s (``table_violation``
      checks the latter exhaustively), with ``epsilon**2 = 1``, gives
      ``D([x, a'], b) = epsilon [tau(x), D(a', b)] - epsilon [tau(a'),
      D(x, b)] - D(a', [x, b])``.  By induction on depth, D vanishes on
      every pair with a negative member.
    - For u in level i and v in level j, the same expansion gives
      ``[tau(x), D(u, v)] = epsilon (D([x, u], v) + D(u, [x, v]))`` for x
      in layer -1: pairs of lower total level, or with a negative member.
      By induction on i + j, ``D(u, v)`` commutes with every ``tau(x)``,
      the right-invariant field R_x.  A field that commutes with every
      R_x is left-invariant, of negative degree, while ``D(u, v)`` is
      homogeneous of degree i + j >= 0: ``realize_tau`` sums the field of
      a level-i element as the g_- part of Ad(p^-1) u, whose component j
      has weight i + |w_j|, so it is homogeneous of degree i.  So
      ``D(u, v) = 0``.
    """
    premise = _commutation_failure(frame, translations)
    if premise is not None:
        return None, [premise]
    right = frame.recipe.right_invariant
    comps = [[f.terms for f in fld.components] for fld in fields]
    epsilon = None
    failures: list[str] = []
    weights = algebra.weights
    for a in range(algebra.dim):
        for b in range(a + 1, algebra.dim):
            if weights[a] == -1:
                lhs = _bracket_along(right, algebra.sbasis[a][1], comps[b])
            elif weights[b] == -1:
                lhs = {key: -c for key, c in
                       _bracket_along(right, algebra.sbasis[b][1], comps[a]).items()}
            else:
                continue
            rhs: dict = {}
            for i, c in algebra.bracket_table[a][b]:
                for j, terms in enumerate(comps[i]):
                    for e, x in terms.items():
                        _put(rhs, (j, e), c * x)
            rhs = {key: x for key, x in rhs.items() if x}
            if not lhs and not rhs:
                continue
            if lhs == rhs:
                matched = Fraction(1)
            elif lhs == {key: -x for key, x in rhs.items()}:
                matched = Fraction(-1)
            else:
                failures.append(f"bracket mismatch at ({labels[a]},{labels[b]})")
                continue
            if epsilon is None:
                epsilon = matched
            elif matched != epsilon:
                failures.append(f"homomorphism sign flips at ({labels[a]},{labels[b]})")
    return epsilon, failures


def run_verify(spec: AlgebraSpec, report: Report, max_k: int,
               extra_fields: list[PolyVectorField] | None = None) -> int:
    report.add("command", "verify")
    report.add("name", spec.name)
    g, ders, g0, algebra, rep = _prolong(spec, max_k)
    report.add("total_dim", rep.total_dim)
    if not rep.terminated:
        report.add("overall", "FAIL")
        report.add("failure", "prolongation did not terminate; nothing to realize")
        return 1
    recipe = spec_recipe(spec, g)
    frame = left_invariant_frame(recipe)
    fields = realize_tau(algebra, frame)
    labels = list(algebra.labels)
    if extra_fields:
        fields = fields + list(extra_fields)
        labels += [f"injected_{i + 1}" for i in range(len(extra_fields))]
    report.add("fields", len(fields))
    for label, fld in zip(labels, fields):
        report.add(f"tau_{label}", _field_str(g, fld))
    failures: list[str] = []

    constraint = spec_constraint(spec)
    g0_name = "conformal" if constraint.kind == "conformal" else "g0"
    contact_ok = True
    g0_ok = True
    for label, fld in zip(labels, fields):
        # conformal_defect certifies contact; the defect is read on failure only
        try:
            cf = conformal_defect(fld, frame, constraint)
        except NotContact:
            contact_ok = False
            cd = contact_defect(fld, frame)
            failures.append(f"contact defect nonzero for {label}: {cd.nonzero()[0][0]}")
            continue
        if not cf.all_zero:
            g0_ok = False
            failures.append(f"{g0_name} defect nonzero for {label}")
    report.add("contact_defects_zero", contact_ok)
    report.add(f"{g0_name}_defects_zero", g0_ok)

    jets_zero_ok = True
    jets_one_ok = True
    jacobi_ok = True
    if contact_ok and g0_ok:
        # with the g0 defects zero, every part 0 lies in g0 = levels[0]; the
        # parts are polynomials in the point, so each check is an identity
        for label, fld in zip(labels, fields):
            jt = jet(fld, frame, algebra.levels)
            in_g0 = g0.coordinates_of_values(jt.parts[0]) is not None
            if not in_g0:
                jets_zero_ok = False
                failures.append(f"zero-part of {label} jet leaves g0")
            if not jt.part_is_zero(1):
                jets_one_ok = False
                failures.append(f"one-part of {label} jet nonzero")
            # g0 is built inside ders, so only a part outside g0 can fail the law
            if not in_g0 and not jet_jacobi_check(jt, ders):
                jacobi_ok = False
                failures.append(f"jet of {label} fails the derivation law")
    report.add("jet_zero_part_in_g0", jets_zero_ok)
    report.add("jet_one_part_zero", jets_one_ok)
    report.add("jet_derivation_law", jacobi_ok)

    # one identity in the parameters decides every member of a family: the
    # translating point for the left translations, the scale for the
    # dilations; the homomorphism check reads the translation columns too
    translations = pushforward(recipe.law, frame)
    if not extra_fields and contact_ok:
        epsilon, mismatches = _homomorphism_check(algebra, fields, frame, translations, labels)
        failures += mismatches
        report.add("epsilon", epsilon if epsilon is not None else 0)
        report.add("homomorphism_sign_uniform", not mismatches)

    translations_ok = conformal_factor(translations, frame) is not None
    if not translations_ok:
        failures.append("left translations not similar")
    report.add("translations_similar", translations_ok)

    family = dilations(recipe)
    scale = family[0].ring.var(0)
    dilation_ok = similarity_check(family, frame) == scale * scale
    if not dilation_ok:
        failures.append("dilations not similar with the square of the scale")
    report.add("dilation_similar_with_square_scale", dilation_ok)

    m = frame.horizontal
    if m >= 2:
        block = Matrix.identity(m)
        block.entries[1][1] = Fraction(2)
        try:
            phi = extend_first_layer_automorphism(g, block)
        except ValueError:
            report.add("automorphism_block", "not extendable")
        else:
            similar = similarity_check(graded_automorphism(recipe, phi), frame) is not None
            report.add("automorphism_block", _matrix_rows(block))
            report.add("automorphism_similar", similar)
            if similar:
                failures.append("anisotropic automorphism unexpectedly similar")
    ok = not failures
    report.add("overall", "PASS" if ok else "FAIL")
    for i, f in enumerate(failures, start=1):
        report.add(f"failure_{i}", f)
    return 0 if ok else 1


def cmd_oracle(spec: AlgebraSpec, report: Report, degree: int, max_k: int) -> int:
    report.add("command", "oracle")
    report.add("name", spec.name)
    report.add("degree", degree)
    g, ders, g0, algebra, rep = _prolong(spec, max_k)
    recipe = spec_recipe(spec, g)
    frame = left_invariant_frame(recipe)
    solution = solve_polynomial_conformal(frame, spec_constraint(spec), degree)
    report.add("ansatz_dim", solution.dim)
    report.add("ansatz_dims_by_degree", list(solution.block_dims))
    report.add("prolongation_status", rep.status)
    exit_code = 0
    if rep.terminated:
        report.add("prolongation_total", rep.total_dim)
        levels = list(rep.level_dims)
        while levels and not levels[-1]:
            levels.pop()
        report.add("prolongation_dims_by_degree", g.layer_dims[::-1] + levels)
        agree = solution.dim == rep.total_dim
        report.add("dims_agree", agree)
        if not agree:
            # the fields embed in the tower (Tanaka), so only a low cutoff misses some
            if solution.dim < rep.total_dim:
                report.add("warning", "cutoff too small: ansatz dimension is below the "
                                      "prolongation total; raise --degree")
            exit_code = 1
        report.add("tau_available", True)
        # a realized field above the cutoff has a term no oracle field has
        match = same_span(solution.fields, realize_tau(algebra, frame))
        report.add("span_match", match)
        if not match:
            exit_code = 1
    else:
        report.add("levels", list(rep.level_dims))
    report.add("overall", "PASS" if exit_code == 0 else "FAIL")
    return exit_code


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carnot",
        description="Exact prolongation of stratified Lie algebras and the "
                    "polynomial conformal fields they generate.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("validate", "parse a spec file and check the algebra axioms"),
            ("prolong", "compute derivations, g0 and the prolongation levels"),
            ("verify", "realize the algebra as vector fields and check everything"),
            ("oracle", "solve the bounded-degree system of the spec's g0 directly")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="algebra spec file (.alg)")
        p.add_argument("--format", choices=("text", "struct"), default="text")
        p.add_argument("--max-k", type=_nonnegative_int, default=None,
                       help="prolongation cutoff")
        if name == "oracle":
            p.add_argument("--degree", type=_nonnegative_int, default=None,
                           help="ansatz degree bound")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = parse_spec_file(args.file)
    except OSError as exc:
        print(f"carnot: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"carnot: {exc}", file=sys.stderr)
        return 2
    max_k = args.max_k if args.max_k is not None else spec.max_k
    report = Report()
    try:
        if args.command == "validate":
            code = cmd_validate(spec, report)
        elif args.command == "prolong":
            code = cmd_prolong(spec, report, max_k)
        elif args.command == "verify":
            code = run_verify(spec, report, max_k)
        else:
            degree = args.degree if args.degree is not None else spec.oracle_degree
            code = cmd_oracle(spec, report, degree, max_k)
    except InvalidAlgebra as exc:
        report = Report()
        report.add("command", args.command)
        report.add("name", spec.name)
        report.add("valid", False)
        report.add("violation", f"{type(exc).__name__}: {exc}")
        code = 1
    except (UnsupportedStep, CoordinateCollision) as exc:
        # verify and oracle need the group law in coordinates; what came before stays
        report.add("overall", "FAIL")
        report.add("failure", f"{type(exc).__name__}: {exc}")
        code = 1
    sys.stdout.write(report.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
