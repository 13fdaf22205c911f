"""Command-line front end: parse algebra spec files, run the pipeline, report.

Commands: ``carnot validate|prolong|verify|oracle <file>``.  Reports are
flat ``key = value`` text or a JSON object (``--format struct``); all
numbers are exact rationals rendered as ``p/q``.  Exit codes: 0 all checks
pass, 1 semantic failure, 2 parse or usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .exact_linalg import Matrix
from .graded_lie import GradedLieAlgebra, InvalidAlgebra, build_algebra, check_generation
from .prolongation import (GZeroConstraint, constrain_g0, degree_zero_matrix,
                           full_prolongation, strata_derivations)
from .group_realization import (CoordinateCollision, CoordinateRecipe, NotRealizable,
                                PolyVectorField, UnsupportedStep, dilation,
                                extend_first_layer_automorphism, graded_automorphism,
                                left_invariant_frame, left_translation, realize_tau,
                                similarity_check)
from .contact_pde import (NotContact, conformal_defect, contact_defect, jet,
                          jet_jacobi_check, same_span, solve_polynomial_conformal, vf_bracket)

VERIFY_SEED = 271828
JET_POINTS_PER_FIELD = 5
TRANSLATION_SAMPLES = 10
DILATION_SCALES = (Fraction(2), Fraction(1, 2), Fraction(7, 3))


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
_ENTRY_RE = re.compile(r"([+-]?)\s*(B\((\d+),(\d+)\))")


def _parse_terms(expr: str, filename: str, lineno: int, base_col: int):
    """Parse 'c1 N1 + c2 N2 - N3' style linear combinations of names."""
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
        m = _NAME_RE.match(expr, pos)
        if m is None:
            if coeff == 0 and not terms and expr.strip() == "0":
                return []
            raise ParseError(filename, lineno, base_col + pos + 1, "expected a basis name")
        terms.append((sign * coeff, m.group(0)))
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = line.index(stripped[0]) + 1
        m = re.fullmatch(r"\[(\w+)\]", stripped)
        if m and m.group(1) in _SECTIONS:
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
                key = (a, b)
                if key in spec.brackets:
                    raise ParseError(filename, lineno, col, f"bracket [{a},{b}] listed twice")
                spec.brackets[key] = _parse_terms(expr, filename, lineno, col + m.start(3) - 1)
                continue
            m = re.match(r"name\s*=\s*(\S+)$", stripped)
            if m:
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
                declared_layers[depth] = names
                continue
            raise ParseError(filename, lineno, col, f"unrecognized algebra line: {stripped!r}")
        if section == "g0":
            m = re.match(r"constraint\s*=\s*(\w+)$", stripped)
            if m:
                kind = m.group(1)
                if kind not in ("conformal", "full_derivations", "explicit"):
                    raise ParseError(filename, lineno, col, f"unknown constraint {kind!r}")
                spec.g0_kind = kind
                continue
            m = re.match(r"condition\s*=\s*(.*)", stripped)
            if m:
                row: dict = {}
                for em in _ENTRY_RE.finditer(m.group(1)):
                    r, c = int(em.group(3)) - 1, int(em.group(4)) - 1
                    coeff = Fraction(-1 if em.group(1) == "-" else 1)
                    row[(r, c)] = row.get((r, c), Fraction(0)) + coeff
                    entry_positions.append((lineno, col + m.start(1) + em.start(2), r, c))
                if not row:
                    raise ParseError(filename, lineno, col, "empty condition")
                spec.g0_conditions.append(row)
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
            m = re.match(r"(max_k|oracle_degree)\s*=\s*(\d+)$", stripped)
            if m:
                setattr(spec, m.group(1), int(m.group(2)))
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read(), path)


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


def _render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):  # a point
        return "(" + ", ".join(_render_value(x) for x in v) + ")"
    if isinstance(v, list):
        return "[" + ", ".join(_render_value(x) for x in v) + "]"
    return str(v)


def _json_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
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


def _rand_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-9, 9)
    den = rng.randint(1, 9)
    return Fraction(num, den)


def _rand_point(rng: random.Random, n: int) -> list[Fraction]:
    return [_rand_fraction(rng) for _ in range(n)]


def cmd_validate(spec: AlgebraSpec, report: Report) -> int:
    report.add("command", "validate")
    report.add("name", spec.name)
    try:
        g = spec_algebra(spec)
    except InvalidAlgebra as exc:
        report.add("valid", False)
        report.add("violation", f"{type(exc).__name__}: {exc}")
        return 1
    report.add("valid", True)
    report.add("dim", g.dim)
    report.add("step", g.step)
    report.add("layer_dims", g.layer_dims)
    report.add("generated", check_generation(g))
    return 0


def _prolong(spec: AlgebraSpec, max_k: int):
    g = spec_algebra(spec)
    ders = strata_derivations(g)
    g0 = constrain_g0(ders, spec_constraint(spec))
    algebra, rep = full_prolongation(g, g0, max_k=max_k)
    return g, ders, g0, algebra, rep


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
        for b in range(lvl.dim):
            desc = "; ".join(
                f"{g.names[j]}:[" + ", ".join(map(str, lvl.action(b, j))) + "]"
                for j in range(g.dim))
            report.add(f"g{lvl.k}_basis_{b + 1}", desc)
    return 0


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
    frame = left_invariant_frame(g, recipe)
    try:
        fields = realize_tau(algebra, frame)
    except NotRealizable as exc:
        report.add("overall", "FAIL")
        report.add("failure", f"NotRealizable: {exc}")
        return 1
    labels = list(algebra.labels)
    if extra_fields:
        fields = fields + list(extra_fields)
        labels += [f"injected_{i + 1}" for i in range(len(extra_fields))]
    report.add("fields", len(fields))
    for label, fld in zip(labels, fields):
        report.add(f"tau_{label}", _field_str(g, fld))
    failures: list[str] = []
    rng = random.Random(VERIFY_SEED)

    contact_ok = True
    conformal_ok = True
    for label, fld in zip(labels, fields):
        # conformal_defect certifies contact; the defect is read on failure only
        try:
            cf = conformal_defect(fld, frame)
        except NotContact:
            contact_ok = False
            cd = contact_defect(fld, frame)
            failures.append(f"contact defect nonzero for {label}: {cd.nonzero()[0][0]}")
            continue
        if not cf.all_zero:
            conformal_ok = False
            failures.append(f"conformal defect nonzero for {label}")
    report.add("contact_defects_zero", contact_ok)
    report.add("conformal_defects_zero", conformal_ok)

    jets_zero_ok = True
    jets_one_ok = True
    jacobi_ok = True
    if contact_ok and conformal_ok:
        for label, fld in zip(labels, fields):
            points = set()
            while len(points) < JET_POINTS_PER_FIELD:
                points.add(tuple(_rand_point(rng, g.dim)))
            for jt in jet(fld, frame, sorted(points)):
                at = _render_value(jt.point)
                in_g0 = g0.coordinates_of_values(jt.zero_part) is not None
                if not in_g0:
                    jets_zero_ok = False
                    failures.append(f"zero-part of {label} jet leaves g0 at {at}")
                if not jt.one_part.is_zero():
                    jets_one_ok = False
                    failures.append(f"one-part of {label} jet nonzero at {at}")
                # g0 is built inside ders, so only a part outside g0 can fail the law
                if not in_g0 and not jet_jacobi_check(jt, ders):
                    jacobi_ok = False
                    failures.append(f"jet of {label} fails the derivation law at {at}")
    report.add("jet_points_per_field", JET_POINTS_PER_FIELD)
    report.add("jet_zero_part_in_g0", jets_zero_ok)
    report.add("jet_one_part_zero", jets_one_ok)
    report.add("jet_derivation_law", jacobi_ok)

    epsilon = None
    sign_ok = not extra_fields
    if not extra_fields and contact_ok:
        taucoords = [frame.to_coords(list(f.components)) for f in fields]
        ring = frame.ring
        for a in range(algebra.dim):
            for b in range(a + 1, algebra.dim):
                lhs = vf_bracket(taucoords[a], taucoords[b])
                rhs = [ring.zero()] * g.dim
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
                    sign_ok = False
                    failures.append(f"bracket mismatch at ({labels[a]},{labels[b]})")
                elif epsilon is None:
                    epsilon = matched
                elif matched != epsilon:
                    sign_ok = False
                    failures.append("homomorphism sign is not uniform")
        report.add("epsilon", epsilon if epsilon is not None else 0)
        report.add("homomorphism_sign_uniform", sign_ok)

    translations_ok = True
    for _ in range(TRANSLATION_SAMPLES):
        p = _rand_point(rng, g.dim)
        if not similarity_check(left_translation(recipe, p), frame).ok:
            translations_ok = False
            failures.append(f"left translation by {_render_value(tuple(p))} not similar")
    report.add("translations_checked", TRANSLATION_SAMPLES)
    report.add("translations_similar", translations_ok)

    dilation_ok = True
    for lam in DILATION_SCALES:
        res = similarity_check(dilation(recipe, lam), frame)
        if not res.ok or res.scale != frame.ring.const(lam * lam):
            dilation_ok = False
            failures.append(f"dilation {lam} failed the similarity check")
    report.add("dilation_scales", list(DILATION_SCALES))
    report.add("dilation_similar_with_square_scale", dilation_ok)

    m = frame.horizontal
    if m >= 2:
        block = Matrix.identity(m)
        block.entries[1][1] = Fraction(2)
        try:
            phi = extend_first_layer_automorphism(g, block)
            res = similarity_check(graded_automorphism(recipe, phi), frame)
            report.add("automorphism_block", _matrix_rows(block))
            report.add("automorphism_similar", res.ok)
            if res.ok:
                failures.append("anisotropic automorphism unexpectedly similar")
        except ValueError:
            report.add("automorphism_block", "not extendable")
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
    frame = left_invariant_frame(g, recipe)
    solution = solve_polynomial_conformal(frame, degree)
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
            report.add("warning", "cutoff too small: ansatz dimension is below the "
                                  "prolongation total; raise --degree")
            exit_code = 1
        try:
            fields = realize_tau(algebra, frame)
        except NotRealizable:
            report.add("tau_available", False)
        else:
            report.add("tau_available", True)
            # a realized field above the cutoff has a term no oracle field has
            match = same_span(solution.fields, fields)
            report.add("span_match", match)
            if not match:
                exit_code = 1
    else:
        report.add("levels", list(rep.level_dims))
    report.add("overall", "PASS" if exit_code == 0 else "FAIL")
    return exit_code


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="carnot",
        description="Exact prolongation of stratified Lie algebras and the "
                    "polynomial conformal fields they generate.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("validate", "parse a spec file and check the algebra axioms"),
            ("prolong", "compute derivations, g0 and the prolongation levels"),
            ("verify", "realize the algebra as vector fields and check everything"),
            ("oracle", "solve the bounded-degree conformal system directly")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="algebra spec file (.alg)")
        p.add_argument("--format", choices=("text", "struct"), default="text")
        p.add_argument("--max-k", type=_nonnegative_int, default=None,
                       help="prolongation cutoff")
        if name == "oracle":
            p.add_argument("--degree", type=_nonnegative_int, default=None,
                           help="ansatz degree bound")
    args = parser.parse_args(argv)
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
