"""Outside-in tracer: spans and counters around carnot's public functions.

Nothing under ``src/`` changes.  Each wrapper is installed where its call
site looks the name up: ``carnot.cli`` binds its imports at import time,
so ``carnot.cli.strata_derivations`` is patched rather than the defining
module, while ``rref`` is patched in ``carnot.exact_linalg`` because
``nullspace``, ``Subspace.from_vectors``, ``solve`` and the local import in
``group_realization`` all look it up there.  Methods are patched on their
class, which every call site reaches.

Spans are ``[name, start, end, parent]`` lists held in memory; a span's id
is its index.  :func:`layer_metrics` turns one pass's spans and counts
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def wrap(self, fn, how: "Wrap"):
        """``fn`` wrapped to record a span and/or a count, as ``how`` says."""
        if how.span is not None:
            fn = self._span(how, fn)
        if how.count is not None:
            fn = self._count(how.count, fn)
        return fn

    def _span(self, how: "Wrap", fn):
        name, before, after = how.span, how.before, how.after
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self.counts, args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self.counts, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for where, attr, how in PATCHES:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            # A wrapper patched where no call site looks would report a
            # silent zero, so a missing name is an error.
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, how))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- hooks: counts taken at the layer boundary, outside the timed span ---


def _rref_shape(counts, args):
    m = args[0]
    counts["exact_linalg.rref_calls"] += 1
    counts["exact_linalg.rref_cells"] += m.rows * m.cols
    counts["exact_linalg.rref_nonzeros"] += sum(1 for row in m.entries for x in row if x)


def _jacobi_triples(counts, args):
    weights = args[0].weights
    live = set(weights)
    triples = list(combinations(weights, 3))
    counts["prolongation.jacobi_triples"] += len(triples)
    counts["prolongation.jacobi_live"] += sum(1 for a, b, c in triples if a + b + c in live)


def _step_done(counts, level):
    counts["prolongation.steps"] += 1
    counts["prolongation.leibniz_cols"] += level.subspace.ambient_dim


def _block_start(counts, args):
    counts["contact_pde.oracle_blocks"] += 1


def _block_done(counts, fields):
    counts["contact_pde.oracle_fields"] += len(fields)


def _report_done(counts, text):
    counts["cli.report_bytes"] += len(text.encode())


@dataclass(frozen=True)
class Wrap:
    """What a wrapper records: a span, a count, and hooks around the span."""

    span: str | None = None
    count: str | None = None
    before: Callable | None = None
    after: Callable | None = None


# (where the call site looks the name up, attribute, what to record).
# ``module:Class`` patches a method on its class.
PATCHES = [
    ("carnot.cli", "main", Wrap("cli.main")),
    ("carnot.cli", "parse_spec_file", Wrap("cli.parse")),
    ("carnot.cli:Report", "render", Wrap("cli.render", after=_report_done)),
    ("carnot.cli", "build_algebra", Wrap("graded_lie.build")),
    ("carnot.graded_lie:GradedLieAlgebra", "bracket", Wrap(count="graded_lie.bracket_calls")),
    ("carnot.cli", "strata_derivations", Wrap("derivations.strata")),
    ("carnot.cli", "constrain_g0", Wrap("derivations.g0")),
    ("carnot.prolongation", "prolong_step", Wrap("prolongation.step", after=_step_done)),
    ("carnot.prolongation:ProlongationAlgebra", "__init__", Wrap("prolongation.assemble")),
    ("carnot.prolongation:ProlongationAlgebra", "verify",
     Wrap("prolongation.jacobi", before=_jacobi_triples)),
    ("carnot.prolongation:ProlongationAlgebra", "bracket_vec",
     Wrap(count="prolongation.bracket_vec_calls")),
    ("carnot.exact_linalg", "rref", Wrap("exact_linalg.rref", before=_rref_shape)),
    ("carnot.exact_linalg:Matrix", "__init__", Wrap("exact_linalg.matrix")),
    ("carnot.polynomials:Poly", "__mul__", Wrap(count="polynomials.mul_calls")),
    ("carnot.polynomials:Poly", "__rmul__", Wrap(count="polynomials.mul_calls")),
    ("carnot.polynomials:Poly", "__add__", Wrap(count="polynomials.add_calls")),
    ("carnot.polynomials:Poly", "__radd__", Wrap(count="polynomials.add_calls")),
    ("carnot.polynomials:Poly", "diff", Wrap(count="polynomials.diff_calls")),
    ("carnot.cli", "left_invariant_frame", Wrap("group_realization.frame")),
    ("carnot.group_realization", "left_invariant_frame", Wrap("group_realization.frame")),
    ("carnot.cli", "realize_tau", Wrap("group_realization.realize")),
    ("carnot.cli", "similarity_check",
     Wrap("group_realization.similarity", "group_realization.similarity_calls")),
    ("carnot.group_realization", "bch", Wrap(count="group_realization.bch_calls")),
    ("carnot.cli", "contact_defect", Wrap("contact_pde.defect")),
    ("carnot.contact_pde", "contact_defect", Wrap("contact_pde.defect")),
    ("carnot.cli", "conformal_defect", Wrap("contact_pde.defect")),
    ("carnot.cli", "jet", Wrap("contact_pde.jet")),
    ("carnot.cli", "jet_jacobi_check", Wrap("contact_pde.jet")),
    ("carnot.cli", "vf_bracket", Wrap("contact_pde.vf_bracket", "contact_pde.vf_bracket_calls")),
    ("carnot.contact_pde", "vf_bracket",
     Wrap("contact_pde.vf_bracket", "contact_pde.vf_bracket_calls")),
    # one call per ansatz column of the enclosing oracle block
    ("carnot.contact_pde", "conformal_system_residuals",
     Wrap("contact_pde.residual", "contact_pde.ansatz_columns")),
    ("carnot.contact_pde", "conformal_fields_of_degree",
     Wrap("contact_pde.oracle_block", before=_block_start, after=_block_done)),
]

SPAN_NAMES = sorted({how.span for _, _, how in PATCHES if how.span})


def _covered(spans: list[list], name: str) -> float:
    """Time covered by spans called ``name``; a nested one counts once."""
    total = 0.0
    for rec in spans:
        if rec[0] != name:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += rec[2] - rec[1]
    return total


def _self_time(spans: list[list], name: str) -> float:
    """Duration of the ``name`` spans minus what their direct children cover."""
    ids = {i for i, rec in enumerate(spans) if rec[0] == name}
    own = sum(spans[i][2] - spans[i][1] for i in ids)
    return own - sum(rec[2] - rec[1] for rec in spans if rec[3] in ids)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Counts published as they are; the others only feed the ratios below.
PUBLISHED_COUNTS = (
    "cli.report_bytes", "graded_lie.bracket_calls",
    "prolongation.steps", "prolongation.leibniz_cols", "prolongation.jacobi_triples",
    "prolongation.bracket_vec_calls",
    "exact_linalg.rref_calls", "exact_linalg.rref_cells",
    "polynomials.mul_calls", "polynomials.add_calls", "polynomials.diff_calls",
    "group_realization.similarity_calls", "group_realization.bch_calls",
    "contact_pde.vf_bracket_calls", "contact_pde.oracle_blocks",
)


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A ``<span>_s`` metric is the time its spans cover, nested calls of the
    same span counted once; ``cli.self_s`` is the self time of ``main``.
    """
    out: dict[str, float] = {f"{n}_s": _covered(spans, n) for n in SPAN_NAMES
                             if n != "cli.main"}
    out["cli.self_s"] = _self_time(spans, "cli.main")
    for name in PUBLISHED_COUNTS:
        out[name] = counts[name]
    out["prolongation.jacobi_live_ratio"] = _ratio(counts["prolongation.jacobi_live"],
                                                   counts["prolongation.jacobi_triples"])
    out["exact_linalg.rref_density"] = _ratio(counts["exact_linalg.rref_nonzeros"],
                                              counts["exact_linalg.rref_cells"])
    out["contact_pde.oracle_yield"] = _ratio(counts["contact_pde.oracle_fields"],
                                             counts["contact_pde.ansatz_columns"])
    return out
