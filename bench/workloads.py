"""Workloads of the carnot benchmark: generated specs, job lists and verdicts.

A job is one ``carnot.cli.main([command, spec, ...])`` call.  Each job
carries its expected exit code and the report values it must print; the
expected values are the classical closed forms, written here by hand, not
taken from the program.  The program receives nothing but the spec files
(generated ones are written by :func:`write_specs`); the seed only
shuffles the order of the jobs inside each pass.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from math import comb


def _abelian(n: int, constraint: str, max_k: int = 10) -> str:
    gens = " ".join(f"X{i}" for i in range(1, n + 1))
    return (f"[algebra]\nname = r{n}\nlayer -1 = {gens}\n"
            f"[g0]\nconstraint = {constraint}\n[options]\nmax_k = {max_k}\n")


def _heisenberg(n: int, constraint: str, max_k: int = 10) -> str:
    gens = " ".join([f"X{i}" for i in range(1, n + 1)] + [f"Y{i}" for i in range(1, n + 1)])
    rels = "".join(f"[X{i},Y{i}] = T\n" for i in range(1, n + 1))
    return (f"[algebra]\nname = h{n}\nlayer -1 = {gens}\nlayer -2 = T\n{rels}"
            f"[g0]\nconstraint = {constraint}\n[options]\nmax_k = {max_k}\n")


def _algebra(name: str, layers: list[str], rels: list[str]) -> str:
    lines = [f"layer -{d} = {names}" for d, names in enumerate(layers, start=1)]
    return ("[algebra]\nname = " + name + "\n" + "\n".join(lines + rels)
            + "\n[g0]\nconstraint = conformal\n")


# Generated spec files, by file stem.
SPECS: dict[str, str] = {}
for _n in range(3, 9):
    SPECS[f"r{_n}_co"] = _abelian(_n, "conformal")
for _n in range(1, 4):
    SPECS[f"h{_n}_co"] = _heisenberg(_n, "conformal")
SPECS["r3_gl_k6"] = _abelian(3, "full_derivations", max_k=6)
SPECS["r4_gl_k3"] = _abelian(4, "full_derivations", max_k=3)
SPECS["h1_der_k8"] = _heisenberg(1, "full_derivations", max_k=8)
SPECS["heis_x_r"] = _algebra("heis_x_r", ["X1 X2 X3", "Y"], ["[X1,X2] = Y"])
SPECS["free_3_2"] = _algebra("free_3_2", ["X1 X2 X3", "Y12 Y13 Y23"],
                             ["[X1,X2] = Y12", "[X1,X3] = Y13", "[X2,X3] = Y23"])
SPECS["cartan_235"] = _algebra("cartan_235", ["X1 X2", "Y", "Z1 Z2"],
                               ["[X1,X2] = Y", "[X1,Y] = Z1", "[X2,Y] = Z2"])
SPECS["two_centre"] = _algebra("two_centre", ["X1 X2 X3 X4", "T1 T2"],
                               ["[X1,X2] = T1", "[X3,X4] = T1", "[X1,X3] = T2",
                                "[X2,X4] = -T2"])


def write_specs(directory: str) -> None:
    """Write every generated spec as ``<stem>.alg`` into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for stem, text in SPECS.items():
        with open(os.path.join(directory, stem + ".alg"), "w", encoding="utf-8") as fh:
            fh.write(text)


@dataclass(frozen=True)
class Job:
    """One CLI call and the verdict it must produce: exit code 0 and a report.

    ``spec`` is a generated stem or ``bundled:<file>``; ``expect`` maps
    report keys to their rendered values.
    """

    command: str
    spec: str
    args: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join((self.command, self.spec) + self.args)

    def argv(self, spec_dir: str, bundled_dir: str) -> list[str]:
        if self.spec.startswith("bundled:"):
            path = os.path.join(bundled_dir, self.spec.split(":", 1)[1])
        else:
            path = os.path.join(spec_dir, self.spec + ".alg")
        return [self.command, path, *self.args]


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _prolong(spec: str, levels: list[int], total: int, status: str, *args: str,
             **extra) -> Job:
    expect = {"levels": levels, "status": status, "total_dim": total, **extra}
    if status == "terminated":
        expect["terminated_at"] = len(levels) - 1
    return Job("prolong", spec, args, {k: _render(v) for k, v in expect.items()})


def _cutoff(spec: str, neg_dim: int, levels: list[int], *args: str) -> Job:
    return _prolong(spec, levels, neg_dim + sum(levels), "cutoff_reached", *args)


def _verify(spec: str, total: int) -> Job:
    return Job("verify", spec, (), {"total_dim": str(total), "overall": "PASS"})


def _oracle(spec: str, degree: int, total: int) -> Job:
    expect = {"degree": degree, "ansatz_dim": total, "prolongation_total": total,
              "dims_agree": True, "tau_available": True, "span_match": True,
              "overall": "PASS"}
    return Job("oracle", spec, ("--degree", str(degree)),
               {k: _render(v) for k, v in expect.items()})


def _gl_level(n: int, k: int) -> int:
    """dim of level k of gl(n) on R^n: vector-valued symmetric (k+1)-forms."""
    return n * comb(n + k, k + 1)


def _weighted_monomials(degree: int, weights: tuple[int, ...]) -> int:
    if not weights:
        return int(degree == 0)
    w, rest = weights[0], weights[1:]
    return sum(_weighted_monomials(degree - w * e, rest) for e in range(degree // w + 1))


def _diag(entries: list[int]) -> list[list[int]]:
    return [[e if i == j else 0 for j in range(len(entries))] for i, e in enumerate(entries)]


# Each workload stresses different layers, so that an optimisation of one
# layer shows on the workload that uses it and shows nothing on the others.
WORKLOADS: dict[str, list[Job]] = {
    # Terminating towers.  Cost is table assembly plus the exhaustive
    # Jacobi check (most of R^8); polynomials, group_realization and
    # contact_pde do no work.  Liouville: R^n with co(n) gives so(n+1,1).
    # Koranyi-Reimann: H_n with the conformal g0 gives su(n+1,1).
    "tower": (
        [_prolong(f"r{n}_co", [n * (n - 1) // 2 + 1, n, 0], (n + 1) * (n + 2) // 2,
                  "terminated")
         for n in range(3, 9)]
        + [_prolong(f"h{n}_co", [n * n + 1, 2 * n, 1, 0], (n + 2) ** 2 - 1, "terminated")
           for n in range(1, 4)]),
    # Towers that never terminate: ever larger Leibniz systems solved by
    # rref, with no table and no Jacobi check.  A Leibniz or rref change
    # shows here; a Jacobi-kernel change shows nothing.
    "cutoff": [
        # A deep tower whose systems grow level by level.
        _cutoff("r3_gl_k6", 3, [_gl_level(3, k) for k in range(7)]),
        # The widest systems (up to 320 unknowns) in few steps.
        _cutoff("r4_gl_k3", 4, [_gl_level(4, k) for k in range(4)]),
        # A non-abelian tower.  Full derivations of H_1 are the polynomial
        # contact fields: level k counts monomials of weight k+2 in (1,1,2).
        _cutoff("h1_der_k8", 3, [_weighted_monomials(k + 2, (1, 1, 2)) for k in range(9)]),
        # Many tiny steps, where per-step overhead rather than rref dominates.
        _cutoff("bundled:r1.alg", 1, [1] * 41, "--max-k", "40"),
        _cutoff("bundled:r2_co2.alg", 2, [2] * 21, "--max-k", "20"),
    ],
    # Specs that realize (terminating, no positive levels): BCH, frames,
    # jets and similarity in verify, large sparse residual systems in
    # oracle.  The prolongation itself is a small share.  The independent
    # oracle is the reference for the generated totals (dims_agree and
    # span_match); the Engel g0 is spanned by diag{1,1,2,3}, which only
    # the prolong report shows.  Bundled heisenberg and r3_co3 stop at
    # NotRealizable today and are left out.
    "fields": [
        # The flagship example, with its bundled oracle degree.
        _prolong("bundled:engel.alg", [1, 0], 5, "terminated",
                 g0_dim=1, g0_basis_1=_diag([1, 1, 2, 3])),
        _verify("bundled:engel.alg", 5),
        _oracle("bundled:engel.alg", 6, 5),
        # A centre that is not the derived algebra: one generator is central.
        _verify("heis_x_r", 6), _oracle("heis_x_r", 3, 6),
        # Step 2 with a 3-dimensional second layer and g0 = so(3) + R.
        _verify("free_3_2", 10), _oracle("free_3_2", 3, 10),
        # Step 3 with a 2-dimensional top layer: BCH to third order.
        _verify("cartan_235", 7), _oracle("cartan_235", 3, 7),
        # Four generators and the largest g0: the biggest oracle systems.
        _verify("two_centre", 11), _oracle("two_centre", 3, 11),
    ],
}


def pass_order(jobs: list[Job], rng: random.Random) -> list[Job]:
    """The jobs of one pass, shuffled by the workload seed."""
    order = list(jobs)
    rng.shuffle(order)
    return order


def parse_report(text: str) -> dict[str, str]:
    """``key = value`` lines of a text report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def check(job: Job, exit_code: int, report: str) -> list[str]:
    """Mismatches between a job's verdict and its expected one (empty if right)."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    got = parse_report(report)
    for key, want in job.expect.items():
        if got.get(key) != want:
            problems.append(f"{key} = {got.get(key)!r}, expected {want!r}")
    return problems
