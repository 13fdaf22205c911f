"""Run one workload of the carnot benchmark and print its result.

    python3 bench/run.py --workload tower --seed 1 --seconds 40 --trace 0

Jobs run in a closed loop: one ``carnot.cli.main`` call at a time, in this
single-threaded process, with stdout captured.  A pass runs every job of
the workload once, in an order shuffled by ``--seed``; passes repeat
while the next one is expected to end within ``--seconds``.  Every job's
verdict is checked against the closed forms in ``workloads.py`` and
against its own report in earlier passes.

``--trace 0`` reports the end-to-end metrics: ``wall_ref`` (median pass
time, scaled job by job by the host speed that ``speed.py`` samples),
``setup_s`` (median time for a fresh interpreter to get ready: start,
``import carnot.cli``, specs written) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of ``tracer.py``, the raw pass and per-command times of the untraced
passes and ``trace.overhead_ratio``; traced reports must equal untraced
ones.  The last stdout line is the result object; a JSON file with run
metadata (and, when traced, the spans of the last traced pass) is written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUNDLED = os.path.join(SRC, "carnot", "specs")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_FIRST = 4
SETUP_PER_PASS = 2


@dataclass
class JobResult:
    job: workloads.Job
    seconds: float
    exit_code: int | None
    report: str
    error: str | None
    kernel_rate: float


def run_pass(cli, jobs: list[workloads.Job], spec_dir: str,
             sampler: speed.SpeedSampler) -> tuple[float, list[JobResult]]:
    """Run the jobs one after another; return the pass time and each result.

    The sampler's ticks are subtracted from the times, and each job
    records the reference-kernel rate measured while it ran.
    """
    argvs = [job.argv(spec_dir, BUNDLED) for job in jobs]
    results = []
    gc.collect()
    for job, argv in zip(jobs, argvs):
        buf = io.StringIO()
        error = None
        code = None
        mark = sampler.mark()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except (Exception, SystemExit):
            # A job that raises is a failed job, not a failed benchmark.
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        ticks_s, rate = sampler.since(mark)
        results.append(JobResult(job, seconds - ticks_s, code, buf.getvalue(), error, rate))
    return sum(r.seconds for r in results), results


class Verdicts:
    """Checks every result and keeps each job's first report as its reference."""

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def check(self, results: list[JobResult], label: str) -> None:
        for r in results:
            self.attempted += 1
            if r.error is not None:
                problems = [r.error]
            else:
                problems = workloads.check(r.job, r.exit_code, r.report)
                ref = self.reference.setdefault(r.job.label, r.report)
                if r.report != ref:
                    problems.append("report differs from the first pass")
            if problems:
                self.failures.append({"pass": label, "job": r.job.label, "problems": problems})


def command_times(results: list[JobResult]) -> dict[str, float]:
    out = {"prolong_s": 0.0, "verify_s": 0.0, "oracle_s": 0.0}
    for r in results:
        out[f"{r.job.command}_s"] += r.seconds
    return out


def probe_setup(spec_dir: str) -> float:
    """Time for a fresh interpreter to get ready for its first job."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), spec_dir],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def repeat(step, seconds: float) -> None:
    """Call ``step`` until another call is expected to end after ``seconds``."""
    times: list[float] = []
    while True:
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
        if sum(times) + statistics.median(times) > seconds:
            return


def read_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "carnot", "cli.py")):
        print(f"bench: no carnot sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    declared = declared["per_layer" if args.trace else "end_to_end"]

    meta = {"python": platform.python_version(), "commit": read_commit(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        sys.path.insert(0, SRC)
        import carnot.cli as cli
        if not cli.__file__.startswith(SRC):
            print(f"bench: carnot imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        spec_dir = os.path.join(work, "specs")
        workloads.write_specs(spec_dir)
        result, extra = (measure_traced if args.trace else measure_plain)(
            cli, args, spec_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace == 0:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if set(metrics) != {m["name"] for m in declared}:
        print(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in declared}
    meta["loadavg_end"] = os.getloadavg()
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    spans = extra.pop("spans", None)
    if spans is not None:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, **extra}, fh, indent=1)
    print(json.dumps(result))
    return 0


def scaled(results: list[JobResult]) -> float:
    """Pass time in reference kernels: each job's seconds times the kernel rate."""
    return sum(r.seconds * r.kernel_rate for r in results)


def pass_record(wall: float, results: list[JobResult]) -> dict:
    """Timings of one pass: seconds, reference kernels, and [seconds, rate] per job."""
    return {"wall_s": wall, "wall_ref": scaled(results),
            "jobs": {r.job.label: [r.seconds, r.kernel_rate] for r in results}}


def outcome(verdicts: Verdicts, metrics: dict) -> dict:
    return {"correct": not verdicts.failures, "attempted": verdicts.attempted,
            "failed": len(verdicts.failures), "metrics": metrics}


def measure_plain(cli, args, spec_dir: str, work: str) -> tuple[dict, dict]:
    """Untraced passes under the speed sampler, with set-up probes between them."""
    jobs = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    verdicts = Verdicts()
    # Only timings outlive a pass: reports would add to peak_rss_mb.
    records: list[dict] = []
    # The first probe also compiles the bytecode, which a user pays once,
    # not on every run, so it is dropped.  The others are spread over the
    # run so that they see the same host phases as the passes.
    setups = [probe_setup(os.path.join(work, f"setup{i}")) for i in range(SETUP_FIRST + 1)][1:]
    sampler = speed.SpeedSampler()

    def step():
        with sampler:
            wall, results = run_pass(cli, workloads.pass_order(jobs, rng), spec_dir, sampler)
        verdicts.check(results, f"pass{len(records) + 1}")
        records.append(pass_record(wall, results))
        for _ in range(SETUP_PER_PASS):
            setups.append(probe_setup(os.path.join(work, f"setup{len(setups) + 1}")))

    repeat(step, args.seconds)
    metrics = {"wall_ref": statistics.median(p["wall_ref"] for p in records),
               "setup_s": statistics.median(setups)}
    return outcome(verdicts, metrics), {"passes": records, "setups_s": setups,
                                        "failures": verdicts.failures}


def measure_traced(cli, args, spec_dir: str, work: str) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; traced reports must match.

    The speed sampler runs in both, so that the overhead ratio compares
    host-speed-scaled pass times; spans use a clock that stops while it
    samples.
    """
    import tracer as tracing

    jobs = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    verdicts = Verdicts()
    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict[str, float]] = []
    commands: list[dict[str, float]] = []
    sampler = speed.SpeedSampler()
    tracer = tracing.Tracer(clock=sampler.clock)

    def step():
        with sampler:
            wall, results = run_pass(cli, workloads.pass_order(jobs, rng), spec_dir, sampler)
        verdicts.check(results, f"plain{len(plain) + 1}")
        plain.append(pass_record(wall, results))
        commands.append(command_times(results))
        tracer.reset()
        with sampler, tracer:
            wall, results = run_pass(cli, workloads.pass_order(jobs, rng), spec_dir, sampler)
        verdicts.check(results, f"traced{len(traced) + 1}")
        traced.append(pass_record(wall, results))
        layers.append(tracing.layer_metrics(tracer.spans, tracer.counts))

    repeat(step, args.seconds)
    metrics = median_metrics(layers)
    metrics.update(median_metrics(commands))
    metrics["wall_s"] = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_ratio"] = (statistics.median(p["wall_ref"] for p in traced)
                                       / statistics.median(p["wall_ref"] for p in plain))
    return outcome(verdicts, metrics), {"passes": plain, "traced_passes": traced,
                                        "failures": verdicts.failures, "spans": tracer.spans}


if __name__ == "__main__":
    sys.exit(main())
