#!/usr/bin/env python3
"""Benchmark of ttolab's CLI sweeps, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shipped-dense --seed 1 --seconds 55 --trace 0

Each timed sample runs the workload's subcommands back to back through
``ttolab.cli.main`` in a fresh child process with the BLAS thread variables
pinned to 1, and checks every (subcommand, N) record of its result files
(see ``checks.py``).  Samples repeat while the next one is expected to end
within ``--seconds``, with at least two per run; short probe children
between them add set-up times and more szego (and stz) times.
Times report the mean of their samples.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics from the spans the traced samples record
(``spans.py``).  The second-to-last line of output is a JSON report with
quartiles, sample counts, the environment and the failed records; the last
line is the result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

# workload -> (config in configs/, subcommands in the order they run,
#              the leading subcommands a probe runs, probes before each sample)
# A probe is a short child that runs only the first subcommands: it measures
# setup_s, and szego_s (and stz_s) exactly as a sample does, since they run
# first in both.
WORKLOADS = {
    "shipped-dense": ("shipped-dense.cfg", ("szego", "stz", "angular", "lemmas"),
                      ("szego", "stz"), 3),
    "frostman-boundary": ("frostman-boundary.cfg", ("szego", "stz", "angular"), ("szego",), 4),
}

MIN_SAMPLES = 2      # so the determinism check always compares two samples
FIRST_PROBES = 3     # set-up-only probes at the start of a run
RUN_LIMIT_S = 170    # a run must end within 180 s; children still running then are killed
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unit_of(metric: str) -> str:
    """Unit of an end-to-end or per-layer metric, from its name."""
    if metric == "peak_rss_mb":
        return "MB"
    if metric == "passed_share":
        return "share"
    if metric == "trace_overhead":
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    return "count"


class Run:
    """One benchmark run: spawns the children and collects their reports."""

    def __init__(self, workload: str, seed: int, workdir: str):
        config_name, self.commands, self.probe, self.probes_per_sample = WORKLOADS[workload]
        self.config = os.path.join(HERE, "configs", config_name)
        self.seed = str(seed)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=SRC, **{v: "1" for v in THREAD_VARS})
        self.children = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.lost = []           # children that ended without a report

    def spawn(self, commands, *, trace=False) -> dict | None:
        self.children += 1
        out = os.path.join(self.workdir, f"child{self.children}")
        os.makedirs(out)
        report_path = os.path.join(out, "report.json")
        argv = [sys.executable, CHILD, "--config", self.config, "--seed", self.seed,
                "--commands", ",".join(commands), "--out", out, "--report", report_path]
        argv += ["--trace"] if trace else []
        with open(os.path.join(out, "child.log"), "w", encoding="utf-8") as log:
            try:
                subprocess.run(argv + ["--spawned-at", repr(time.monotonic())], env=self.env,
                               cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                               timeout=max(1.0, self.deadline - time.monotonic()), check=False)
            except subprocess.TimeoutExpired:
                print(f"child {self.children} killed at the {RUN_LIMIT_S} s run limit", file=log)
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            with open(os.path.join(out, "child.log"), encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            self.lost.append(f"child {self.children}: no report; log tail:\n{tail}")
            return None
        report["out"] = out
        return report


def summarize(values: list, unit: str) -> dict:
    """Order statistics of one metric's samples, and the value the result reports.

    A time reports the mean of its samples: on a shared host the CPU can
    switch between speeds 1.5x apart every few seconds, and the mean moves
    with the share of slow time in the run, where the median jumps between
    the two speeds and the fastest sample depends on catching a rare fast
    stretch.  Peak memory reports the largest sample, other metrics the
    median.
    """
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    value = {"s": statistics.fmean(values), "MB": max(values)}.get(unit, median)
    return {"value": value, "min": min(values), "q1": q1, "median": median, "q3": q3,
            "max": max(values), "n": len(values), "unit": unit, "samples": values}


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "threads": {v: "1" for v in THREAD_VARS}, "seed": seed}


class RecordBook:
    """Record checks across the samples of one run, with the determinism check."""

    def __init__(self, zeros_by_n):
        self.zeros_by_n = zeros_by_n
        self.attempted = self.failed = 0
        self.reference = {}
        self.failures = []

    def add(self, report: dict, label: str):
        """Check the records of the subcommands the child ran, if any."""
        exit_codes = report.get("exit_codes", {})
        commands = list(exit_codes)
        problems = checks.record_problems(report["out"], commands, exit_codes, self.zeros_by_n)
        hashes = checks.output_hashes(report["out"], commands)
        for cmd in commands:
            mine, first = hashes[cmd], self.reference.setdefault(cmd, hashes[cmd])
            changed = sorted(k for k in mine.keys() | first.keys() if mine.get(k) != first.get(k))
            if changed:
                why = f"result files differ from those of the first {cmd}: {', '.join(changed)}"
                for n in self.zeros_by_n:
                    problems[(cmd, n)].append(why)
        for (cmd, n), found in problems.items():
            self.attempted += 1
            if found:
                self.failed += 1
                self.failures.append(f"{label} {cmd} N={n}: {'; '.join(found)}")


def layer_stats(report: dict) -> tuple[dict, dict, list]:
    """Calls and self time per span name, and the accounting problems."""
    spans = report["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, self_s, problems = {}, {}, []
    eps = 1e-6
    for i, (name, start, end, parent) in enumerate(spans):
        own = (end - start) - child_time[i]
        if own < -eps:
            problems.append(f"span {name} has negative self time {own}")
        if parent >= 0 and (start < spans[parent][1] - eps or end > spans[parent][2] + eps):
            problems.append(f"span {name} lies outside its parent {spans[parent][0]}")
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    remainder = report["sweep_s"] - roots
    if not -eps <= remainder <= 0.01 * report["sweep_s"] + 1e-3:
        problems.append(f"untraced remainder {remainder} s of traced sweep {report['sweep_s']} s")
    if abs(sum(self_s.values()) + remainder - report["sweep_s"]) > eps * max(1, len(spans)):
        problems.append("self times plus remainder do not add up to the traced sweep_s")
    return calls, self_s, problems


def cross_module_problems(report: dict) -> list[str]:
    """Self-test: wrappers must see calls made through names bound in other modules."""
    spans = report["spans"]
    edges = {(spans[p][0], name) for name, _, _, p in spans if p >= 0}
    wanted = [("operators.build_truncated_toeplitz.sampled", "blaschke.tmw_matrix"),
              ("experiments.szego_gap", "operators.build_truncated_toeplitz.trig"),
              ("cli.cmd_szego", "experiments.szego_gap")]
    return [f"no {child} span under {parent}" for parent, child in wanted
            if (parent, child) not in edges]


def timed_run(run: Run, book: RecordBook, seconds: int) -> dict:
    deadline = time.monotonic() + seconds
    probes = [run.spawn(()) for _ in range(FIRST_PROBES)]
    samples, last = [], 0.0
    while len(samples) < MIN_SAMPLES or time.monotonic() + last <= deadline:
        started = time.monotonic()
        probes += [run.spawn(run.probe) for _ in range(run.probes_per_sample)]
        report = run.spawn(run.commands)
        last = time.monotonic() - started
        if report is None:
            break
        book.add(report, f"sample {len(samples) + 1}")
        samples.append(report)
    if not samples:
        return {}
    probes = [r for r in probes if r]
    for i, report in enumerate(probes):
        book.add(report, f"probe {i + 1}")
    values = {"setup_s": [r["setup_s"] for r in probes + samples],
              "sweep_s": [r["sweep_s"] for r in samples],
              "peak_rss_mb": [r["peak_rss_mb"] for r in samples]}
    for cmd in run.commands:
        values[f"{cmd}_s"] = [r["command_s"][cmd] for r in samples + probes
                              if cmd in r.get("command_s", {})]
    values["passed_share"] = [1.0 - book.failed / book.attempted]
    return {k: summarize(v, unit_of(k)) for k, v in values.items()}


def traced_run(run: Run, book: RecordBook, seconds: int, names) -> tuple[dict, list]:
    deadline = time.monotonic() + seconds
    plain, traced, problems, last = [], [], [], 0.0
    while not traced or time.monotonic() + last <= deadline:
        started = time.monotonic()
        p, t = run.spawn(run.commands), run.spawn(run.commands, trace=True)
        last = time.monotonic() - started
        if p is None or t is None:
            break
        book.add(p, f"untraced {len(plain) + 1}")
        book.add(t, f"traced {len(traced) + 1}")
        plain.append(p)
        traced.append(t)
    if not traced:
        return {}, problems

    stats = []
    for report in traced:
        calls, self_s, found = layer_stats(report)
        problems += found + cross_module_problems(report)
        stats.append((calls, self_s, report["counters"]))
    metrics = {}
    for name in names:
        if name == "trace_overhead":
            values = [statistics.fmean(r["sweep_s"] for r in traced)
                      / statistics.fmean(r["sweep_s"] for r in plain)]
        else:
            layer, quantity = name.rsplit(".", 1)
            if quantity == "self_s":
                values = [own.get(layer, 0.0) for _, own, _ in stats]
            else:
                values = [calls.get(layer, 0) if quantity == "calls" else counters.get(name, 0)
                          for calls, _, counters in stats]
                if len(set(values)) > 1:
                    problems.append(f"work count {name} differs between traced samples: {values}")
                values = values[:1]
        metrics[name] = summarize(values, unit_of(name))
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running
    # child, and the run folder is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "ttolab", "cli.py")):
        print(f"perfbench: no ttolab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from ttolab.blaschke import generate_zeros
    from ttolab.cli import parse_config

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    config_name = WORKLOADS[args.workload][0]
    parsed = parse_config(os.path.join(HERE, "configs", config_name))
    zeros_by_n = {n: generate_zeros(parsed.experiment.sequence, n)
                  for n in parsed.experiment.n_values}
    book = RecordBook(zeros_by_n)

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        run = Run(args.workload, args.seed, workdir)
        if args.trace:
            metrics, problems = traced_run(run, book, args.seconds, wanted)
        else:
            metrics, problems = timed_run(run, book, args.seconds), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    smallest = zeros_by_n[min(zeros_by_n)]
    if not checks.oracle_rejects_corruption(smallest):
        problems.append("self-test: the szego oracle accepted a corrupted record")
    problems += run.lost
    problems += [f"metric {name} not measured" for name in wanted if name not in metrics]
    problems += [f"metric {name} is in {metrics[name]['unit']}, BENCHMARK.json says {unit}"
                 for name, unit in wanted.items()
                 if name in metrics and metrics[name]["unit"] != unit]
    correct = not problems

    report = {"workload": args.workload, "environment": environment(args.seed),
              "metrics": metrics, "records": {"attempted": book.attempted, "failed": book.failed},
              "failed_records": book.failures, "benchmark_problems": problems}
    print(json.dumps(report, sort_keys=True))
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": max(book.attempted, 1), "failed": book.failed,
              "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                          for name in wanted if name in metrics}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
