"""Benchmark of whole ``cqmine mine`` runs and of each layer inside them.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository: the program is taken
from ``src/`` next to this directory and runs as ``python3 -m cqmine``.  The
workload names and the metrics with their units are those of
``BENCHMARK.json`` at the root of the checkout; each workload's parameters,
pinned report digests and the layer each metric watches are in
``workloads.json``.

With ``--trace 0`` the benchmark times fresh ``cqmine mine`` processes, one
at a time, until S seconds have passed, and reports the medians of

* ``mine_s``: wall time of one mine process, from spawn to exit;
* ``setup_s``: wall time of a fresh process that imports cqmine and loads the
  schema and data, the work every mine run does before phase 1, timed
  ``SETUP_PROBES`` times after each mine process;
* ``peak_rss_mb``: peak resident memory of one mine process (``os.wait4``).

The human-readable lines also give each sample, the highest percentile with
ten samples beyond it, the sample count, and the median CPU time (user plus
system) of the mine processes next to their wall time.

With ``--trace 1`` it alternates an untraced mine with a traced one
(``tracing.py``) and reports the per-layer metrics instead.  Every run's
reports are checked (``check.py``); a run that exits non-zero, exceeds the
time cap or fails the check counts as failed.  Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every run
passed, 1 when one failed, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gen
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
SPEC = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

SETUP_PROBES = 3  # setup processes timed after each mine process
CHILD_CAP_S = 90.0  # a child process running longer is killed; its run counts as failed
CHECK_SAMPLE = 1000  # frequent entries and rules recomputed with sqlite per output
SETUP_CODE = (
    "import sys, cqmine.cli\n"
    "from cqmine.relational import load_instance, load_schema\n"
    "load_instance(load_schema(sys.argv[1]), sys.argv[2])\n"
)


class ChildFailed(Exception):
    """A child process exited non-zero or was killed at the time cap."""


def run_child(
    args: list[str], cwd: Path, stdout=subprocess.DEVNULL
) -> tuple[float, float, float]:
    """Run ``python3 ARGS`` to completion: (wall s, peak RSS in MB, CPU s).

    The peak RSS and CPU time are this child's own, from ``os.wait4``, not
    the totals over all children that ``RUSAGE_CHILDREN`` would give.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "stderr.txt", "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=env, stdout=stdout, stderr=stderr
        )
        timer = threading.Timer(CHILD_CAP_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        detail = (cwd / "stderr.txt").read_text(errors="replace").strip()[-400:]
        raise ChildFailed(f"exit {proc.returncode} after {wall:.1f} s: {detail}")
    return wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


def prepare_data(workload: dict, seed: int, data_dir: Path) -> None:
    """Write the workload's schema and CSVs: the bundled fixture or generated."""
    source = workload["data"]
    if "fixture" in source:
        shutil.copytree(ROOT / source["fixture"], data_dir)
    else:
        gen.generate(data_dir, seed=seed, **source["generator"])


class Bench:
    """One workload at one seed, in its own scratch directory."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.workload = SPEC["workloads"][name]
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        pinned = self.workload.get("digests")
        seeded = "generator" in self.workload["data"]
        self.pinned = pinned if not seeded or seed == SPEC["default_seed"] else None
        prepare_data(self.workload, seed, work / "data")

    def setup_probe(self) -> float:
        """Wall time of one process that imports cqmine and loads the data."""
        return run_child(["-c", SETUP_CODE, "data/schema.txt", "data"], self.work)[0]

    def mine(self, traced: bool = False) -> tuple[float, float, float, dict | None] | None:
        """One mine process: (wall s, peak RSS MB, CPU s, trace record), None if it failed."""
        self.attempted += 1
        shutil.rmtree(self.work / "out", ignore_errors=True)
        mine_args = ["--schema", "data/schema.txt", "--data", "data", "--out-dir", "out",
                     *self.workload["mine"]]
        if traced:
            args = [str(BENCH_DIR / "tracing.py"), "spans.json", "--", *mine_args]
        else:
            args = ["-m", "cqmine", "mine", *mine_args]
        try:
            with open(self.work / "stdout.txt", "wb") as stdout:
                wall, rss, cpu = run_child(args, self.work, stdout=stdout)
        except ChildFailed as exc:
            self.failures.append(str(exc))
            return None
        problems = self.verify()
        if problems:
            self.failures.append("; ".join(problems[:3]))
            return None
        record = None
        if traced:
            timing = json.loads((self.work / "stdout.txt").read_text().splitlines()[-1])
            record = layer_metrics(self.work / "spans.json", self.work / "out",
                                   wall, timing["main_s"], timing["dump_s"])
            wall -= timing["dump_s"]
        return wall, rss, cpu, record

    def verify(self) -> list[str]:
        """Check one output, in a process of its own.

        A child's ``ru_maxrss`` starts from the peak of the process that
        spawned it, so this process must not parse the reports or load the
        hashing and sqlite modules itself.
        """
        args = [str(BENCH_DIR / "check.py"), "out", "data",
                "--sample", str(CHECK_SAMPLE), "--seed", str(self.seed)]
        if self.pinned is not None:
            args += ["--pinned", json.dumps(self.pinned)]
        try:
            with open(self.work / "check.json", "wb") as stdout:
                run_child(args, self.work, stdout=stdout)
        except ChildFailed as exc:
            return [f"output check failed: {exc}"]
        return json.loads((self.work / "check.json").read_text())


def layer_metrics(spans_path: Path, out: Path, wall_s: float, main_s: float,
                  dump_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced mine run."""
    spans, payload = tracing.load_spans(spans_path)
    totals = tracing.aggregate(spans)

    def layer(name: str, site: str | None = None) -> dict:
        return tracing.by_layer(totals, name, site)

    run = json.loads((out / "run.json").read_text(encoding="utf-8"))
    m: dict[str, float] = {}
    m["relational.load_s"] = (layer("relational.load_schema")["total_s"]
                              + layer("relational.load_instance")["total_s"])
    for name in ("evaluation.evaluate", "evaluation.support_grouped",
                 "queries.canonical_form", "containment.minimize",
                 "containment.is_diagonally_contained", "phase1.specializations",
                 "phase1.immediate_generalizations"):
        m[f"{name}.calls"] = layer(name)["calls"]
        m[f"{name}.self_s"] = layer(name)["self_s"]
    m["evaluation.evaluate.answers"] = sum(
        size for span, size in payload["sizes"].items()
        if span.startswith("evaluation.evaluate@")
    )
    for name in tracing.CACHED:
        info = payload["caches"].get(name, {"hits": 0, "misses": 0, "entries": 0})
        lookups = info["hits"] + info["misses"]
        m[f"{name}.hit_rate"] = info["hits"] / lookups if lookups else 0.0
        m[f"{name}.entries"] = info["entries"]

    phase1 = layer("phase1.run_phase1")
    evaluated = sum(len(level["candidates"]) for level in run["levels"])
    frequent = sum(len(level["frequent"]) for level in run["levels"])
    m["phase1.s"] = phase1["total_s"]
    m["phase1.self_s"] = phase1["self_s"]
    m["phase1.levels"] = len(run["levels"])
    m["phase1.evaluated"] = evaluated
    m["phase1.frequent"] = frequent
    m["phase1.yield"] = frequent / evaluated if evaluated else 0.0
    m["phase1.support.calls"] = layer("evaluation.support", "phase1")["calls"]
    m["phase1.support.s"] = layer("evaluation.support", "phase1")["total_s"]

    phase2 = layer("phase2.run_phase2")
    visited = layer("containment.minimize", "phase2")["calls"]
    m["phase2.s"] = phase2["total_s"]
    m["phase2.walk_self_s"] = phase2["self_s"]
    m["phase2.support.calls"] = layer("evaluation.support", "phase2")["calls"]
    m["phase2.support.s"] = layer("evaluation.support", "phase2")["total_s"]
    m["phase2.minimize.calls"] = visited
    m["phase2.rules"] = len(run["rules"])
    m["phase2.rule_yield"] = len(run["rules"]) / visited if visited else 0.0

    m["reports.s"] = sum(
        layer(f"reports.{fn}")["total_s"]
        for fn in ("frequent_report_lines", "rule_report_lines", "run_dump", "dump_json")
    )
    m["reports.bytes"] = sum(report.stat().st_size for report in out.iterdir())
    m["process.exit_s"] = wall_s - main_s - dump_s
    m["runtime.gc_s"] = payload["gc_s"]
    m["runtime.gc_gen2"] = payload["gc_gen2"]
    return m


def timed_run(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics: mine processes for ``seconds``, setup probes between.

    The setup probes are spread over the run, so that their median does not
    depend on the machine's state in one short stretch of time.
    """
    bench.setup_probe()  # warm-up: compiles bytecode, fills the file cache
    walls, rss, cpu, setup = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        result = bench.mine()
        if result is None:
            break
        walls.append(result[0])
        rss.append(result[1])
        cpu.append(result[2])
        setup.extend(bench.setup_probe() for _ in range(SETUP_PROBES))
        if time.perf_counter() >= deadline:
            break
    samples = {"mine_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    for name, values in samples.items():
        print(describe(name, values))
    if not walls:
        return {}
    print(f"mine CPU     median {statistics.median(cpu):.4f} s (user + system), "
          f"wall {statistics.median(walls):.4f} s")
    return {name: statistics.median(values) for name, values in samples.items()}


def traced_run(bench: Bench, seconds: float) -> dict[str, float]:
    """Per-layer metrics: pairs of an untraced and a traced mine for ``seconds``."""
    plain, traced, records = [], [], []
    started = time.perf_counter()
    while not bench.failures:
        pair_started = time.perf_counter()
        untraced = bench.mine()
        with_trace = bench.mine(traced=True)
        if untraced is None or with_trace is None:
            break
        plain.append(untraced[0])
        traced.append(with_trace[0])
        records.append(with_trace[3])
        now = time.perf_counter()
        if now - started + (now - pair_started) > seconds:
            break
    if not records:
        return {}
    metrics = {name: statistics.median(r[name] for r in records) for name in records[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    print(f"{len(records)} traced and {len(plain)} untraced mine runs, median wall "
          f"{statistics.median(traced):.4f} s traced, {statistics.median(plain):.4f} s untraced")
    for name, unit in PER_LAYER.items():
        print(f"{name:45} {metrics.get(name, float('nan')):14.6g} {unit}")
    return metrics


def describe(name: str, values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, n and samples."""
    unit = END_TO_END[name]
    if not values:
        return f"{name:12} no samples"
    text = f"{name:12} median {statistics.median(values):.4f} {unit}"
    tail = 100 * (len(values) - 10) // len(values)
    if tail > 50:
        p = statistics.quantiles(values, n=100, method="inclusive")[tail - 1]
        text += f"  p{tail} {p:.4f} {unit}"
    text += f"  max {max(values):.4f} {unit}  n={len(values)}\n  samples:"
    return text + "".join(f" {v:.4f}" for v in values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cqmine benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cqmine" / "cli.py").is_file():
        print(f"error: cqmine sources not found under {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        try:
            bench = Bench(args.workload, args.seed, work)
        except (OSError, ValueError) as exc:
            print(f"error: cannot prepare {args.workload}: {exc}", file=sys.stderr)
            return 2
        print(f"workload {args.workload}, seed {args.seed}, "
              f"{'traced' if args.trace else 'timed'} for {args.seconds:g} s")
        names = PER_LAYER if args.trace else END_TO_END
        try:
            metrics = (traced_run if args.trace else timed_run)(bench, args.seconds)
        except ChildFailed as exc:  # a setup probe failed
            bench.failures.append(str(exc))
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bench.attempted = max(bench.attempted, len(bench.failures))
    failed = len(bench.failures)
    for failure in bench.failures:
        print(f"FAILED: {failure}")
    print(f"fail_rate    {failed / bench.attempted:.4f} ({failed}/{bench.attempted})")
    correct = failed == 0 and all(name in metrics for name in names)
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": names[name]}
            for name in names if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
