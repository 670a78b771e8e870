"""Closed-loop benchmark of tracekit's CLI commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory.  One client sends one `tracekit.cli.run_command` job at a time,
each on its own seeded machine file (see `jobs.py` for the workloads), and
checks every report against `tests/oracles.py` outside the timed region.

`--trace 0` times the loop for S seconds (and at least MIN_JOBS jobs) and
reports the end-to-end metrics.  `--trace 1` reports per-layer metrics over
a fixed number of jobs, the workload's `layer_jobs`, so that its sums
compare between commits: those jobs run untraced, then traced and then
profiled, each pass in a fresh child process so that nothing one pass
leaves in memory can speed up the next.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
failed_frac is failed / attempted.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import math
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: fewest jobs a timed run makes, so that ten samples lie beyond p90
MIN_JOBS = 100
#: set-up is repeated this often and its median reported
SETUP_REPEATS = 5
WARMUP_JOBS = 2
#: cut-off for each of the three child passes of a `--trace 1` run
CHILD_TIMEOUT_S = 50

END_TO_END_UNITS = {"setup_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                    "jobs_per_s": "jobs/s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls") or name.startswith("jobs.") or name == "laws.cases":
        return "count"
    if name.endswith("self_s"):
        return "profiled_s"
    return {"per_entry": "calls/entry", "per_machine": "calls/machine",
            "per_table": "calls/table", "s_per_case": "s/case",
            "overhead_frac": "ratio"}.get(name.rsplit(".", 1)[1], "s")


class Bench:
    """One workload at one seed: set-up, machine files, and the passes over jobs."""

    def __init__(self, workload: str, seed: int, workdir: Path, setup_repeats: int):
        self.workdir = workdir
        times = [self._setup(workload, seed) for _ in range(setup_repeats)]
        self.setup_s = statistics.median(times)
        self.checks = importlib.import_module("checks")
        self.jobs_module = importlib.import_module("jobs")
        for i in range(WARMUP_JOBS):
            self._run(self._write(self.workload.job(seed, -1 - i)))

    def _setup(self, workload: str, seed: int) -> float:
        """Import tracekit afresh, then generate, construct and write the pool."""
        for name in list(sys.modules):
            if name.split(".")[0] in ("tracekit", "tests", "generate", "jobs", "checks"):
                del sys.modules[name]
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        started = time.process_time()
        self.cli = importlib.import_module("tracekit.cli")
        self.workload = importlib.import_module("jobs").WORKLOADS[workload]
        self.seed = seed
        self.pool = [self._write(self.workload.job(seed, i)) for i in range(self.workload.pool)]
        return time.process_time() - started

    def _write(self, job):
        if job.machine is not None:
            job.path = str(self.workdir / f"job{job.index}.json")
            with open(job.path, "w", encoding="utf-8") as fh:
                json.dump(self.cli.serialize_machine(job.machine), fh, ensure_ascii=False)
        return job

    def job(self, i: int):
        return self.pool[i] if i < len(self.pool) else self._write(self.workload.job(self.seed, i))

    def _run(self, job):
        return self.cli.run_command(job.command, **job.options())

    def passes(self, jobs, call=None):
        """Run and check each job; yield (job, seconds, problems).

        `call(job)` replaces the plain `run_command` call, for traced and
        profiled passes.  A job that raises counts as failed.
        """
        gc.collect()
        gc.freeze()
        for job in jobs:
            gc.collect()
            started = time.thread_time()
            try:
                report = call(job) if call else self._run(job)
            except Exception as e:  # a failing job is a result, not a crash
                yield job, time.thread_time() - started, [f"raised {e!r}"]
                continue
            elapsed = time.thread_time() - started
            try:
                problems = self.checks.check(job, report)
            except Exception as e:  # a malformed report fails its check
                problems = [f"check raised {e!r}"]
            yield job, elapsed, problems


def _report_problems(job, problems) -> None:
    for p in problems[:3]:
        print(f"job {job.index} ({job.command}): {p}", file=sys.stderr)


def timed_run(bench: Bench, seconds: float) -> dict:
    """Closed loop for `seconds` of wall time and at least MIN_JOBS jobs.

    Latency is the CPU time of the `run_command` call's thread.  The call is
    single-threaded and CPU-bound, so on an idle machine that equals its
    wall time; on a shared host it leaves out the time the process waited
    for a CPU, which other tenants decide.
    """
    latencies, failed = [], 0
    start = time.perf_counter()

    def stream():
        i = 0
        while time.perf_counter() - start < seconds or i < MIN_JOBS:
            yield bench.job(i)
            i += 1

    for job, elapsed, problems in bench.passes(stream()):
        latencies.append(elapsed)
        failed += bool(problems)
        _report_problems(job, problems)
    ordered = sorted(latencies)
    p90_rank = math.ceil(0.9 * len(ordered))
    print(f"{len(ordered)} jobs; p90 is rank {p90_rank}, "
          f"{len(ordered) - p90_rank} samples beyond it")
    return {
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {
            "setup_s": bench.setup_s,
            "job_p50_ms": 1000 * statistics.median(ordered),
            "job_p90_ms": 1000 * ordered[p90_rank - 1],
            "jobs_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def layer_pass(bench: Bench, kind: str, out_dir: Path) -> dict:
    """One untraced, traced or profiled pass over the first `layer_jobs` jobs."""
    jobs = [bench.job(i) for i in range(bench.workload.layer_jobs)]
    failed, total = 0, 0.0
    call = None
    if kind == "traced":
        layers = importlib.import_module("layers")
        tracer = layers.Tracer()

        def call(job):
            tracer.job = job.index
            return tracer.call(layers.JOB_LAYER, bench._run, job)

        tracer.install()
    elif kind == "profiled":
        profiler = cProfile.Profile()

        def call(job):
            profiler.enable()
            try:
                return bench._run(job)
            finally:
                profiler.disable()

    try:
        for job, elapsed, problems in bench.passes(jobs, call):
            total += elapsed
            failed += bool(problems)
            _report_problems(job, problems)
    finally:
        if kind == "traced":
            tracer.uninstall()
    metrics = {"pass.total_s": total}
    if kind == "traced":
        for name in tracer.missing:
            print(f"warning: {name} not found; its layer reads 0", file=sys.stderr)
        metrics.update(tracer.metrics())
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"spans-{bench.workload.name}-seed{bench.seed}.json", "w") as fh:
            json.dump(tracer.as_records(), fh)
    elif kind == "profiled":
        sizes = [bench.jobs_module.table_sizes(job) for job in jobs]
        metrics.update(importlib.import_module("layers").profile_counts(
            pstats.Stats(profiler).stats, *(sum(col) for col in zip(*sizes))))
    return {"attempted": len(jobs), "failed": failed, "metrics": metrics}


def layer_run(args) -> dict:
    """The untraced, traced and profiled passes, each in its own child process."""
    children = {}
    for kind in ("untraced", "traced", "profiled"):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1", "--pass", kind],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            raise SystemExit(f"error: the {kind} pass exited with {child.returncode}")
        children[kind] = json.loads(child.stdout.splitlines()[-1])
    traced, profiled = children["traced"]["metrics"], children["profiled"]["metrics"]
    base = children["untraced"]["metrics"]["pass.total_s"]
    metrics = {**traced, **profiled,
               "trace.overhead_frac": (traced["pass.total_s"] - base) / base}
    del metrics["pass.total_s"]
    return {"attempted": sum(r["attempted"] for r in children.values()),
            "failed": sum(r["failed"] for r in children.values()), "metrics": metrics}


def use_checkout() -> bool:
    """Put the checkout's `src/` and root first on the import path.

    False, with a message, when the program or its oracles are missing.
    """
    for needed in ("src/tracekit/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a tracekit checkout",
                  file=sys.stderr)
            return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="layer_pass", choices=("untraced", "traced", "profiled"),
                        help=argparse.SUPPRESS)  # one child pass of a --trace 1 run
    args = parser.parse_args(argv)

    if not use_checkout():
        return 2
    if args.workload not in importlib.import_module("jobs").WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.trace and not args.layer_pass:
        result = layer_run(args)
    else:
        workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{args.layer_pass}"
        try:
            if args.layer_pass:
                bench = Bench(args.workload, args.seed, workdir, setup_repeats=1)
                result = layer_pass(bench, args.layer_pass, ROOT / ".bench_out")
            else:
                bench = Bench(args.workload, args.seed, workdir, SETUP_REPEATS)
                result = timed_run(bench, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if not args.layer_pass:
        for name, value in metrics.items():
            print(f"{name:40s} {value:14.6g} {_unit(name)}")
        print(f"failed_frac {result['failed'] / result['attempted']:.4g} "
              f"({result['failed']} of {result['attempted']} jobs)")
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
