"""Run the benchmark over workloads and seeds and write one result file.

    python3 bench/suite.py --out results.json [--seeds 1-10] [--seconds 20]
                           [--workloads a,b] [--trace 0,1]

Each run is a separate `run.py` process, started after the previous one
has ended.  The file records the interpreter version and `nproc` next to
every run's result; `diff.py` summarises it or compares two such files.
Defaults are the benchmark's own settings from `BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import diff

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", default="0,1")
    args = parser.parse_args(argv)

    runs = []
    for trace in [int(t) for t in args.trace.split(",")]:
        for workload in args.workloads.split(","):
            for seed in _seeds(args.seeds):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                status = "error" if result is None else (
                    "ok" if result["correct"] else f"{result['failed']} failed")
                print(f"{workload} seed {seed} trace {trace}: {status}", flush=True)
                if result is None or not result["correct"]:
                    sys.stderr.write(proc.stderr[-2000:])
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             "result": result})
    out = {"python": platform.python_version(), "implementation": platform.python_implementation(),
           "nproc": len(os.sched_getaffinity(0)), "seconds": args.seconds, "runs": runs}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    diff.summarise(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
