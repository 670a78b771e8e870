"""Summarise one benchmark result file, or diff two of them.

    python3 bench/diff.py RESULTS.json             # median and quartiles per metric
    python3 bench/diff.py BEFORE.json AFTER.json   # and the change between them

Result files are written by `suite.py`.  For every workload and metric the
diff gives each side's median and quartiles.  An end-to-end metric whose
median got worse by more than its bound in `BENCHMARK.json` is flagged
WORSE; where either side's spread (quartile distance over median) is wider
than that bound the metric is reported UNRESOLVED instead, unless every
run of one side beats every run of the other.  Per-layer metrics have no
bound and are listed for explanation only.  This is a report, not a gate:
it always exits 0 on readable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = _quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def collect(path: str) -> dict:
    """{workload: {metric: [values]}} over every successful run in the file."""
    out: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        result = run.get("result")
        if result is None:
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def _bounds() -> dict:
    """{metric: (better, bound or None)} from BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def _fmt(values: list) -> str:
    q1, q2, q3 = _quartiles(values)
    return f"{q2:12.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def summarise(path: str) -> None:
    bounds = _bounds()
    for workload, metrics in collect(path).items():
        print(f"== {workload}")
        for name, values in metrics.items():
            bound = bounds.get(name, (None, None))[1]
            note = ""
            if bound is not None:
                note = f"spread {spread(values):.3f} (bound {bound})"
            print(f"  {name:40s} {_fmt(values)}  {note}")


def verdict(old: list, new: list, better: str, bound) -> str:
    o, n = statistics.median(old), statistics.median(new)
    change = (n - o) / abs(o) if o else 0.0
    worse_by = change if better == "lower" else -change
    if bound is None:
        return f"{change:+.1%}"
    if max(spread(old), spread(new)) > bound:
        improved_all = (max(new) < min(old)) if better == "lower" else (min(new) > max(old))
        worsened_all = (min(new) > max(old)) if better == "lower" else (max(new) < min(old))
        if not (improved_all or worsened_all):
            return f"{change:+.1%} UNRESOLVED (spread above bound {bound})"
    if worse_by > bound:
        return f"{change:+.1%} WORSE (bound {bound})"
    return f"{change:+.1%}"


def diff(before: str, after: str) -> None:
    bounds = _bounds()
    old_all, new_all = collect(before), collect(after)
    for workload in sorted(set(old_all) | set(new_all)):
        print(f"== {workload}")
        old_w, new_w = old_all.get(workload, {}), new_all.get(workload, {})
        for name in list(old_w) + [n for n in new_w if n not in old_w]:
            if name not in old_w or name not in new_w:
                print(f"  {name:40s} only in {'before' if name in old_w else 'after'}")
                continue
            better, bound = bounds.get(name, ("lower", None))
            print(f"  {name:40s} before {_fmt(old_w[name])}\n"
                  f"  {'':40s} after  {_fmt(new_w[name])}  "
                  f"{verdict(old_w[name], new_w[name], better, bound)}")


def main(argv: list) -> int:
    if len(argv) == 1:
        summarise(argv[0])
    elif len(argv) == 2:
        diff(argv[0], argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
