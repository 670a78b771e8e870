"""Tests of the benchmark itself: python3 -m pytest bench

They run each workload at a tiny size, check that a corrupted report is
caught, that profiled counts repeat exactly, and that the runner refuses a
directory without the program.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.use_checkout()


def _bench(workload: str, seed: int, tmp_path: Path, jobs=None) -> run.Bench:
    """A workload whose layer passes run `jobs` jobs, by default one cycle."""
    bench = run.Bench(workload, seed, tmp_path / "work", setup_repeats=1)
    bench.workload = dataclasses.replace(bench.workload,
                                         layer_jobs=jobs or len(bench.workload.slots))
    return bench


@pytest.mark.parametrize("workload", ["subdist-compare", "pow-compare", "cli-mixed"])
def test_one_cycle_of_each_workload_passes_its_checks(workload, tmp_path):
    bench = _bench(workload, 7, tmp_path)
    result = run.layer_pass(bench, "untraced", None)
    assert result["attempted"] == len(bench.workload.slots)
    assert result["failed"] == 0


def test_traced_pass_reports_every_layer(tmp_path):
    bench = _bench("cli-mixed", 3, tmp_path)
    result = run.layer_pass(bench, "traced", tmp_path / "out")
    assert result["failed"] == 0
    layers = sys.modules["layers"]
    for layer in [*layers.SPAN_LAYERS, layers.JOB_LAYER]:
        assert result["metrics"][f"{layer}.s"] > 0, layer
    assert result["metrics"]["laws.cases"] > 0
    spans = json.loads(next((tmp_path / "out").glob("spans-*.json")).read_text())
    assert {s["layer"] for s in spans} >= set(layers.SPAN_LAYERS)
    # the wrappers are gone again: run_command's helpers are the originals
    assert bench.cli.parse_machine.__module__ == "tracekit.cli"


def test_corrupted_report_counts_as_failed(tmp_path):
    bench = _bench("pow-compare", 5, tmp_path)
    original = bench.cli.run_command

    def flip_first_entry(command, **options):
        report = original(command, **options)
        if command == "compare" and "em" in report["engines"]:
            entry = report["languages"]["em"][0]["language"][0]
            entry[1] = not entry[1]
        return report

    bench.cli.run_command = flip_first_entry
    result = run.layer_pass(bench, "untraced", None)
    assert 0 < result["failed"] < result["attempted"]


def test_profiled_counts_repeat_exactly(tmp_path):
    def counts(sub: str) -> dict:
        bench = _bench("subdist-compare", 2, tmp_path / sub, jobs=4)
        metrics = run.layer_pass(bench, "profiled", None)["metrics"]
        return {k: v for k, v in metrics.items() if not k.endswith("_s")}

    first, second = counts("a"), counts("b")
    assert first == second
    assert first["fractions.new.calls"] > 0


def test_pow_compare_builds_no_fraction(tmp_path):
    bench = _bench("pow-compare", 1, tmp_path)
    metrics = run.layer_pass(bench, "profiled", None)["metrics"]
    assert metrics["kernel.pow_value.calls"] > 0
    assert all(metrics[f"fractions.{g}.calls"] == 0 for g in ("new", "arith", "cmp"))


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
