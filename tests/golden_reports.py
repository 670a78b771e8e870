"""Digests of the CLI reports on every fixture, pinned in `golden_reports.json`.

Each case is one `run_command` call: every fixture in `machines/` under
every command that reads a machine file and every `--engine` value, at
depths 0 and 3, plus `counterexample`.  Beyond the fixtures, `tests/gen.py`
machines (seeds 0-9) are written to files with `serialize_machine`, and
their reports name the file without its directory: `compare` at depth 5 on
every Moore configuration and both generative kinds, `strategies` at depth
3 on io systems of both modes, `determinise` on the generative io systems
and the powerset Moore configurations, and `semantics` at depth 4 on tree
machines of every modality.  A case's digest is the
sha256 of the report as the CLI prints it, without `timing_s`; a rejected
case digests its error class and message, so rejections are pinned too.  A
change that must leave every report as it was is checked by
`tests/test_golden_reports.py`.

Regenerate the file, from the repository root, after a deliberate change to
the reports:

    PYTHONPATH=src python -m tests.golden_reports
"""

from __future__ import annotations

import glob
import hashlib
import json
import tempfile
from pathlib import Path

from tests import gen
from tracekit.cli import run_command, serialize_machine
from tracekit.kernel import KernelError, Modality, MonadKind

FIXTURES = "machines"
GOLDEN = Path(__file__).with_name("golden_reports.json")
COMMANDS = ("semantics", "compare", "laws", "strategies", "determinise")
ENGINES = (None, "em", "kleisli", "logic", "cia")
DEPTHS = (0, 3)
#: `laws` needs a seed on subdistribution machines; the other commands take none
LAW_SEED = 1
GENERATED_SEEDS = range(10)
GENERATED_DEPTH = 5
STRATEGY_BOUND = 3
TREE_DEPTH = 4


def fixture_names() -> list[str]:
    return sorted(Path(p).stem for p in glob.glob(f"{FIXTURES}/*.json"))


def cases(fixture: str) -> list[tuple[str, str, dict]]:
    """(case id, command, options) for one fixture, or for `counterexample`."""
    if fixture == "counterexample":
        return [("counterexample", "counterexample", {}),
                *((f"counterexample --depth {d}", "counterexample", {"depth": d})
                  for d in DEPTHS)]
    out = []
    for command in COMMANDS:
        for engine in ENGINES:
            for depth in DEPTHS:
                options = {"machine": f"{FIXTURES}/{fixture}.json", "depth": depth,
                           "engine": engine,
                           "seed": LAW_SEED if command == "laws" else None}
                flag = f" --engine {engine}" if engine else ""
                out.append((f"{fixture} {command}{flag} --depth {depth}", command, options))
    return out


def generated_machines() -> dict[str, tuple]:
    """Case id -> (generated machine, command, depth) for the cases beyond the
    fixtures.  The `compare` cases come first, in their original order, since
    a case's position names its machine file."""
    out = {}
    for seed in GENERATED_SEEDS:
        for config in gen.CONFIGS:
            out[f"gen moore {config} {seed} compare --depth {GENERATED_DEPTH}"] = \
                (gen.random_moore(seed, config), "compare", GENERATED_DEPTH)
        for kind in (MonadKind.POW, MonadKind.SUBDIST):
            out[f"gen generative {kind.value} {seed} compare --depth {GENERATED_DEPTH}"] = \
                (gen.random_generative(seed, kind), "compare", GENERATED_DEPTH)
    for seed in GENERATED_SEEDS:
        for mode in ("generative", "reactive"):
            out[f"gen io {mode} {seed} strategies --depth {STRATEGY_BOUND}"] = \
                (gen.random_io_system(seed, mode), "strategies", STRATEGY_BOUND)
        out[f"gen io generative {seed} determinise"] = \
            (gen.random_io_system(seed, "generative"), "determinise", None)
        for config in ("nda-exists", "nda-forall"):
            out[f"gen moore {config} {seed} determinise"] = \
                (gen.random_moore(seed, config), "determinise", None)
    for seed in GENERATED_SEEDS:
        for alg in Modality:
            out[f"gen tree {alg.value} {seed} semantics --depth {TREE_DEPTH}"] = \
                (gen.random_tree_automaton(seed, alg), "semantics", TREE_DEPTH)
    return out


def digest(command: str, options: dict, machine_name: str | None = None) -> str:
    """Digest of one report; `machine_name` replaces the machine path it shows."""
    try:
        report = run_command(command, **options)
    except KernelError as e:
        text = f"error: {type(e).__name__}: {e}"
    else:
        del report["timing_s"]
        if machine_name is not None:
            report["options"]["machine"] = machine_name
        text = json.dumps(report, indent=2, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(fixture: str) -> dict[str, str]:
    return {case: digest(command, options) for case, command, options in cases(fixture)}


def generated_digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (case, (machine, command, depth)) in enumerate(generated_machines().items()):
            path = Path(tmp) / f"gen{i}.json"
            path.write_text(json.dumps(serialize_machine(machine), ensure_ascii=False))
            out[case] = digest(command, {"machine": str(path), "depth": depth}, path.name)
    return out


def all_digests() -> dict[str, str]:
    out = {}
    for fixture in [*fixture_names(), "counterexample"]:
        out.update(digests(fixture))
    out.update(generated_digests())
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
