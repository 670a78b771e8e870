"""Digests of the CLI reports on every fixture, pinned in `golden_reports.json`.

Each case is one `run_command` call: every fixture in `machines/` under
every command that reads a machine file and every `--engine` value, at
depths 0 and 3, plus `counterexample`.  Beyond the fixtures, `compare` runs
at depth 5 on `tests/gen.py` machines (every Moore configuration and both
generative kinds, seeds 0-9), written to files with `serialize_machine`;
their reports name the file without its directory.  A case's digest is the
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
from tracekit.kernel import KernelError, MonadKind

FIXTURES = "machines"
GOLDEN = Path(__file__).with_name("golden_reports.json")
COMMANDS = ("semantics", "compare", "laws", "strategies", "determinise")
ENGINES = (None, "em", "kleisli", "logic", "cia")
DEPTHS = (0, 3)
#: `laws` needs a seed on subdistribution machines; the other commands take none
LAW_SEED = 1
GENERATED_SEEDS = range(10)
GENERATED_DEPTH = 5


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


def generated_machines() -> dict[str, object]:
    """Case id -> generated machine, for the `compare` cases beyond the fixtures."""
    out = {}
    for seed in GENERATED_SEEDS:
        for config in gen.CONFIGS:
            out[f"gen moore {config} {seed} compare --depth {GENERATED_DEPTH}"] = \
                gen.random_moore(seed, config)
        for kind in (MonadKind.POW, MonadKind.SUBDIST):
            out[f"gen generative {kind.value} {seed} compare --depth {GENERATED_DEPTH}"] = \
                gen.random_generative(seed, kind)
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
        for i, (case, machine) in enumerate(generated_machines().items()):
            path = Path(tmp) / f"gen{i}.json"
            path.write_text(json.dumps(serialize_machine(machine), ensure_ascii=False))
            out[case] = digest("compare", {"machine": str(path), "depth": GENERATED_DEPTH},
                               path.name)
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
