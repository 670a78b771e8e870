"""Digests of the CLI reports on every fixture, pinned in `golden_reports.json`.

Each case is one `run_command` call: every fixture in `machines/` under
every command that reads a machine file and every `--engine` value, at
depths 0 and 3, plus `counterexample`.  A case's digest is the sha256 of the
report as the CLI prints it, without `timing_s`; a rejected case digests its
error class and message, so rejections are pinned too.  A change that must
leave every report as it was is checked by `tests/test_golden_reports.py`.

Regenerate the file, from the repository root, after a deliberate change to
the reports:

    PYTHONPATH=src python -m tests.golden_reports
"""

from __future__ import annotations

import glob
import hashlib
import json
from pathlib import Path

from tracekit.cli import run_command
from tracekit.kernel import KernelError

FIXTURES = "machines"
GOLDEN = Path(__file__).with_name("golden_reports.json")
COMMANDS = ("semantics", "compare", "laws", "strategies", "determinise")
ENGINES = (None, "em", "kleisli", "logic", "cia")
DEPTHS = (0, 3)
#: `laws` needs a seed on subdistribution machines; the other commands take none
LAW_SEED = 1


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


def digest(command: str, options: dict) -> str:
    try:
        report = run_command(command, **options)
    except KernelError as e:
        text = f"error: {type(e).__name__}: {e}"
    else:
        del report["timing_s"]
        text = json.dumps(report, indent=2, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(fixture: str) -> dict[str, str]:
    return {case: digest(command, options) for case, command, options in cases(fixture)}


def all_digests() -> dict[str, str]:
    out = {}
    for fixture in [*fixture_names(), "counterexample"]:
        out.update(digests(fixture))
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
