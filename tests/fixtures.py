"""The standard machines are the fixture files in `machines/`."""

from pathlib import Path

from tracekit.cli import parse_machine

MACHINES = Path(__file__).resolve().parent.parent / "machines"


def load(name: str):
    """The machine of `machines/<name>.json`."""
    return parse_machine(str(MACHINES / f"{name}.json"))
