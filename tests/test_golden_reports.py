"""Every fixture report matches its pinned digest (see `tests/golden_reports.py`)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests import golden_reports

GOLDEN = json.loads(golden_reports.GOLDEN.read_text())


def _changed(got: dict) -> list:
    return sorted(case for case in got if got[case] != GOLDEN.get(case))


@pytest.mark.parametrize("fixture", [*golden_reports.fixture_names(), "counterexample"])
def test_reports_match_their_golden_digests(fixture):
    changed = _changed(golden_reports.digests(fixture))
    assert not changed, f"{len(changed)} reports differ from tests/golden_reports.json: {changed}"


def test_generated_machine_reports_match_their_golden_digests():
    changed = _changed(golden_reports.generated_digests())
    assert not changed, f"{len(changed)} reports differ from tests/golden_reports.json: {changed}"


def test_golden_file_has_no_stale_cases():
    cases = {case for fixture in [*golden_reports.fixture_names(), "counterexample"]
             for case, _command, _options in golden_reports.cases(fixture)}
    cases |= set(golden_reports.generated_machines())
    assert set(GOLDEN) == cases


#: reports whose bytes would follow a set's iteration order if anything
#: iterated one: `compare` on every fixture (every machine kind, the ones it
#: rejects too), `laws`, `determinise` to DOT, trace sets and tree names
HASH_SEED_CASES = [
    *(f"{fixture} compare --depth 3" for fixture in golden_reports.fixture_names()),
    *(f"{fixture} laws --depth 3" for fixture in ("nda_exists", "pa_chain", "generative_ab",
                                                  "generative_half", "strange_pair")),
    *(f"{fixture} determinise --depth 0" for fixture in ("nda_exists", "io_self_loop",
                                                         "io_reactive")),
    "generative_half semantics --engine kleisli --depth 3",
    "tree_fc semantics --depth 3",
]

_DIGEST_CASES = """
import json, sys
from tests import golden_reports as g
options = {case: (command, opts) for fixture in g.fixture_names()
           for case, command, opts in g.cases(fixture)}
print(json.dumps({case: g.digest(*options[case]) for case in sys.argv[1:]}))
"""


def test_reports_do_not_depend_on_the_hash_seed():
    """Branching values compare and hash as sets, and `PYTHONHASHSEED` changes
    the order a set iterates in; no report may follow that order."""
    root = Path(__file__).resolve().parent.parent
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(root / "src")}
        outputs.append(subprocess.run(
            [sys.executable, "-c", _DIGEST_CASES, *HASH_SEED_CASES], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=True).stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == {case: GOLDEN[case] for case in HASH_SEED_CASES}
