"""Every fixture report matches its pinned digest (see `tests/golden_reports.py`)."""

import json

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
