"""Every fixture report matches its pinned digest (see `tests/golden_reports.py`)."""

import json

import pytest

from tests import golden_reports

GOLDEN = json.loads(golden_reports.GOLDEN.read_text())


@pytest.mark.parametrize("fixture", [*golden_reports.fixture_names(), "counterexample"])
def test_reports_match_their_golden_digests(fixture):
    got = golden_reports.digests(fixture)
    pinned = {case: GOLDEN.get(case) for case in got}
    changed = sorted(case for case in got if got[case] != pinned[case])
    assert not changed, f"{len(changed)} reports differ from tests/golden_reports.json: {changed}"


def test_golden_file_has_no_stale_cases():
    cases = {case for fixture in [*golden_reports.fixture_names(), "counterexample"]
             for case, _command, _options in golden_reports.cases(fixture)}
    assert set(GOLDEN) == cases
