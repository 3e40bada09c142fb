"""Terminal summary: one verdict line per acceptance criterion; an empty ladder table per test."""

import re

import pytest

from ladderfield.chain_complex import _ladder_table

_CRITERIA: dict[str, dict] = {}
_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


@pytest.fixture(autouse=True)
def _empty_ladder_table():
    """Each test starts with no ladder size kept, so no result depends on the tests run before it.
    Tests of the table itself make their warm calls explicitly."""
    _ladder_table.cache_clear()


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if match is None:
        return
    number, slug = match.groups()
    entry = _CRITERIA.setdefault(
        number, {"title": slug.replace("_", " "), "failed": False, "skipped": False}
    )
    if report.failed:
        entry["failed"] = True
    if report.skipped:
        entry["skipped"] = True


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        entry = _CRITERIA[number]
        verdict = (
            "FAIL"
            if entry["failed"]
            else ("SKIP" if entry["skipped"] else "PASS")
        )
        terminalreporter.write_line(
            f"criterion {number} ({entry['title']}): {verdict}"
        )
