"""Prints a one-line verdict per acceptance criterion after each run, and
shares full Weyl group enumerations across tests."""

import re

import pytest


@pytest.fixture(scope="session")
def weyl_elements():
    """Sorted elements of W of a datum, enumerated once per session for each
    datum (W(E6) alone has 51,840 elements)."""
    cache = {}

    def elements(datum):
        key = (datum.rank, datum.roots, datum.coroots, datum.basis_indices)
        if key not in cache:
            cache[key] = datum.weyl_group().elements
        return cache[key]

    return elements


def _criterion_key(name):
    m = re.search(r"criterion_(\d+)", name)
    return int(m.group(1)) if m else 99


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                verdicts[nodeid.split("::")[-1]] = label
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(verdicts, key=_criterion_key):
        terminalreporter.write_line(f"{verdicts[name]}  {name}")
