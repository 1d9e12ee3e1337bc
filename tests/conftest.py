from collections import Counter

import pytest

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Collect one PASS/FAIL line per acceptance criterion for the summary."""

    def record(line):
        _ACCEPTANCE_LINES.append(line)

    return record


class CallCounter(Counter):
    """Counts calls by name; watch(owner, attr, name) wraps owner.attr for
    the test's duration, so that every call to it adds one to name."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def watch(self, owner, attr, name):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            self[name] += 1
            return fn(*args, **kwargs)

        self._monkeypatch.setattr(owner, attr, counted)


@pytest.fixture
def calls(monkeypatch):
    """A CallCounter whose wrappers are undone after the test."""
    return CallCounter(monkeypatch)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
