"""Shared pytest wiring: the acceptance tests record one line per criterion
and this hook prints the full table in the terminal summary, so the
pass/fail status of every criterion is visible even without -s."""

import pytest

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(_criterion_lines)):
            terminalreporter.write_line(line)


@pytest.fixture
def factor_calls(monkeypatch):
    """The |n| of every factor(n) call made from here on."""
    import stacky_heights.arith as arith

    real = arith._factor_abs
    calls: list[int] = []

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "_factor_abs", spy)
    return calls
