import sys
from functools import cache, partial

import pytest

from deckcensus.census import deck_classes, enumerate_graphs


@pytest.fixture(autouse=True)
def no_nine_vertex_enumeration(monkeypatch):
    """Fail at once on any n = 9 enumeration: all 274668 graphs take
    minutes, and any census or query command with order 9 reaches it.
    Patched wherever the function is bound, including test modules that
    imported it by name (this module among them)."""
    real = enumerate_graphs

    def guarded(n, *args, **kwargs):
        if n == 9:
            raise AssertionError("a test enumerated all graphs on 9 vertices")
        return real(n, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] in ("deckcensus", "tests")
                and getattr(module, "enumerate_graphs", None) is real):
            monkeypatch.setattr(module, "enumerate_graphs", guarded)


@pytest.fixture(scope="session")
def family5():
    return enumerate_graphs(5)


@pytest.fixture(scope="session")
def family6():
    return enumerate_graphs(6)


@pytest.fixture(scope="session")
def family7():
    return enumerate_graphs(7)


@pytest.fixture(scope="session")
def family8():
    return enumerate_graphs(8)


@pytest.fixture(scope="session")
def classes8(family8):
    """``deck_classes(family8, k)`` for a card size k, each census run
    once per session."""
    return cache(partial(deck_classes, family8))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(mod.CRITERIA):
        status = mod.RESULTS.get(num, "FAIL")
        terminalreporter.write_line(f"{status} criterion {num}: {mod.CRITERIA[num]}")
