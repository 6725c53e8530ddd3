"""Shared fixtures/reporting for the per-figure benchmarks.

Every benchmark module regenerates one figure of the paper through
``repro.bench.harness`` and prints its rows (captured by ``-s`` or visible in
the pytest summary via the ``paper_report`` fixture's teardown output), in
addition to timing the representative kernel with pytest-benchmark.
"""

from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).parent


def pytest_collect_file(file_path, parent):
    """Collect ``bench_*.py`` when ``benchmarks/`` itself is a pytest target.

    ``python -m pytest -q benchmarks/`` then runs every module's ``test_*``
    functions (the perf floors included); the root test suite never matches
    these files, and modules named on the command line are collected by
    pytest itself.
    """
    session = parent.session
    if (
        file_path.suffix == ".py"
        and file_path.name.startswith("bench_")
        and session.isinitpath(BENCHMARKS_DIR)
        and not session.isinitpath(file_path)
    ):
        return pytest.Module.from_parent(parent, path=file_path)
    return None


@pytest.fixture
def print_report(capsys):
    """Return a callable that prints a FigureReport outside captured output."""

    def _print(report):
        with capsys.disabled():
            print()
            print(report.format_table())

    return _print
