"""repro.bench — harness regenerating the paper's tables and figures.

See :mod:`repro.bench.harness`; the pytest-benchmark entry points live in the
top-level ``benchmarks/`` directory (one file per figure).
"""

from .harness import (
    FigureReport,
    all_reports,
    figure2_report,
    figure3_report,
    figure4_report,
    figure5a_report,
    figure5b_report,
    figure5c_report,
    figure6_report,
    figure7_report,
    figure7_cache_report,
)


def __getattr__(name):
    # Lazy re-export: importing json_out eagerly would shadow the
    # ``python -m repro.bench.json_out`` CLI entry point (runpy warns when
    # the submodule is already in sys.modules).
    if name in ("bench_payload", "current_commit", "write_bench_json"):
        from . import json_out

        return getattr(json_out, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FigureReport",
    "all_reports",
    "figure2_report",
    "figure3_report",
    "figure4_report",
    "figure5a_report",
    "figure5b_report",
    "figure5c_report",
    "figure6_report",
    "figure7_report",
    "figure7_cache_report",
    "bench_payload",
    "current_commit",
    "write_bench_json",
]
