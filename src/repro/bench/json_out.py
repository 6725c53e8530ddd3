"""Machine-readable figure rows: ``BENCH_<name>.json`` files.

Figure reports are human tables; this module serialises the rows of a
:class:`~repro.bench.harness.FigureReport` into ``BENCH_<name>.json`` with
the schema

.. code-block:: json

    {"bench": "fig5a", "commit": "<hex|unknown>", "schema_version": 1,
     "title": "...", "notes": [...], "rows": [{...}, ...]}

NaN/Inf cells become ``null`` and numpy scalars are unwrapped, so the files
are strict JSON.  ``BENCH_fig5a.json`` (predator-prey scaling) and
``BENCH_fig10_autotune.json`` (default<O2> vs the tuned pipeline) are
committed at the repository root; the CI ``bench`` job regenerates them in
quick mode and uploads them.  This module only writes rows: the perf floors
are plain assertions in the ``benchmarks/`` modules, and compile time, warm
engine runs and served requests are measured by ``perfbench/run.py``.

CLI::

    python -m repro.bench.json_out --out-dir . [--quick] \
        [--benches fig5a,fig10_autotune]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from typing import Dict, Optional, Sequence

from .harness import FigureReport, figure5a_report, figure10_autotune_report

#: Schema version recorded in every payload (bump on breaking row changes).
SCHEMA_VERSION = 1


def current_commit() -> str:
    """The commit hash the rows were measured at (best effort)."""
    for env in ("GITHUB_SHA", "CI_COMMIT_SHA"):
        value = os.environ.get(env)
        if value:
            return value
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _jsonable(value):
    """Coerce a report cell into strict JSON (no NaN/Inf literals)."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return _jsonable(item())
    return str(value)


def bench_payload(bench: str, report: FigureReport, commit: Optional[str] = None) -> Dict:
    """Serialise ``report`` into the ``BENCH_*.json`` schema."""
    return {
        "bench": bench,
        "commit": commit if commit is not None else current_commit(),
        "schema_version": SCHEMA_VERSION,
        "title": report.title,
        "notes": list(report.notes),
        "rows": [
            {str(k): _jsonable(v) for k, v in row.items()} for row in report.rows
        ],
    }


def write_bench_json(
    path: str, bench: str, report: FigureReport, commit: Optional[str] = None
) -> Dict:
    """Write ``report`` as ``path`` in the BENCH json schema; returns payload."""
    payload = bench_payload(bench, report, commit=commit)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")
    return payload


# ---------------------------------------------------------------------------
# Bench builders (name -> report factory)
# ---------------------------------------------------------------------------


def _build_fig5a(quick: bool) -> FigureReport:
    if quick:
        return figure5a_report(variants=("s", "m"), include_xl=False)
    return figure5a_report(variants=("s", "m", "l"), include_xl=True, xl_levels=40)


def _build_fig10_autotune(quick: bool) -> FigureReport:
    return figure10_autotune_report(quick=quick)


BENCH_BUILDERS = {
    "fig5a": _build_fig5a,
    "fig10_autotune": _build_fig10_autotune,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.json_out",
        description="Write figure rows as BENCH_*.json files.",
    )
    parser.add_argument("--out-dir", default=".", help="directory for BENCH_*.json")
    parser.add_argument(
        "--benches",
        default="fig5a",
        help=f"comma-separated subset of {sorted(BENCH_BUILDERS)}",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller variants/repeats (CI smoke)"
    )
    args = parser.parse_args(argv)

    benches = [b.strip() for b in args.benches.split(",") if b.strip()]
    unknown = [b for b in benches if b not in BENCH_BUILDERS]
    if unknown:
        parser.error(
            f"unknown bench {', '.join(map(repr, unknown))}; known: {sorted(BENCH_BUILDERS)}"
        )

    os.makedirs(args.out_dir, exist_ok=True)
    commit = current_commit()
    for bench in benches:
        report = BENCH_BUILDERS[bench](args.quick)
        path = os.path.join(args.out_dir, f"BENCH_{bench}.json")
        write_bench_json(path, bench, report, commit=commit)
        print(report.format_table())
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI in CI
    sys.exit(main())
