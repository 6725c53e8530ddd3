"""Figure 7 — compilation-cost and run-time breakdown at O0–O3.

Also measures the two pipeline-cost optimisations layered on this path:

* the verification policy (``verify="boundary"`` checks the module twice per
  pipeline instead of after every pass — counts pinned by
  ``tests/test_verify_policy.py``), and
* the per-compile :class:`repro.analysis.manager.AnalysisManager`
  (``bench_analysis_cache`` / ``test_figure7_cache_report``): dominator
  trees, loop info and predecessor maps are computed once and invalidated by
  the preserved-analyses contract instead of being rebuilt by every
  consuming pass; invalidation correctness and the per-function
  construction bound are pinned by ``tests/test_analysis_manager.py``.

``test_figure7_report`` and ``test_compile_cache_smoke`` run in the CI
``bench`` job; the smoke test asserts a nonzero analysis cache hit-rate at O2
and writes the pass-timing report to ``$FIG7_REPORT_PATH`` (uploaded as a CI
artifact).
"""

import os

import pytest

from repro.bench.harness import figure7_cache_report, figure7_report
from repro.core.distill import compile_composition
from repro.models import predator_prey as pp


@pytest.mark.parametrize("opt_level", [0, 2])
def bench_compilation(benchmark, opt_level):
    benchmark(
        lambda: compile_composition(
            pp.build_predator_prey("m"), pipeline=f"default<O{opt_level}>"
        )
    )


@pytest.mark.parametrize("policy", ["each", "boundary"])
def bench_verify_policy(benchmark, policy):
    """Compile time with per-pass vs boundary-only verification."""
    benchmark(
        lambda: compile_composition(
            pp.build_predator_prey("m"), pipeline="default<O2>", verify=policy
        )
    )


@pytest.mark.parametrize("mode", ["cold", "cached"])
def bench_analysis_cache(benchmark, mode):
    """O2 compile time with and without the per-compile analysis cache."""
    flags = {"analysis_cache": False} if mode == "cold" else None
    benchmark(
        lambda: compile_composition(
            pp.build_predator_prey("m"), pipeline="default<O2>", flags=flags
        )
    )


def test_figure7_report(print_report):
    report = figure7_report(trials=2)
    print_report(report)
    rows = report.rows
    assert len(rows) == 8  # two models x four optimisation levels
    for row in rows:
        assert row["compilation_s"] > 0.0
        assert row["execution_s"] > 0.0
    # Optimisation costs compile time: O3 compilation is not cheaper than O0.
    pp_rows = {r["opt_level"]: r for r in rows if r["model"] == "Predator-Prey L"}
    assert pp_rows["O3"]["compilation_s"] >= pp_rows["O0"]["compilation_s"] * 0.5
    # The optimising levels reuse cached analyses; O0 runs no passes at all.
    assert pp_rows["O2"]["analysis_hits"] > 0
    assert pp_rows["O0"]["analysis_hits"] == 0


def test_figure7_cache_report(print_report):
    report = figure7_cache_report(repeats=7)
    print_report(report)
    by_key = {(r["model"], r["mode"]): r for r in report.rows}
    for model in ("Predator-Prey M", "Multitasking"):
        cold = by_key[(model, "cold")]
        cached = by_key[(model, "cached")]
        # The cache must actually engage …
        assert cached["analysis_hits"] > 0
        assert cold["analysis_hits"] == 0
        assert cached["domtree_builds"] < cold["domtree_builds"]
    # … and the cached optimisation phase must beat the cold path.  Summed
    # over both models (best-of-7 each) so scheduler noise on one ~35 ms
    # phase cannot flip the comparison.
    cold_total = sum(by_key[(m, "cold")]["optimize_s"] for m in ("Predator-Prey M", "Multitasking"))
    cached_total = sum(by_key[(m, "cached")]["optimize_s"] for m in ("Predator-Prey M", "Multitasking"))
    assert cached_total < cold_total


def _write_timing_report(path: str) -> None:
    """Pass-timing breakdown of one cached O2 compile (the CI artifact)."""
    compiled = compile_composition(pp.build_predator_prey("m"), pipeline="default<O2>")
    lines = ["pass timing report — predator_prey_m @ default<O2> (cached)", ""]
    for name, row in sorted(compiled.stats.passes.items(), key=lambda kv: -kv[1]["seconds"]):
        lines.append(
            f"{name:16s} {row['seconds'] * 1e3:8.2f} ms over {row['runs']} run(s), "
            f"{row['changed']} changed"
        )
    lines.append("")
    stats = compiled.stats
    lines.append(
        f"analysis cache: hits={stats.analysis_hits} misses={stats.analysis_misses} "
        f"invalidations={stats.analysis_invalidations} "
        f"skipped_passes={stats.analysis_skipped_passes} "
        f"computed={stats.analysis_computed}"
    )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_compile_cache_smoke(print_report):
    """CI quick mode: nonzero O2 hit-rate plus the timing-report artifact."""
    compiled = compile_composition(pp.build_predator_prey("s"), pipeline="default<O2>")
    stats = compiled.stats
    assert stats.analysis_hits > 0, "O2 compile should serve analyses from cache"
    hit_rate = stats.analysis_hits / (stats.analysis_hits + stats.analysis_misses)
    assert hit_rate > 0.0
    report_path = os.environ.get("FIG7_REPORT_PATH")
    if report_path:
        _write_timing_report(report_path)
