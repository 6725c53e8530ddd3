"""Figure 10 — pipeline autotuner: default<O2> vs the equivalence-proven winner.

The autotuner (``Session.autotune`` / ``python -m repro.tune``) generates
candidate pipelines from the incumbent's per-pass changed/no-op profile,
proves each candidate bitwise-equivalent on representative inputs, races the
survivors with min-of-k timing and persists the winner keyed on
(structural hash, engine, objective) so ``pipeline="auto"`` resolves it with
zero search cost.

``test_figure10_autotune_report`` carries the CI ``bench`` job's autotune
floor (:func:`check_autotune_floor`), which is unconditional: the tuned
objective must be <= the default<O2> objective on every gated workload (a
fruitless search returns the incumbent, never something slower), and the
candidate accounting must add up.  ``BENCH_fig10_autotune.json`` at the repo
root holds the full-size rows (``python -m repro.bench.json_out --benches
fig10_autotune``).
"""

from repro.bench.harness import FigureReport, figure10_autotune_report
from repro.driver.autotune import AutotuneConfig, run_autotune
from repro.models import get_model

#: The two quick-budget smoke models (small enough for CI wall clock).
SMOKE_MODELS = ("necker_cube_s", "predator_prey_s")


def check_autotune_floor(report: FigureReport) -> None:
    """Raise ``AssertionError`` when a gated tuned row exceeds the default.

    The autotuner's contract is unconditional on ``gate=True`` workloads: the
    winner's measured objective must be <= the incumbent's, because the
    incumbent is always raced and always eligible (a fruitless search returns
    the incumbent, never something slower).  Rows where every non-incumbent
    candidate was rejected must still satisfy this via
    ``tuned_is_incumbent``.  There is no tunable factor — equality is the
    floor.
    """
    gated = [row for row in report.rows if row.get("gate")]
    if not gated:
        raise AssertionError("autotune floor check found no gated rows")
    offenders = [
        row
        for row in gated
        if row["tuned_objective_s"] > row["default_objective_s"]
        and not row["tuned_is_incumbent"]
    ]
    if offenders:
        detail = ", ".join(
            f"{row['workload']}: tuned {row['tuned_objective_s']:.4f}s vs "
            f"default {row['default_objective_s']:.4f}s"
            for row in offenders
        )
        raise AssertionError(
            f"autotune floor failed: tuned objective exceeded default<O2> on {detail}"
        )
    unproven = [
        row for row in gated if row["rejected"] + row["errored"] + row[
            "proven_equivalent"
        ] != row["candidates_searched"] + 1  # +1: the incumbent's own record
    ]
    if unproven:
        detail = ", ".join(str(row["workload"]) for row in unproven)
        raise AssertionError(
            f"autotune floor failed: candidate accounting inconsistent on {detail}"
        )


def _tune(name, budget=6, repeats=2):
    entry = get_model(name)
    return run_autotune(
        entry.build(),
        entry.inputs(),
        num_trials=entry.num_trials,
        config=AutotuneConfig(budget=budget, repeats=repeats, warmup=0),
        store=False,
    )


def bench_autotune_search(benchmark):
    """One full quick-budget search: generate + prove + race + pick."""
    benchmark.pedantic(lambda: _tune(SMOKE_MODELS[0]), rounds=1, iterations=1)


def test_raced_candidates_carry_incumbent_proof():
    """On two registered models every raced candidate carries the
    incumbent's equivalence proof hash (the tuned <= default floor itself is
    asserted once, by ``test_figure10_autotune_report``)."""
    for name in SMOKE_MODELS:
        result = _tune(name)
        raced = [r for r in result.records if r.status in ("winner", "equivalent", "incumbent")]
        incumbent_proof = next(
            r.proof for r in result.records if r.status == "incumbent"
        )
        assert incumbent_proof
        for record in raced:
            assert record.equivalent
            assert record.proof == incumbent_proof
        assert result.searched >= 1


def test_figure10_autotune_report(print_report):
    """The committed-JSON rows, quick variant, with the tuned <= default floor."""
    report = figure10_autotune_report(quick=True)
    print_report(report)
    check_autotune_floor(report)
    workloads = [row["workload"] for row in report.rows]
    # Registered suite + the two generated scale specs.
    assert "necker_cube_s" in workloads
    assert sum(1 for w in workloads if w.startswith("scale_")) == 2
    for row in report.rows:
        assert row["proven_equivalent"] >= 1  # the incumbent at minimum
