"""Figure 4 — running time of the model suite across execution engines.

pytest-benchmark times the two headline configurations (reference runner and
Distill whole-model compilation) on the Botvinick Stroop model — the model
with the paper's largest speedup — while the full Figure 4 table (all eight
models × four engines, normalised to the reference runner) is regenerated by
``test_figure4_report``, which also carries the CI ``bench`` job's sanity
floor: the compiled engine must beat the IR interpreter by >= 3x on
predator_prey_s and necker_cube_s.
"""

import pytest

from repro.bench.harness import figure4_report
from repro.cogframe import ReferenceRunner
from repro.core.distill import compile_composition
from repro.models import stroop

TRIALS = 10
INPUTS = stroop.default_inputs("incongruent")

#: Compiled must beat ir-interp by at least this factor on each floor model.
INTERP_FLOOR = 3.0
INTERP_FLOOR_MODELS = ("predator_prey_s", "necker_cube_s")


@pytest.fixture(scope="module")
def compiled_stroop():
    return compile_composition(stroop.build_botvinick_stroop(cycles=100), pipeline="default<O2>")


def bench_reference(benchmark):
    runner = ReferenceRunner(stroop.build_botvinick_stroop(cycles=100), seed=0)
    benchmark(lambda: runner.run(INPUTS, num_trials=TRIALS))


def bench_distill_compiled(benchmark, compiled_stroop):
    benchmark(
        lambda: compiled_stroop.run(INPUTS, num_trials=TRIALS, seed=0, engine="compiled")
    )


def bench_ir_interpreter(benchmark, compiled_stroop):
    benchmark(
        lambda: compiled_stroop.run(INPUTS, num_trials=2, seed=0, engine="ir-interp")
    )


def test_figure4_report(print_report):
    """Regenerate the Figure 4 table (normalised running times + speedups)."""
    report = figure4_report(trials_scale=0.5)
    print_report(report)
    rows = {row["model"]: row for row in report.rows if row["model"] != "average"}
    # Shape checks mirroring the paper's findings.
    for name, row in rows.items():
        assert row["distill_speedup"] > 1.0, f"{name}: Distill must beat the baseline"
    average = next(row for row in report.rows if row["model"] == "average")
    assert average["distill_speedup"] > 5.0
    for name in INTERP_FLOOR_MODELS:
        advantage = rows[name]["ir-interp_s"] / rows[name]["compiled_s"]
        assert advantage >= INTERP_FLOOR, (
            f"{name}: compiled beat ir-interp by only {advantage:.2f}x"
        )
