"""Figure 5a — predator-prey scaling (S/M/L/XL).

pytest-benchmark times the compiled L variant (216 evaluations per controller
execution); the scaling table including the extrapolated XL baseline is
regenerated by ``test_figure5a_report``.
"""

import pytest

from repro.bench.harness import figure5a_report
from repro.core.distill import compile_composition
from repro.models import predator_prey as pp

INPUTS = pp.default_inputs(1)


@pytest.fixture(scope="module")
def compiled_l():
    return compile_composition(pp.build_predator_prey("l"), pipeline="default<O2>")


def bench_distill_predator_prey_l(benchmark, compiled_l):
    benchmark(lambda: compiled_l.run(INPUTS, num_trials=1, seed=0, engine="compiled"))


def bench_distill_predator_prey_m(benchmark):
    compiled = compile_composition(pp.build_predator_prey("m"), pipeline="default<O2>")
    benchmark(lambda: compiled.run(INPUTS, num_trials=1, seed=0, engine="compiled"))


def test_figure5a_report(print_report):
    report = figure5a_report(variants=("s", "m", "l"), include_xl=True, xl_levels=40)
    print_report(report)
    rows = {row["variant"]: row for row in report.rows}
    # Baseline cost grows roughly with the number of evaluations...
    assert rows["L"]["reference_s"] > rows["S"]["reference_s"]
    # ...while Distill keeps the smaller variants' runtime within one order of
    # magnitude of each other (the paper's "nearly the same" observation).
    assert rows["L"]["distill_s"] < rows["L"]["reference_s"]
    # Distill wins where the evaluation count is large; the S variant may sit
    # below the crossover (a 2^3 grid leaves little work per run), in which
    # case the report must say so instead of presenting a uniform win.
    assert rows["L"]["speedup"] > 1.0 and not rows["L"]["regression"]
    for row in rows.values():
        assert row["regression"] == (row["speedup"] < 1.0)
    if any(row["regression"] for row in rows.values()):
        assert any("crossover" in note for note in report.notes)
