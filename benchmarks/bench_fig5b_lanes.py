"""Figure 5b (lanes) — batched execution: scalar compiled vs the lane engine.

pytest-benchmark times the lane engine on a 1024-element predator-prey L
batch.  Predator-prey has a grid-search controller, so the lane engine runs
it through the shared scheduler (``backends/grid_driver.py``) and the
grid kernel it shares with ``gpu-sim``: one lane per (element, grid point),
every grid evaluation of a scheduler step in bounded launches of at most
``lane.MAX_LAUNCH_LANES`` lanes.  ``test_lane_beats_scalar_compiled``
carries the CI floor on the same batch: the lane engine must beat the
scalar compiled engine's ``run_batch`` by >= 5x, with no per-lane
fallbacks.  The lane engine's warm throughput over time is measured by
perfbench's ``run_warm`` workload
(``python3 perfbench/run.py --workload run_warm``).
"""

import time

import pytest

from repro.bench.harness import SESSION
from repro.models import predator_prey as pp

INPUTS = pp.default_inputs(1)
LANES = 1024

#: Lane run_batch must beat scalar compiled run_batch by at least this factor.
LANE_FLOOR = 5.0


@pytest.fixture(scope="module")
def lane_l():
    compiled = SESSION.compile_model(pp.build_predator_prey("l"))
    instance = compiled.engine_instance("lane")
    batch = [INPUTS] * LANES
    seeds = list(range(LANES))
    instance.run_batch(batch[:2], num_trials=1, seed=seeds[:2])  # warm codegen
    return instance, batch, seeds


def bench_lane_predator_prey_l(benchmark, lane_l):
    instance, batch, seeds = lane_l
    benchmark(lambda: instance.run_batch(batch, num_trials=1, seed=seeds))


def test_lane_beats_scalar_compiled(lane_l):
    lane, batch, seeds = lane_l
    scalar = lane.model.engine_instance("compiled")
    scalar.run_batch(batch[:2], num_trials=1, seed=seeds[:2])
    started = time.perf_counter()
    scalar.run_batch(batch, num_trials=1, seed=seeds)
    scalar_s = time.perf_counter() - started
    started = time.perf_counter()
    lane.run_batch(batch, num_trials=1, seed=seeds)
    lane_s = time.perf_counter() - started
    assert lane.lane_fallbacks == []
    assert scalar_s >= LANE_FLOOR * lane_s, (
        f"lane beat scalar compiled by only {scalar_s / lane_s:.2f}x "
        f"({scalar_s:.3f}s vs {lane_s:.3f}s at {LANES} lanes)"
    )
