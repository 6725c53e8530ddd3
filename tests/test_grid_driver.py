"""The lockstep grid driver (``backends/grid_driver.py``): block selection
and the schedule derived once per model.

``select_block`` reduces a step's ``(requests, grid_size)`` cost block at
once and replays only the rows whose serial scan draws (ties, ``+inf``
first) or skips (NaN).  It must pick what the row-by-row reservoir scan
picks: same winner, same best cost, same final PRNG counter.
"""

import numpy as np
import pytest

from repro.backends import grid_driver
from repro.backends.grid_driver import grid_driver_plan, select_best, select_block
from repro.cogframe import conditions as cond
from repro.core.distill import compile_composition
from repro.errors import EngineError
from repro.models import MODEL_REGISTRY
from repro.models import predator_prey as pp

GRID = 12


def scan_draws(row):
    """Whether the serial scan of ``row`` draws a uniform or meets a NaN."""
    before = np.minimum.accumulate(np.concatenate(([np.inf], row[:-1])))
    return bool(np.isnan(row).any() or (row == before).any())


def random_block(seed, k=60):
    """Distinct costs per row, then one injected pattern per row: none, a
    tie with the final minimum, a tie with an intermediate minimum that a
    later cost displaces, a leading or later ``+inf``, or NaNs."""
    rng = np.random.default_rng(seed)
    block = np.stack([rng.permutation(GRID) + 10.0 + rng.random() for _ in range(k)])
    for row in block:
        kind = rng.integers(6)
        a, b, c = np.sort(rng.choice(GRID, size=3, replace=False))
        if kind == 1:
            row[a] = row[b] = row.min() - 1.0
        elif kind == 2:
            row[a], row[b], row[c] = 5.0, 5.0, 1.0
        elif kind == 3:
            row[0] = np.inf
        elif kind == 4:
            row[b] = np.inf
        elif kind == 5:
            row[[a, c]] = np.nan
    return block


@pytest.mark.parametrize("seed", range(5))
def test_select_block_equals_select_best_row_by_row(seed, monkeypatch):
    block = random_block(seed)
    keys = [1000.0 * seed + row for row in range(len(block))]
    expected = []
    for row, key in zip(block, keys):
        state = [key, 0.0]
        index = select_best(row, state, rng_offset=0)
        expected.append((index, float(row[index]), state[1]))

    replays = []
    events = grid_driver.candidate_events_from_costs
    monkeypatch.setattr(
        grid_driver,
        "candidate_events_from_costs",
        lambda costs: replays.append(1) or events(costs),
    )
    states = [[key, 0.0] for key in keys]
    picks = select_block(block, states, rng_offset=0, control_name="control")
    got = [(index, cost, state[1]) for (index, cost), state in zip(picks, states)]
    assert got == expected
    # Only the rows whose scan draws or meets a NaN were replayed.
    assert len(replays) == sum(map(scan_draws, block))
    assert 0 < len(replays) < len(block)


def test_select_block_rejects_an_all_nan_row():
    block = random_block(0, k=3)
    block[1] = np.nan
    states = [[1.0, 0.0] for _ in block]
    with pytest.raises(EngineError, match="'control'.*NaN"):
        select_block(block, states, rng_offset=0, control_name="control")


def test_second_per_node_run_evaluates_no_condition(monkeypatch):
    """predator_prey_s has no output-reading condition, so its schedule is
    derived once with the plan and later runs evaluate no condition."""
    calls = []
    for cls in cond.CONDITION_REGISTRY.values():
        original = cls.is_satisfied
        monkeypatch.setattr(
            cls,
            "is_satisfied",
            lambda self, state, original=original: calls.append(self) or original(self, state),
        )
    compiled = compile_composition(pp.build_predator_prey("s"), pipeline="default<O2>")
    instance = compiled.engine_instance("per-node")
    inputs = pp.default_inputs(2, seed=3)
    instance.run(inputs, num_trials=2, seed=0)
    assert calls, "the first run derives the schedule"
    assert grid_driver_plan(compiled).schedule is not None
    del calls[:]
    instance.run(inputs, num_trials=2, seed=1)
    assert calls == []


def test_output_reading_termination_falls_back_per_element():
    """multitasking's ``ThresholdCrossed`` reads the decision node, so its
    plan has no static schedule and watches only that node's outputs."""
    entry = MODEL_REGISTRY["multitasking"]
    plan = grid_driver_plan(compile_composition(entry.build(), pipeline="default<O2>"))
    assert plan.schedule is None
    assert list(plan.watched) == ["decision"]
