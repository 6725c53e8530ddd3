"""Forced worker death in the process-pool engines, outside the daemon.

The ``worker_killer`` fixture (conftest.py) patches an engine's pool task
function before its pool forks; the first worker to find the sentinel file
SIGKILLs itself mid-task.  The engine must raise ``WorkerLost`` instead of
waiting for the lost task, and the next call must start a fresh pool
(``pool_starts == 2``) and return results bitwise equal to the scalar
compiled engine.

Each pooled call runs in a thread joined with a timeout, so a pool that
hangs on the dead worker fails the test instead of stalling the suite.
"""

from __future__ import annotations

import os
import threading

from helpers import build_deterministic_cascade
from repro.backends import lane, multicore
from repro.core.distill import compile_composition
from repro.errors import WorkerLost
from repro.models import get_model

from test_serve import assert_results_bitwise

JOIN_TIMEOUT = 60.0


def call_bounded(fn):
    """``{"value": fn()}`` or ``{"error": exc}``; fails if ``fn`` hangs."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - inspected by the caller
            outcome["error"] = exc

    thread = threading.Thread(target=target, name="pool-death-call", daemon=True)
    thread.start()
    thread.join(timeout=JOIN_TIMEOUT)
    assert not thread.is_alive(), f"pooled call still running after {JOIN_TIMEOUT:.0f}s"
    return outcome


def assert_lost_then_recovered(instance, sentinel, call, expected):
    """``call()`` returns a list of results: lost once, then ``expected``."""
    open(sentinel, "w").close()
    first = call_bounded(call)
    assert not os.path.exists(sentinel)  # the kill really fired
    assert isinstance(first.get("error"), WorkerLost), first
    second = call_bounded(call)
    assert "error" not in second, second
    assert len(second["value"]) == len(expected)
    for got, want in zip(second["value"], expected):
        assert_results_bitwise(got, want)
    assert instance.pool_starts == 2


# Engines are closed only after a passing test: a pool stuck on a lost task
# could block a graceful close, and garbage collection shuts it down anyway.


def test_mcpu_worker_death_raises_worker_lost_then_recovers(worker_killer):
    sentinel = worker_killer(multicore, "_worker_evaluate")
    entry = get_model("predator_prey_s")  # grid searches run on the pool
    inputs = entry.inputs()
    compiled = compile_composition(entry.build(), pipeline="default<O2>")
    expected = compiled.engine_instance("compiled").run(inputs, num_trials=1, seed=3)
    instance = compiled.engine_instance("mcpu")
    assert_lost_then_recovered(
        instance,
        sentinel,
        lambda: [instance.run(inputs, num_trials=1, seed=3, workers=2)],
        [expected],
    )
    compiled.close_engines()


def test_lane_worker_death_raises_worker_lost_then_recovers(worker_killer):
    sentinel = worker_killer(lane, "_lane_worker_run")
    compiled = compile_composition(build_deterministic_cascade(), pipeline="default<O2>")
    batch = [[[0.4, -0.7], [1.2, 0.3]], [[-0.2, 0.9], [0.5, 0.1]]]
    seeds = [0, 1]
    expected = compiled.engine_instance("compiled").run_batch(
        batch, num_trials=1, seed=seeds
    )
    instance = compiled.engine_instance("lane")
    assert_lost_then_recovered(
        instance,
        sentinel,
        lambda: instance.run_batch(batch, num_trials=1, seed=seeds, workers=2),
        expected,
    )
    compiled.close_engines()
