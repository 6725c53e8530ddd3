"""Grid-search models on the shared SIMT grid kernel: ``lane``, ``gpu-sim``
and ``mcpu``.

The engines run a model with a grid-search controller through the shared
scheduler (``backends/grid_driver.drive_elements``) and put every grid
evaluation of a scheduler step on the lane axis of one kernel launch, one
lane per (element, grid point), at most ``lane.MAX_LAUNCH_LANES`` lanes
per launch (``mcpu`` splits each launch's lanes over two pool workers).
The claim under test is bitwise agreement with the scalar
``compiled`` engine (``rtol`` 0): results, monitor and state buffers,
final PRNG counters included, while elements with different inputs and
different ``num_trials`` leave the lockstep at different steps.
"""

import numpy as np
import pytest

from repro.backends import lane
from repro.core.distill import compile_composition
from repro.fuzz import generate_model_spec
from repro.fuzz.compare import buffers_equal, final_rng_counters
from repro.models import predator_prey as pp

ENGINES = ("lane", "gpu-sim", "mcpu")
OPTIONS = {"mcpu": {"workers": 2}}


def batch_buffers(compiled, engine, batch):
    """Execute ``(inputs, num_trials, seed)`` elements as one batch."""
    elements = [
        (compiled.allocate_buffers(inputs, trials, seed), trials)
        for inputs, trials, seed in batch
    ]
    compiled.engine_instance(engine).execute_batch(elements, **OPTIONS.get(engine, {}))
    return [
        tuple(list(buffers[name]) for name in ("results", "monitor", "state"))
        for buffers, _ in elements
    ]


def assert_engines_bitwise(compiled, batch):
    baseline = batch_buffers(compiled, "compiled", batch)
    for engine in ENGINES:
        got = batch_buffers(compiled, engine, batch)
        for index, (base, cand) in enumerate(zip(baseline, got)):
            assert buffers_equal(base, cand) is None, (
                f"{engine} element {index}: {buffers_equal(base, cand)}"
            )
            assert final_rng_counters(compiled, base[2]) == final_rng_counters(
                compiled, cand[2]
            )


def pp_batch(n):
    """Distinct inputs per element (1 or 2 rows) and mixed ``num_trials``."""
    return [
        (pp.default_inputs(1 + index % 2, seed=index), 1 + index % 3, 100 + index)
        for index in range(n)
    ]


@pytest.mark.parametrize("size, n", [("s", 6), ("m", 6), ("l", 4)])
def test_predator_prey_bitwise(size, n):
    compiled = compile_composition(pp.build_predator_prey(size), pipeline="default<O2>")
    try:
        assert_engines_bitwise(compiled, pp_batch(n))
    finally:
        compiled.close_engines()


def test_wide_batch_spans_several_launches(monkeypatch):
    """A predator_prey_m step of 40 elements x 64 grid points exceeds one
    launch's lane bound: it splits into bounded launches, still bitwise."""
    launches = []
    launch = lane.launch_grid_kernel

    def counting(kernel, args, lanes):
        launches.append(lanes)
        return launch(kernel, args, lanes)

    monkeypatch.setattr(lane, "launch_grid_kernel", counting)
    compiled = compile_composition(pp.build_predator_prey("m"), pipeline="default<O2>")
    try:
        grid_size = compiled.grid_searches[0].grid_size
        n = 40
        assert n * grid_size > lane.MAX_LAUNCH_LANES
        assert_engines_bitwise(compiled, pp_batch(n))
        assert max(launches) == lane.MAX_LAUNCH_LANES
    finally:
        compiled.close_engines()


def _control_seeds(count):
    seeds = []
    seed = 0
    while len(seeds) < count:
        if generate_model_spec(seed).control is not None:
            seeds.append(seed)
        seed += 1
    return seeds


@pytest.mark.parametrize("seed", _control_seeds(10))
def test_fuzz_models_with_a_control_bitwise(seed):
    """Four elements with distinct inputs on each of the first generated
    models that have a grid-search controller."""
    spec = generate_model_spec(seed)
    compiled = compile_composition(spec.build(), pipeline="default<O2>")
    try:
        batch = [
            (
                [list(np.asarray(row, dtype=float) * (1.0 + 0.25 * index)) for row in spec.inputs],
                spec.num_trials,
                spec.run_seed + index,
            )
            for index in range(4)
        ]
        assert_engines_bitwise(compiled, batch)
    finally:
        compiled.close_engines()
