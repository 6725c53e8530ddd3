"""Lane backend: run a large batched parameter sweep as one vectorised
array program.

A common workflow is evaluating one compiled model across many independent
conditions — different random seeds, different stimuli — which is exactly
``run_batch``.  The ``lane`` engine runs numpy array programs over SIMT
lanes (the paper's GPU execution model, on CPU): every IR value becomes an
``(n_lanes,)`` array and divergent control flow runs under boolean masks.
On a model with a grid-search controller, such as predator-prey, every
(element, grid point) pair is one lane, and all grid evaluations of a
scheduler step run as one kernel launch instead of a Python loop per
element and grid point.

The script runs a 256-seed sweep of the predator-prey grid-search model on
the scalar compiled engine and on the lane engine, checks the results
agree bitwise, and prints the speedup.  (On controller-free models the
lane engine may differ in the final ulp of numpy's transcendental kernels;
see DESIGN.md, "Lane backend: tolerance policy".)

Run with:  python examples/lane_batch_sweep.py
"""

import time

import numpy as np

import repro
from repro.models import predator_prey as pp

LANES = 256  # batch elements; the speedup grows with this number


def main() -> None:
    model = pp.build_predator_prey("m")
    inputs = pp.default_inputs(1)
    batch = [inputs] * LANES
    seeds = list(range(LANES))  # one PRNG stream per element

    scalar = repro.compile(pp.build_predator_prey("m"), target="compiled")
    lane = repro.compile(model, target="lane")

    # Warm both (compilation and lane codegen are one-time costs).
    scalar.run_batch(batch[:2], num_trials=1, seed=seeds[:2])
    lane.run_batch(batch[:2], num_trials=1, seed=seeds[:2])

    start = time.perf_counter()
    scalar_results = scalar.run_batch(batch, num_trials=2, seed=seeds)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    lane_results = lane.run_batch(batch, num_trials=2, seed=seeds)
    lane_seconds = time.perf_counter() - start

    # Lane execution reproduces the scalar engine bitwise.
    for scalar_result, lane_result in zip(scalar_results, lane_results):
        for scalar_trial, lane_trial in zip(scalar_result.trials, lane_result.trials):
            assert scalar_trial.passes == lane_trial.passes
            for node, value in scalar_trial.outputs.items():
                np.testing.assert_array_equal(lane_trial.outputs[node], value)

    print(f"batch elements:            {LANES}")
    print(f"scalar compiled run_batch: {scalar_seconds:.2f}s")
    print(f"lane engine run_batch:     {lane_seconds:.2f}s")
    print(f"speedup:                   {scalar_seconds / lane_seconds:.1f}x")
    print(f"lane fallbacks:            {len(lane.lane_fallbacks)}")


if __name__ == "__main__":
    main()
