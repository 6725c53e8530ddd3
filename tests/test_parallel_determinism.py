"""Determinism suite for the parallel engines (paper §3.6).

The serial compiled engine breaks grid-cost ties with reservoir sampling:
one uniform draw from the controller's PRNG stream per tie encountered
during the scan — including ties with intermediate minima that a later,
lower cost displaces.  The parallel engines claim *bit-identical* results,
which therefore covers three things at once:

* the selected allocation (outputs and monitor buffers),
* the number of tie-break uniforms drawn, and
* the final PRNG counters left in the state buffer.

These tests drive models engineered to produce grid-cost ties through every
engine and compare the raw result/monitor/state buffers bit for bit.  They
also pin the persistent-pool and run_batch behaviour the batched execution
layer introduces.
"""

import numpy as np
import pytest

from repro.backends.grid_driver import (
    CandidateEvents,
    candidate_events_from_costs,
    grid_strides,
    replay_selection,
)
from repro.backends.workerpool import WorkerPool
from repro.cogframe import (
    AfterNPasses,
    Composition,
    GridSearchControlMechanism,
    InputPort,
    ObjectiveMechanism,
    ProcessingMechanism,
    SimulationStep,
)
from repro.cogframe.functions import Linear, LinearCombination
from repro.core import distill
from repro.core.distill import compile_composition
from repro.driver.session import Session
from repro.errors import EngineError
from repro.models import MODEL_REGISTRY, predator_prey


def build_tie_grid_model(levels, weights=None, scale=1.0, offset=0.0, passes=2):
    """A minimal grid-search model with a deterministic objective.

    ``cost = scale * sum_i weights[i] * alloc_i + offset`` — choosing the
    weights/levels shapes the cost landscape (constant => every grid point
    ties; a plateau => ties with intermediate minima).
    """
    comp = Composition("tie_grid")
    stim = ProcessingMechanism("stim", Linear(), size=1)
    comp.add_node(stim, is_input=True)
    score = ObjectiveMechanism(
        "score",
        LinearCombination(weights=weights, scale=scale, offset=offset),
        input_ports=[InputPort("allocation", len(levels))],
    )
    control = GridSearchControlMechanism(
        "control",
        input_size=1,
        levels=levels,
        steps=[SimulationStep(score, [("allocation", -1)])],
        objective_step="score",
    )
    comp.add_node(control, is_output=True, monitor=True)
    comp.add_node(score, is_output=True)
    comp.add_projection(stim, control)
    comp.add_projection(control, score, port="allocation")
    comp.set_termination(AfterNPasses(passes), max_passes=passes)
    return comp


def all_tie_model():
    """Every one of the 8 grid points costs exactly 1.0 (7 draws per scan)."""
    return build_tie_grid_model(
        [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]], scale=0.0, offset=1.0
    )


def plateau_model():
    """Costs [0, 0, -1, -1]: a tie with an *intermediate* minimum (the first
    plateau) followed by a lower plateau — the case a sparse best-only merge
    cannot replay."""
    return build_tie_grid_model([[0.0, 1.0], [0.0, 1.0]], weights=[-1.0, 0.0])


INPUTS = [{"stim": [0.5]}]


def execute_raw(compiled, engine, inputs, num_trials, seed=0, **options):
    """Run an engine and return the raw (results, monitor, state) buffers."""
    buffers = compiled.allocate_buffers(inputs, num_trials, seed)
    compiled.engine_instance(engine).execute(buffers, num_trials, **options)
    return (
        list(buffers["results"]),
        list(buffers["monitor"]),
        list(buffers["state"]),
    )


class TestTieDeterminism:
    @pytest.mark.parametrize("build", [all_tie_model, plateau_model])
    def test_engines_bitwise_identical_on_ties(self, build):
        compiled = compile_composition(build(), pipeline="default<O2>")
        try:
            reference = execute_raw(compiled, "compiled", INPUTS, 3)
            for engine, options in (
                ("ir-interp", {}),
                ("gpu-sim", {}),
                ("mcpu", {"workers": 2}),
            ):
                candidate = execute_raw(compiled, engine, INPUTS, 3, **options)
                assert candidate[0] == reference[0], f"{engine}: results differ"
                assert candidate[1] == reference[1], f"{engine}: monitor differs"
                assert candidate[2] == reference[2], f"{engine}: state/RNG differs"
        finally:
            compiled.close_engines()

    def test_tie_draws_advance_the_counter(self):
        """The all-tie model must consume grid_size - 1 uniforms per scan."""
        compiled = compile_composition(all_tie_model(), pipeline="default<O2>")
        _, _, state = execute_raw(compiled, "compiled", INPUTS, 3)
        offset = compiled.layout.rng_offsets["control"]
        # 3 trials x 2 passes x (8 grid points - 1) ties.
        assert state[offset + 1] == 3 * 2 * 7

    def test_mcpu_chunks_smaller_than_ties(self, monkeypatch):
        """Two workers split each 8-lane launch into two 4-lane slices, so
        the all-tie run crosses a worker-slice edge on every scan."""
        maps = []
        pool_map = WorkerPool.map

        def recording(pool, fn, tasks):
            maps.append([lanes for _, _, lanes in tasks])
            return pool_map(pool, fn, tasks)

        monkeypatch.setattr(WorkerPool, "map", recording)
        compiled = compile_composition(all_tie_model(), pipeline="default<O2>")
        try:
            reference = execute_raw(compiled, "compiled", INPUTS, 2)
            candidate = execute_raw(compiled, "mcpu", INPUTS, 2, workers=2)
            # One map per scheduler step (2 trials x 2 passes), one launch
            # of the 8 grid points each, sharded in two.
            assert maps == [[4, 4]] * 4
            assert candidate[0] == reference[0]
            assert candidate[2] == reference[2]
        finally:
            compiled.close_engines()

    @pytest.mark.slow
    def test_spawn_pool_matches_serial(self):
        """The spawn start method (the Windows path) is equally bit-exact."""
        compiled = compile_composition(plateau_model(), pipeline="default<O2>")
        try:
            reference = execute_raw(compiled, "compiled", INPUTS, 2)
            candidate = execute_raw(
                compiled, "mcpu", INPUTS, 2, workers=2, start_method="spawn"
            )
            assert candidate == reference
        finally:
            compiled.close_engines()


class TestNaNHardening:
    def test_parallel_engines_reject_all_nan_costs(self):
        compiled = compile_composition(
            build_tie_grid_model([[0.0, 1.0]], offset=float("nan")),
            pipeline="default<O2>",
        )
        try:
            for engine, options in (("gpu-sim", {}), ("mcpu", {"workers": 2})):
                buffers = compiled.allocate_buffers(INPUTS, 1, 0)
                with pytest.raises(EngineError, match="NaN"):
                    compiled.engine_instance(engine).execute(buffers, 1, **options)
        finally:
            compiled.close_engines()

    def test_candidate_events_skip_nan(self):
        events = candidate_events_from_costs(
            np.array([np.nan, 2.0, np.nan, 2.0, 1.0])
        )
        assert events.nan_count == 2
        assert events.events == [(1, 2.0), (3, 2.0), (4, 1.0)]

    def test_replay_matches_reservoir_semantics(self):
        # costs [5, 5, 3, 3]: one draw at the intermediate tie, one at the
        # final tie — exactly two uniforms.
        draws = []

        def uniform():
            draws.append(1)
            return 0.9  # never steal the slot

        events = candidate_events_from_costs(np.array([5.0, 5.0, 3.0, 3.0]))
        index, cost = replay_selection(events.events, uniform)
        assert (index, cost) == (2, 3.0)
        assert len(draws) == 2


class TestRunBatch:
    @pytest.mark.parametrize(
        "engine", ["compiled", "ir-interp", "per-node", "gpu-sim", "mcpu", "lane"]
    )
    def test_run_batch_equals_looped_run(self, engine):
        compiled = compile_composition(
            predator_prey.build_predator_prey("s"), pipeline="default<O2>"
        )
        try:
            instance = compiled.engine_instance(engine)
            options = {"workers": 2} if engine == "mcpu" else {}
            batch = [predator_prey.default_inputs(1, seed=7), predator_prey.default_inputs(1, seed=11)]
            looped = [
                instance.run(inputs, num_trials=2, seed=0, **options) for inputs in batch
            ]
            batched = instance.run_batch(batch, num_trials=2, seed=0, **options)
            assert len(batched) == len(looped)
            for single, element in zip(looped, batched):
                assert len(single.trials) == len(element.trials)
                for st, et in zip(single.trials, element.trials):
                    assert st.passes == et.passes
                    for node in st.outputs:
                        np.testing.assert_array_equal(st.outputs[node], et.outputs[node])
        finally:
            compiled.close_engines()

    def test_per_node_run_batch_with_threshold_termination(self):
        """multitasking ends a trial when ``ThresholdCrossed`` holds, so the
        elements of one batch leave the lockstep at different passes; each
        stays bitwise equal to a looped ``compiled`` run."""
        entry = MODEL_REGISTRY["multitasking"]
        compiled = compile_composition(entry.build(), pipeline="default<O2>")
        inputs, trials, seeds = entry.inputs(), [1, 3, 2, 5], [0, 1, 2, 3]
        try:
            batched = compiled.engine_instance("per-node").run_batch(
                [inputs] * len(trials), num_trials=trials, seed=seeds
            )
            passes = set()
            for element, num_trials, seed in zip(batched, trials, seeds):
                looped = compiled.run(inputs, num_trials=num_trials, seed=seed)
                assert len(element.trials) == num_trials
                for single, batch_trial in zip(looped.trials, element.trials):
                    assert single.passes == batch_trial.passes
                    passes.add(single.passes)
                    for node in single.outputs:
                        np.testing.assert_array_equal(
                            single.outputs[node], batch_trial.outputs[node]
                        )
                    for node, steps in single.monitored.items():
                        np.testing.assert_array_equal(steps, batch_trial.monitored[node])
            assert len(passes) > 1
        finally:
            compiled.close_engines()

    def test_run_batch_normalizes_each_inputs_object_once(self, monkeypatch):
        """``[inputs] * n`` is normalised and flattened once, also for
        ``num_trials=None``; each element still gets its own inputs list
        and the same buffers a lone allocation would."""
        compiled = compile_composition(plateau_model(), pipeline="default<O2>")
        calls = []
        normalize = distill.normalize_inputs
        monkeypatch.setattr(
            distill,
            "normalize_inputs",
            lambda composition, inputs: calls.append(1) or normalize(composition, inputs),
        )
        results = compiled.engine_instance("compiled").run_batch([INPUTS] * 3, seed=[0, 1, 2])
        assert len(calls) == 1 and [len(r.trials) for r in results] == [1, 1, 1]
        flattened = {}
        shared = [compiled.allocate_buffers(INPUTS, None, seed, flattened) for seed in (0, 1)]
        assert shared[0]["inputs"] is not shared[1]["inputs"]
        for seed, buffers in zip((0, 1), shared):
            assert buffers == compiled.allocate_buffers(INPUTS, 1, seed)

    def test_run_batch_per_element_trials_and_seeds(self):
        compiled = compile_composition(plateau_model(), pipeline="default<O2>")
        try:
            instance = compiled.engine_instance("gpu-sim")
            batch = [INPUTS, INPUTS]
            results = instance.run_batch(batch, num_trials=[1, 3], seed=[0, 5])
            assert [len(r.trials) for r in results] == [1, 3]
            alone = instance.run(INPUTS, num_trials=3, seed=5)
            for t_batch, t_alone in zip(results[1].trials, alone.trials):
                for node in t_alone.outputs:
                    np.testing.assert_array_equal(
                        t_batch.outputs[node], t_alone.outputs[node]
                    )
        finally:
            compiled.close_engines()

    def test_session_run_batch_and_close(self):
        with Session() as session:
            results = session.run_batch(
                plateau_model(), [INPUTS, INPUTS], target="mcpu",
                num_trials=2, seed=0, workers=2,
            )
            assert len(results) == 2
            assert results[0].engine == "mcpu"
            info = session.cache_info()
            assert info["models"] == 1 and info["instances"] == 1

    def test_model_run_batch_facade(self):
        compiled = compile_composition(plateau_model(), pipeline="default<O2>")
        try:
            results = compiled.run_batch([INPUTS], num_trials=1, engine="gpu-sim")
            assert len(results) == 1
        finally:
            compiled.close_engines()


class TestPersistentPool:
    def test_pool_reused_across_run_and_run_batch(self):
        compiled = compile_composition(plateau_model(), pipeline="default<O2>")
        try:
            instance = compiled.engine_instance("mcpu")
            instance.run(INPUTS, num_trials=1, seed=0, workers=2)
            instance.run(INPUTS, num_trials=2, seed=1, workers=2)
            instance.run_batch([INPUTS, INPUTS], num_trials=1, seed=0, workers=2)
            assert instance.pool_starts == 1
            # Closing releases the pool; the next run transparently restarts it.
            instance.close()
            instance.run(INPUTS, num_trials=1, seed=0, workers=2)
            assert instance.pool_starts == 1  # close() dropped the evaluator
        finally:
            compiled.close_engines()

    def test_engine_instance_is_cached_per_model(self):
        compiled = compile_composition(plateau_model(), pipeline="default<O2>")
        try:
            assert compiled.engine_instance("mcpu") is compiled.engine_instance("mcpu")
            assert compiled.engine_instance("gpu-sim") is not compiled.engine_instance("mcpu")
        finally:
            compiled.close_engines()

    def test_evaluator_restarts_pool_when_workers_change(self):
        compiled = compile_composition(plateau_model(), pipeline="default<O2>")
        try:
            instance = compiled.engine_instance("mcpu")
            instance.run(INPUTS, num_trials=1, seed=0, workers=1)
            instance.run(INPUTS, num_trials=1, seed=0, workers=2)
            assert instance.pool_starts == 1  # new evaluator, fresh counter
            instance.run(INPUTS, num_trials=1, seed=0, workers=2)
            assert instance.pool_starts == 1
        finally:
            compiled.close_engines()


class TestGridGeometry:
    def test_grid_strides_row_major(self):
        assert grid_strides([[0, 1], [0, 1, 2], [0, 1]]) == (6, 2, 1)
        assert grid_strides([[0]]) == (1,)

    def test_candidate_events_compress_monotone_costs(self):
        # Strictly decreasing costs: every point is a candidate (new minimum).
        events = candidate_events_from_costs(np.array([3.0, 2.0, 1.0]))
        assert events.events == [(0, 3.0), (1, 2.0), (2, 1.0)]
        # Strictly increasing: only the first survives.
        events = candidate_events_from_costs(np.array([1.0, 2.0, 3.0]))
        assert events.events == [(0, 1.0)]

    def test_empty_events_raise_clear_error(self):
        from repro.backends.grid_driver import select_from_events

        state = [0.0, 0.0]
        with pytest.raises(EngineError, match="no comparable evaluation cost"):
            select_from_events(
                CandidateEvents(events=[], grid_size=4, nan_count=4), state, 0, "ctl"
            )
