"""End-to-end tests of the Distill compiler: every engine must reproduce the
interpretive reference runner's results on every model, and the compiled
artefacts must expose the structures the analyses and backends rely on."""

import numpy as np
import pytest

from repro.cogframe import ReferenceRunner
from repro.core.distill import compile_composition
from repro.driver.engines import list_engines
from repro.errors import EngineError
from repro.models import multitasking, necker, predator_prey, stroop


def assert_results_match(reference, candidate, rtol=1e-9, atol=1e-12):
    assert len(reference.trials) == len(candidate.trials)
    for ref_trial, new_trial in zip(reference.trials, candidate.trials):
        assert ref_trial.passes == new_trial.passes
        assert set(ref_trial.outputs) == set(new_trial.outputs)
        for node, value in ref_trial.outputs.items():
            np.testing.assert_allclose(
                value, new_trial.outputs[node], rtol=rtol, atol=atol, err_msg=node
            )


MODEL_CASES = [
    pytest.param(
        lambda: stroop.build_botvinick_stroop(cycles=25),
        lambda: stroop.default_inputs("incongruent"),
        3,
        id="botvinick_stroop",
    ),
    pytest.param(
        lambda: stroop.build_extended_stroop("a", cycles=20),
        lambda: stroop.default_inputs("congruent"),
        2,
        id="extended_stroop_a",
    ),
    pytest.param(
        lambda: stroop.build_extended_stroop("b", cycles=20),
        lambda: stroop.default_inputs("congruent"),
        2,
        id="extended_stroop_b",
    ),
    pytest.param(
        lambda: necker.build_necker_cube_s(passes=15),
        lambda: necker.default_inputs(3),
        2,
        id="necker_s",
    ),
    pytest.param(
        lambda: necker.build_necker_cube_m(passes=10),
        lambda: necker.default_inputs(8),
        1,
        id="necker_m",
    ),
    pytest.param(
        lambda: necker.build_vectorized_necker_cube(passes=15),
        lambda: necker.default_inputs(8),
        2,
        id="necker_vectorized",
    ),
    pytest.param(
        lambda: predator_prey.build_predator_prey("s"),
        lambda: predator_prey.default_inputs(2),
        2,
        id="predator_prey_s",
    ),
    pytest.param(
        lambda: predator_prey.build_predator_prey("m"),
        lambda: predator_prey.default_inputs(1),
        1,
        id="predator_prey_m",
    ),
    pytest.param(
        lambda: multitasking.build_multitasking(max_cycles=60),
        lambda: multitasking.default_inputs(3),
        3,
        id="multitasking",
    ),
]


class TestCompiledMatchesReference:
    @pytest.mark.parametrize("build, make_inputs, trials", MODEL_CASES)
    def test_compiled_engine(self, build, make_inputs, trials):
        reference = ReferenceRunner(build(), seed=0).run(make_inputs(), num_trials=trials)
        compiled = compile_composition(build(), pipeline="default<O2>")
        result = compiled.run(make_inputs(), num_trials=trials, seed=0, engine="compiled")
        assert_results_match(reference, result)

    @pytest.mark.parametrize(
        "build, make_inputs, trials",
        [MODEL_CASES[0], MODEL_CASES[6], MODEL_CASES[8]],
    )
    def test_per_node_engine(self, build, make_inputs, trials):
        reference = ReferenceRunner(build(), seed=0).run(make_inputs(), num_trials=trials)
        compiled = compile_composition(build(), pipeline="default<O2>")
        result = compiled.run(make_inputs(), num_trials=trials, seed=0, engine="per-node")
        assert_results_match(reference, result)

    @pytest.mark.parametrize(
        "build, make_inputs, trials", [MODEL_CASES[3], MODEL_CASES[6]]
    )
    def test_ir_interpreter_engine(self, build, make_inputs, trials):
        reference = ReferenceRunner(build(), seed=0).run(make_inputs(), num_trials=trials)
        compiled = compile_composition(build(), pipeline="default<O2>")
        result = compiled.run(make_inputs(), num_trials=trials, seed=0, engine="ir-interp")
        assert_results_match(reference, result)

    @pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
    def test_all_opt_levels_agree(self, opt_level):
        build = lambda: stroop.build_botvinick_stroop(cycles=15)  # noqa: E731
        inputs = stroop.default_inputs("incongruent")
        reference = ReferenceRunner(build(), seed=0).run(inputs, num_trials=2)
        compiled = compile_composition(build(), pipeline=f"default<O{opt_level}>")
        result = compiled.run(inputs, num_trials=2, seed=0)
        assert_results_match(reference, result)

    def test_monitored_series_match(self):
        build = lambda: stroop.build_botvinick_stroop(cycles=20)  # noqa: E731
        inputs = stroop.default_inputs("incongruent")
        reference = ReferenceRunner(build(), seed=0).run(inputs, num_trials=1)
        compiled = compile_composition(build(), pipeline="default<O2>")
        result = compiled.run(inputs, num_trials=1, seed=0)
        np.testing.assert_allclose(
            reference.monitored_series("energy"),
            result.monitored_series("energy"),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_seed_changes_stochastic_results(self):
        build = lambda: predator_prey.build_predator_prey("s")  # noqa: E731
        inputs = predator_prey.default_inputs(1)
        compiled = compile_composition(build(), pipeline="default<O2>")
        a = compiled.run(inputs, num_trials=1, seed=0)
        b = compiled.run(inputs, num_trials=1, seed=1)
        assert not np.allclose(a.trials[0].outputs["action"], b.trials[0].outputs["action"])

    def test_unknown_engine_rejected(self):
        assert "cuda" not in list_engines()
        compiled = compile_composition(stroop.build_botvinick_stroop(cycles=5))
        with pytest.raises(EngineError):
            compiled.run(stroop.default_inputs(), num_trials=1, engine="cuda")


class TestParallelEngines:
    def test_gpu_sim_matches_serial(self):
        build = lambda: predator_prey.build_predator_prey("m")  # noqa: E731
        inputs = predator_prey.default_inputs(1)
        compiled = compile_composition(build(), pipeline="default<O2>")
        serial = compiled.run(inputs, num_trials=1, seed=0, engine="compiled")
        gpu = compiled.run(inputs, num_trials=1, seed=0, engine="gpu-sim")
        assert_results_match(serial, gpu)

    def test_gpu_sim_on_model_without_grid_falls_back(self):
        compiled = compile_composition(stroop.build_botvinick_stroop(cycles=10))
        inputs = stroop.default_inputs("incongruent")
        serial = compiled.run(inputs, num_trials=1, seed=0, engine="compiled")
        gpu = compiled.run(inputs, num_trials=1, seed=0, engine="gpu-sim")
        assert_results_match(serial, gpu)

    @pytest.mark.slow
    def test_multicore_matches_serial(self):
        build = lambda: predator_prey.build_predator_prey("s")  # noqa: E731
        inputs = predator_prey.default_inputs(1)
        compiled = compile_composition(build(), pipeline="default<O2>")
        serial = compiled.run(inputs, num_trials=1, seed=0, engine="compiled")
        mcpu = compiled.run(inputs, num_trials=1, seed=0, engine="mcpu", workers=2)
        assert_results_match(serial, mcpu)


class TestCompiledArtifacts:
    def test_grid_search_metadata(self):
        compiled = compile_composition(predator_prey.build_predator_prey("m"))
        assert len(compiled.grid_searches) == 1
        info = compiled.grid_searches[0]
        assert info.grid_size == 64
        assert info.control_name == "control"
        assert info.kernel_name == "eval_control"
        assert info.counter_stride >= 2 * 6
        assert info.input_size == 6

    def test_compile_stats_populated(self):
        compiled = compile_composition(stroop.build_botvinick_stroop(cycles=10), pipeline="default<O2>")
        stats = compiled.stats
        assert stats.total_seconds > 0
        assert stats.instructions_before > 0
        assert stats.instructions_after > 0

    def test_ir_dump_mentions_model_structures(self):
        compiled = compile_composition(stroop.build_botvinick_stroop(cycles=10))
        text = compiled.print_ir()
        assert "define void @run_model" in text
        assert "botvinick_stroop_params" in text
        assert "node_response" in text

    def test_node_functions_tagged_with_source_nodes(self):
        from repro.analysis import model_flow_graph

        compiled = compile_composition(stroop.build_botvinick_stroop(cycles=10), pipeline="default<O0>")
        flow = model_flow_graph(compiled.module.get_function("node_energy"))
        assert "energy" in flow.nodes

    def test_cdfg_matches_model_structure(self):
        """The paper's key observation: the IR's data flow mirrors the model graph."""
        from repro.analysis import matches_model_structure, model_flow_graph

        composition = stroop.build_botvinick_stroop(cycles=10)
        compiled = compile_composition(composition, pipeline="default<O0>")
        run_pass = compiled.module.get_function("run_pass")
        from repro.passes import Inliner

        Inliner(aggressive=True).run(compiled.module)
        flow = model_flow_graph(run_pass)
        ok, missing = matches_model_structure(
            flow,
            expected_edges=composition.projection_edges(),
            expected_nodes=list(composition.mechanisms),
        )
        assert ok, f"missing model edges in the IR flow graph: {missing}"

    def test_breakdown_reported(self):
        """Compile cost is on ``CompileStats`` (per phase and per pass), run
        cost on ``RunResults.wall_seconds``."""
        compiled = compile_composition(
            stroop.build_botvinick_stroop(cycles=10), store=False
        )
        result = compiled.run(stroop.default_inputs(), num_trials=1)
        assert result.wall_seconds > 0.0
        assert not hasattr(result, "breakdown")
        assert compiled.stats.total_seconds > 0.0
        assert set(compiled.stats.passes) >= {"mem2reg", "dce", "simplifycfg"}


class TestPerformanceOrdering:
    def test_compiled_faster_than_reference_and_interpreter(self):
        """The qualitative Figure 4 ordering on one model: Distill-compiled is
        faster than the interpretive baseline, which is faster than the IR
        interpreter (the generic-JIT stand-in)."""
        import time

        build = lambda: stroop.build_botvinick_stroop(cycles=100)  # noqa: E731
        inputs = stroop.default_inputs("incongruent")
        trials = 10

        start = time.perf_counter()
        ReferenceRunner(build(), seed=0).run(inputs, num_trials=trials)
        reference_time = time.perf_counter() - start

        compiled = compile_composition(build(), pipeline="default<O2>")
        start = time.perf_counter()
        compiled.run(inputs, num_trials=trials, seed=0, engine="compiled")
        compiled_time = time.perf_counter() - start

        assert compiled_time < reference_time, (
            f"whole-model compilation should beat the interpretive runner "
            f"({compiled_time:.3f}s vs {reference_time:.3f}s)"
        )

    def test_whole_model_faster_than_per_node(self):
        """Figure 5b: whole-model compilation beats per-node compilation."""
        import time

        build = lambda: stroop.build_botvinick_stroop(cycles=100)  # noqa: E731
        inputs = stroop.default_inputs("incongruent")
        trials = 10
        compiled = compile_composition(build(), pipeline="default<O2>")

        def best_of_5(engine):
            # One untimed run binds the engine (per-node's first run also
            # lowers the functions outside the entry set).
            compiled.run(inputs, num_trials=trials, seed=0, engine=engine)
            times = []
            for _ in range(5):
                start = time.perf_counter()
                compiled.run(inputs, num_trials=trials, seed=0, engine=engine)
                times.append(time.perf_counter() - start)
            return min(times)

        whole = best_of_5("compiled")
        per_node = best_of_5("per-node")
        assert whole < per_node
