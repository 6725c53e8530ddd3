"""Tests for the model builders, the minitorch stand-in, the compiled-Python
backend, code specialisation utilities and the reservoir-sampling replay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.backends.gpu_sim import GpuOccupancyModel
from repro.backends.grid_driver import candidate_events_from_costs, replay_selection
from repro.backends.interp import Interpreter
from repro.backends.lane import LANE_INTRINSICS, compile_lane_program, launch_grid_kernel
from repro.backends.pycodegen import PythonCodeGenerator, compile_module_to_python
from repro.cogframe import CounterRNG, ReferenceRunner, sanitize
from repro.core.distill import compile_composition
from repro.fuzz.compare import buffers_equal, raw_buffers
from repro.core.specialize import emit_library_function, specialize_on_buffer
from repro.cogframe.functions import DriftDiffusionIntegrator, Logistic
from repro.ir import F64, FunctionType, IRBuilder, Module, pointer, verify_module
from repro.models import FIGURE4_MODELS, MODEL_REGISTRY, get_model, predator_prey_variant
from repro.models import multitasking, necker, predator_prey, stroop
from repro import minitorch

from helpers import build_branchy_function, build_loop_sum_function
from strategies import coordinate_floats


class TestModelBuilders:
    @pytest.mark.parametrize("name", FIGURE4_MODELS)
    def test_registry_models_sanitize(self, name):
        entry = get_model(name)
        composition = entry.build()
        info = sanitize(composition)
        assert info.input_size > 0
        assert info.output_size > 0
        assert set(info.execution_order) == set(composition.mechanisms)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            get_model("does_not_exist")

    def test_predator_prey_variant_sizes(self):
        assert predator_prey.build_predator_prey("s").node("control").grid_size == 8
        assert predator_prey.build_predator_prey("m").node("control").grid_size == 64
        assert predator_prey.build_predator_prey("l").node("control").grid_size == 216
        entry = predator_prey_variant("xl")
        assert "1000000" in entry.description

    def test_necker_variants_structure(self):
        small = necker.build_necker_cube_s()
        assert len([n for n in small.mechanisms if n.startswith("vertex")]) == 3
        vectorized = necker.build_vectorized_necker_cube()
        assert vectorized.node("vertices").output_size == 8

    def test_necker_vectorized_equivalent_to_per_vertex(self):
        """The paper's §4.4 claim, checked behaviourally: the hand-vectorised
        model computes the same dynamics as the per-vertex model."""
        passes = 12
        per_vertex = necker.build_necker_cube_m(passes=passes)
        vectorized = necker.build_vectorized_necker_cube(passes=passes, noise=0.0)
        # disable noise in the per-vertex variant as well
        per_vertex_nonoise = necker.build_necker_cube(num_vertices=8, passes=passes, noise=0.0)
        inputs = necker.default_inputs(8)
        ref_a = ReferenceRunner(per_vertex_nonoise, seed=0).run(inputs, num_trials=1)
        ref_b = ReferenceRunner(vectorized, seed=0).run(inputs, num_trials=1)
        stacked = np.concatenate(
            [ref_a.trials[0].outputs[f"vertex_{i}"] for i in range(8)]
        )
        np.testing.assert_allclose(stacked, ref_b.trials[0].outputs["vertices"], rtol=1e-9)

    def test_stroop_conditions_distinct(self):
        compiled = compile_composition(stroop.build_botvinick_stroop(cycles=40), pipeline="default<O2>")
        peaks = {}
        for condition in ("congruent", "incongruent"):
            result = compiled.run(stroop.default_inputs(condition), num_trials=1, seed=0)
            peaks[condition] = float(np.max(np.abs(result.monitored_series("energy"))))
        assert peaks["incongruent"] > peaks["congruent"]

    def test_multitasking_summary(self):
        model = multitasking.build_multitasking(max_cycles=80)
        inputs = multitasking.default_inputs(4)
        results = ReferenceRunner(model, seed=1).run(inputs, num_trials=8)
        summary = multitasking.summarize_decisions(results, inputs)
        assert summary["correct"] + summary["incorrect"] == 8
        assert 0.0 <= summary["accuracy"] <= 1.0
        assert summary["mean_rt"] > 0


class TestMinitorch:
    def test_linear_forward(self):
        layer = minitorch.nn.Linear(3, 2, seed=0)
        layer.set_weights(np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]]), np.array([0.0, 1.0]))
        out = layer(minitorch.Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.numpy(), [-2.0, 4.0])

    def test_autograd_gradient_descent_reduces_loss(self):
        network = minitorch.nn.Sequential(
            minitorch.nn.Linear(2, 4, seed=1), minitorch.nn.ReLU(), minitorch.nn.Linear(4, 1, seed=2)
        )
        loss_fn = minitorch.nn.MSELoss()
        optimizer = minitorch.optim.SGD(network.parameters(), lr=0.05)
        x = minitorch.Tensor([0.5, -1.0])
        target = [0.75]
        first_loss = None
        for _ in range(60):
            optimizer.zero_grad()
            loss = loss_fn(network(x), target)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first_loss

    def test_bridge_matches_network(self):
        network = multitasking.build_pretrained_network()
        fn = minitorch.NeuralNetworkFunction(network)
        stimulus = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        expected = network(minitorch.Tensor(stimulus)).numpy()
        np.testing.assert_allclose(
            fn.compute(stimulus, fn.params, {}, None), expected, rtol=1e-12
        )

    def test_bridge_rejects_unsupported_layers(self):
        class Strange(minitorch.nn.Module):
            def forward(self, x):
                return x

        with pytest.raises(TypeError):
            minitorch.NeuralNetworkFunction(minitorch.nn.Sequential(Strange()))


class TestPythonBackend:
    def test_generated_code_matches_interpreter(self):
        module = Module("pyc")
        build_loop_sum_function(module)
        build_branchy_function(module)
        verify_module(module)
        compiled = compile_module_to_python(module)
        interp = Interpreter(module)
        for args in ([2.0, 3.0], [-1.0, 4.0], [0.0, 0.0]):
            assert compiled["loop_sum"](*args) == pytest.approx(interp.call("loop_sum", args))
            assert compiled["branchy"](*args) == pytest.approx(interp.call("branchy", args))

    def test_generated_source_is_flat_python(self):
        module = Module("pyc")
        build_loop_sum_function(module)
        source = PythonCodeGenerator(module).generate_source()
        assert "def ir_loop_sum" in source
        assert "while True:" in source  # the reconstructed natural loop
        assert "_block" not in source  # no dispatch ladder for reducible CFGs
        assert "dict(" not in source  # no dynamic structures in the hot path

    @given(coordinate_floats, coordinate_floats)
    @settings(max_examples=50, deadline=None)
    def test_property_codegen_equals_interpreter(self, x, y):
        module = Module("pyc_prop")
        build_branchy_function(module)
        compiled = compile_module_to_python(module)
        interp = Interpreter(module)
        assert compiled["branchy"](x, y) == pytest.approx(interp.call("branchy", [x, y]))


class TestSpecialization:
    def test_emit_library_function_matches_reference(self):
        fn_obj = Logistic(gain=2.0, bias=0.5)
        module = Module("spec")
        fn = emit_library_function(fn_obj, input_size=1, module=module, name="logistic1")
        verify_module(module)
        interp = Interpreter(module)
        for x in (-2.0, 0.0, 1.5):
            expected = fn_obj.compute(np.array([x]), fn_obj.params, {}, None)[0]
            assert interp.call("logistic1", [x]) == pytest.approx(expected)

    def test_emit_with_param_args_and_state(self):
        fn_obj = DriftDiffusionIntegrator(noise=0.0, time_step=0.1)
        module = Module("spec")
        fn = emit_library_function(
            fn_obj, input_size=1, module=module, name="ddm", param_args=("rate",)
        )
        interp = Interpreter(module)
        # args: in0, previous_value, rate, rng pointer (noise=0 -> unused draws)
        from repro.backends import runtime

        rng = runtime.allocate_buffer(2)
        value = interp.call("ddm", [2.0, 0.5, 3.0, (rng, 0)])
        assert value == pytest.approx(0.5 + 3.0 * 2.0 * 0.1)

    def test_specialize_on_buffer_folds_loads(self):
        compiled = compile_composition(predator_prey.build_predator_prey("s"), pipeline="default<O2>")
        info = compiled.grid_searches[0]
        kernel = compiled.module.get_function(info.kernel_name)
        specialised = specialize_on_buffer(kernel, 0, compiled.layout.param_values)
        assert specialised.attributes["specialised_loads"] > 0
        from repro.ir.instructions import Load

        remaining_param_loads = [
            i
            for i in specialised.instructions()
            if isinstance(i, Load)
        ]
        assert len(remaining_param_loads) == 0


class TestReservoirSampling:
    """``replay_selection``: the argmin every engine's grid search ends in."""

    @staticmethod
    def _select(costs, uniform):
        events = candidate_events_from_costs(np.array(costs, dtype=float)).events
        return replay_selection(events, uniform)

    def test_unique_minimum_needs_no_draws(self):
        draws = []
        index, cost = self._select([3.0, 1.0, 2.0], lambda: draws.append(1) or 0.0)
        assert (index, cost) == (1, 1.0)
        assert draws == []

    def test_ties_broken_uniformly(self):
        rng = CounterRNG(0, stream=9)
        counts = {0: 0, 2: 0}
        for _ in range(2000):
            index, _ = self._select([1.0, 5.0, 1.0], rng.uniform)
            counts[index] += 1
        assert abs(counts[0] - counts[2]) < 300


class TestGpuSimulator:
    @staticmethod
    def _lane_and_scalar(module, name):
        """The gpu-sim lane kernel and the scalar compiled callable of ``name``."""
        verify_module(module)
        scalar = compile_module_to_python(module)
        program = compile_lane_program(module, scalar.__getitem__)
        assert program.fallbacks == []
        return program.functions[name], scalar[name]

    def test_kernel_path_runs_control_flow(self):
        module = Module("v")
        build_branchy_function(module)
        kernel, scalar = self._lane_and_scalar(module, "branchy")
        xs = np.linspace(-2.0, 2.0, 9)
        ys = np.linspace(1.5, -1.5, 9)
        costs = launch_grid_kernel(kernel, [xs, ys], lanes=9)
        assert costs.tolist() == [scalar(x, y) for x, y in zip(xs.tolist(), ys.tolist())]

    def test_kernel_path_matches_guarded_intrinsics(self):
        """fmin/fmax ignore a NaN operand and a finite overflowing pow is NaN,
        exactly as in the scalar engines."""
        module = Module("v")
        for op in ("fmin", "fmax", "pow"):
            fn = module.add_function(op, FunctionType(F64, [F64, F64]), ["x", "y"])
            b = IRBuilder(fn.append_block("entry"))
            b.ret(getattr(b, op)(fn.args[0], fn.args[1]))
        nan = float("nan")
        xs = np.array([nan, 2.0, 400.0, 1.5, -3.0])
        ys = np.array([2.0, nan, 400.0, 3.0, 0.5])
        for op in ("fmin", "fmax", "pow"):
            kernel, scalar = self._lane_and_scalar(module, op)
            costs = launch_grid_kernel(kernel, [xs, ys], lanes=len(xs))
            expected = [scalar(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
            np.testing.assert_array_equal(costs, expected, err_msg=op)
        assert math.isnan(compile_module_to_python(module)["pow"](400.0, 400.0))

    @pytest.mark.parametrize(
        "engine, options", [("gpu-sim", {}), ("mcpu", {"workers": 2})], ids=["gpu-sim", "mcpu"]
    )
    def test_unsupported_intrinsic_falls_back_per_lane(self, monkeypatch, engine, options):
        """Without a lane lowering for ``sqrt`` (used by the predator-prey
        eval kernel) the grid kernel runs those functions per grid point
        through the scalar program, reports them, and stays bitwise equal to
        compiled.  On ``mcpu`` the pool workers link those fallbacks from
        the shipped entry-set and rest sources."""
        monkeypatch.delitem(LANE_INTRINSICS, "sqrt")
        compiled = compile_composition(
            predator_prey.build_predator_prey("s"), pipeline="default<O2>"
        )
        try:
            inputs = predator_prey.default_inputs(1)
            mismatch = buffers_equal(
                raw_buffers(compiled, inputs, 2, 0, "compiled"),
                raw_buffers(compiled, inputs, 2, 0, engine, **options),
            )
            assert mismatch is None, mismatch
            instance = compiled.engine_instance(engine)
            assert instance.lane_fallbacks, "expected per-lane fallbacks without sqrt"
            for name in instance.lane_fallbacks:
                assert "sqrt" in instance.lane_fallback_reasons[name]
            if engine == "mcpu":
                assert compiled.rest_source is not None
                assert instance.pool_starts == 1
        finally:
            compiled.close_engines()

    def test_occupancy_model_monotonic(self):
        model = GpuOccupancyModel()
        sweep = {p.max_registers: p for p in model.register_sweep(precisions=("fp64",))}
        assert sweep[16].occupancy >= sweep[256].occupancy
        assert sweep[16].estimated_seconds >= sweep[256].estimated_seconds
        assert sweep[16].spill_bytes_per_thread > 0
