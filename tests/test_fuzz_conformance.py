"""Tests for the generative conformance harness (repro.fuzz).

Covers the generator (deterministic, structurally valid models), the
differential oracle (a fixed-seed campaign must be green across every
registered engine × O0–O3 × cold/cached analysis manager), the delta
debugging reducer (an intentionally broken pass must shrink to a minimal
reproducer), the reproducer writer (emitted files are self-contained and
runnable) and the two regressions the first campaigns found:

* ``EveryNCalls`` saw *mid-pass* execution counts in the whole-model compiled
  scheduler while the reference/per-node schedulers snapshot counts at pass
  start (fixed in ``core.codegen._emit_run_pass``);
* ``DriftDiffusionAnalytical.emit`` produced NaN for zero drift where the
  reference implementation returns the closed-form limit (fixed with a
  ``select`` in the template).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cogframe import Composition
from repro.cogframe.conditions import AfterNPasses, EveryNCalls
from repro.cogframe.functions import AccumulatorIntegrator, DriftDiffusionAnalytical, Linear
from repro.cogframe.mechanisms import IntegratorMechanism, ObjectiveMechanism, ProcessingMechanism
from repro.cogframe.runner import ReferenceRunner
from repro.cogframe.sanitize import sanitize
from repro.core.distill import compile_composition
from repro.driver.registry import register_pass
from repro.fuzz import (
    OracleConfig,
    check_spec,
    generate_model_spec,
    reproducer_source,
    run_campaign,
    shrink_pipeline,
    shrink_spec,
)
from repro.fuzz.oracle import Divergence, raw_buffers
from repro.ir.instructions import BinaryOp
from repro.passes import FunctionPass

from strategies import model_specs


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_same_seed_same_model(self):
        assert generate_model_spec(7).to_source() == generate_model_spec(7).to_source()
        assert generate_model_spec(7).to_source() != generate_model_spec(8).to_source()

    def test_build_executes_emitted_source(self):
        spec = generate_model_spec(3)
        composition = spec.build()
        assert isinstance(composition, Composition)
        assert set(composition.input_nodes)  # at least one designated input

    @given(model_specs)
    @settings(max_examples=12, deadline=None)
    def test_property_specs_build_and_sanitize(self, spec):
        info = sanitize(spec.build())
        assert info.input_size >= 1
        assert info.output_size >= 1
        # The flat input rows the spec carries match the model's layout.
        assert all(len(row) == info.input_size for row in spec.inputs)

    def test_vocabulary_spans_registries(self):
        """Across a window of seeds the generator exercises controllers,
        cycles, non-trivial conditions and multiple library functions."""
        functions = set()
        controls = conditions = 0
        for seed in range(40):
            spec = generate_model_spec(seed)
            functions.update(m.function.name for m in spec.mechanisms)
            controls += spec.control is not None
            conditions += any(m.condition is not None for m in spec.mechanisms)
        assert len(functions) >= 8
        assert controls >= 5
        assert conditions >= 10


# ---------------------------------------------------------------------------
# Oracle: the fixed-seed tier-1 campaign + the full acceptance campaign
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_fixed_seed_campaign_is_green(self):
        report = run_campaign(seed=0, n_models=8, shrink=False)
        assert report.ok, report.format_table()
        assert report.legs > 8 * 20  # the full matrix actually ran
        assert len(report.rows) == 8
        assert {row["status"] for row in report.rows} == {"ok"}

    @pytest.mark.fuzz
    @pytest.mark.slow
    def test_acceptance_campaign_25_models(self):
        """The ISSUE acceptance matrix: 25 models × all engines × O0–O3 ×
        cold/cached, bitwise green."""
        report = run_campaign(seed=0, n_models=25, shrink=False)
        assert report.ok, report.format_table()

    def test_report_table_formats(self):
        report = run_campaign(seed=100, n_models=2, shrink=False)
        table = report.format_table()
        assert "conformance campaign" in table
        assert "seed" in table and "status" in table
        summary = report.summary()
        assert summary["models"] == 2 and summary["failures"] == 0

    def test_cli_entry_point(self, capsys):
        from repro.fuzz.__main__ import main

        assert main(["--seed", "0", "--n-models", "2", "--quiet", "--no-shrink"]) == 0
        out = capsys.readouterr().out
        assert "2 models" in out

    def test_incremental_leg_runs_and_is_green(self):
        """The incremental-recompile leg: a perturbed model patched via
        recompile() must match a cold full compile of the edit, bitwise,
        on every engine."""
        baseline = run_campaign(seed=0, n_models=3, shrink=False)
        report = run_campaign(seed=0, n_models=3, shrink=False, check_incremental=True)
        assert report.ok, report.format_table()
        # The leg really ran: extra per-engine comparisons were counted.
        assert report.legs > baseline.legs

    def test_incremental_leg_detects_a_stale_patch(self, monkeypatch):
        """If patching silently produced the *old* program, the leg must
        report an `incremental` divergence."""
        from repro.core import patch as patch_module
        from repro.fuzz import OracleConfig, check_spec
        from repro.fuzz.gen import generate_model_spec

        real = patch_module.recompile_model

        def stale_recompile(model, composition=None, changed=None, store=None):
            # Swallow the edit: pretend nothing changed.
            return real(model, composition=model.composition, changed=set(), store=store)

        monkeypatch.setattr(patch_module, "recompile_model", stale_recompile)
        config = OracleConfig(
            pipelines=("default<O2>",),
            engines=("compiled",),
            check_reference=False,
            check_analysis_cache=False,
            check_incremental=True,
        )
        for seed in range(20):
            verdict = check_spec(generate_model_spec(seed), config)
            kinds = {d.kind for d in verdict.divergences}
            if "incremental" in kinds:
                return
        raise AssertionError("no seed in 0..19 exposed the stale patch")

    def test_lane_leg_runs_and_is_green(self):
        """The batched-lane leg: a 3-element run_batch on the lane engine
        must reproduce the scalar compiled engine's per-element buffers and
        final PRNG counters."""
        baseline = run_campaign(seed=0, n_models=3, shrink=False)
        report = run_campaign(seed=0, n_models=3, shrink=False, check_lane=True)
        assert report.ok, report.format_table()
        assert report.legs > baseline.legs  # the leg really ran

    def test_lane_leg_detects_a_corrupted_buffer(self, monkeypatch):
        """A lane engine that corrupts one result slot beyond the documented
        ulp tolerance must produce a `lane` divergence."""
        from repro.backends import lane as lane_module

        real = lane_module._LaneInstance.execute_batch

        def corrupting(self, elements, **options):
            real(self, elements, **options)
            if elements:
                buffers, _ = elements[0]
                if len(buffers["results"]):
                    buffers["results"][0] += 1.0

        monkeypatch.setattr(lane_module._LaneInstance, "execute_batch", corrupting)
        config = OracleConfig(
            pipelines=("default<O2>",),
            engines=("compiled",),
            check_reference=False,
            check_analysis_cache=False,
            check_lane=True,
        )
        verdict = check_spec(generate_model_spec(0), config)
        kinds = {d.kind for d in verdict.divergences}
        assert kinds == {"lane"}, verdict.divergences

    def test_lane_leg_is_green_on_seed_20000065(self):
        """The one lane divergence the nightly campaign (seeds from
        20000000) found: at ``default<O0>``, with equal PRNG counters, one
        state slot differed from ``compiled`` beyond :data:`LANE_RTOL`.  The
        model has a grid-search controller, so lane now runs it through the
        shared scheduler and grid kernel, bitwise."""
        config = OracleConfig(
            pipelines=("default<O0>",),
            engines=("compiled",),
            check_reference=False,
            check_analysis_cache=False,
            check_lane=True,
        )
        verdict = check_spec(generate_model_spec(20000065), config)
        assert verdict.ok, verdict.divergences

    def test_lane_cli_flag(self, capsys):
        from repro.fuzz.__main__ import main

        assert main(
            ["--seed", "0", "--n-models", "1", "--quiet", "--no-shrink", "--lane"]
        ) == 0
        assert "1 models" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Broken-pass detection and shrinking
# ---------------------------------------------------------------------------


class FaddFlipper(FunctionPass):
    """Deliberately miscompiling pass: rewrites fadd -> fsub in node code."""

    name = "fuzzbreaker"
    preserves = "cfg"

    def run_on_function(self, function, am=None):
        if not function.name.startswith("node_"):
            return False
        changed = False
        for instruction in function.instructions():
            if isinstance(instruction, BinaryOp) and instruction.opcode == "fadd":
                instruction.opcode = "fsub"
                changed = True
        return changed


@pytest.fixture
def fuzzbreaker():
    """Register the miscompiling pass for one test only — it must not leak
    into the process-wide registry other tests and campaigns see."""
    from repro.driver.registry import unregister_pass

    register_pass("fuzzbreaker")(FaddFlipper)
    try:
        yield "fuzzbreaker"
    finally:
        assert unregister_pass("fuzzbreaker")


BROKEN_CONFIG = OracleConfig(
    pipelines=("default<O0>", "default<O0>,fuzzbreaker"),
    engines=("compiled",),
    workers=0,
    check_reference=False,
    check_analysis_cache=False,
)


def _first_broken_seed(limit: int = 30) -> int:
    for seed in range(limit):
        verdict = check_spec(generate_model_spec(seed), BROKEN_CONFIG)
        if any(d.kind == "pipeline" for d in verdict.divergences):
            return seed
    raise AssertionError("no generated model exposed the broken pass")


class TestBrokenPassShrinks:
    def test_broken_pass_caught_and_shrunk_to_minimal_reproducer(
        self, tmp_path, fuzzbreaker
    ):
        seed = _first_broken_seed()
        report = run_campaign(
            seed=seed,
            n_models=1,
            pipelines=BROKEN_CONFIG.pipelines,
            engines=BROKEN_CONFIG.engines,
            workers=0,
            check_reference=False,
            out_dir=str(tmp_path),
        )
        assert not report.ok
        failure = report.failures[0]
        assert any(d.kind == "pipeline" for d in failure.divergences)
        # The acceptance bound: the shrunk model is a <= 3-mechanism reproducer.
        assert failure.shrunk is not None
        assert failure.shrunk.summary()["mechanisms"] <= 3
        # The written reproducer is self-contained and fails as a test.
        assert failure.reproducer_path is not None
        source = open(failure.reproducer_path, encoding="utf-8").read()
        namespace = {"__name__": "fuzz_reproducer"}
        exec(compile(source, failure.reproducer_path, "exec"), namespace)
        test_fn = next(v for k, v in namespace.items() if k.startswith("test_"))
        with pytest.raises(AssertionError):
            test_fn()

    def test_shrink_pipeline_ddmin_isolates_breaker(self, fuzzbreaker):
        seed = _first_broken_seed()
        spec = generate_model_spec(seed)

        def still_fails(pipeline_text: str) -> bool:
            config = OracleConfig(
                pipelines=("default<O0>", pipeline_text),
                engines=("compiled",),
                workers=0,
                check_reference=False,
                check_analysis_cache=False,
            )
            verdict = check_spec(spec, config)
            return any(d.kind == "pipeline" for d in verdict.divergences)

        shrunk = shrink_pipeline("default<O2>,fuzzbreaker", still_fails)
        assert shrunk == "fuzzbreaker"


# ---------------------------------------------------------------------------
# Reducer and reproducer writer on their own
# ---------------------------------------------------------------------------


#: Divergence kind -> the (pipeline, engine) of a synthetic divergence.
REPRODUCER_KINDS = {
    "engine": ("default<O1>", "ir-interp"),
    "engine-error": ("default<O1>", "ir-interp"),
    "pipeline": ("default<O2>", None),
    "analysis-cache": ("default<O0>", None),
    "reference": ("default<O0>", None),
    "sanitizer": ("default<O0>", None),
    "lane": ("default<O0>", "lane"),
    "incremental": ("default<O0>", "compiled"),
}


def _force_divergence(kind, patch):
    """Monkeypatch a fault that makes the oracle report a ``kind`` divergence."""
    if kind in ("engine", "engine-error"):
        from repro.backends.interp import _InterpreterInstance

        real_execute = _InterpreterInstance.execute

        def faulty_execute(self, buffers, num_trials, **options):
            if kind == "engine-error":
                raise RuntimeError("forced engine fault")
            real_execute(self, buffers, num_trials, **options)
            buffers["results"][0] += 1.0

        patch.setattr(_InterpreterInstance, "execute", faulty_execute)
    elif kind == "pipeline":
        from repro.passes import InstCombine

        real_combine = InstCombine.run_on_function

        def flipping_combine(self, function, am=None):
            changed = real_combine(self, function, am)
            for instruction in function.instructions():
                if isinstance(instruction, BinaryOp) and instruction.opcode == "fadd":
                    instruction.opcode = "fsub"
                    changed = True
            return changed

        patch.setattr(InstCombine, "run_on_function", flipping_combine)
    elif kind == "analysis-cache":
        from repro.core.distill import CompiledModel

        real_print = CompiledModel.print_ir
        patch.setattr(
            CompiledModel, "print_ir", lambda self: real_print(self) + repr(self.flags)
        )
    elif kind == "reference":

        def failing_run(self, inputs, num_trials=None):
            raise RuntimeError("forced reference fault")

        patch.setattr(ReferenceRunner, "run", failing_run)
    elif kind == "sanitizer":
        from repro.backends.pycodegen import _StructuredFunction

        # Instrumentation that changes every float result it checks.
        patch.setattr(
            _StructuredFunction,
            "_san_result_checks",
            lambda self, instr, name: [f"{name} = {name} + 1.0"] if instr.type.is_float else [],
        )
    elif kind == "lane":
        from repro.backends import lane as lane_module

        real_batch = lane_module._LaneInstance.execute_batch

        def corrupting_batch(self, elements, **options):
            # Only a multi-element run_batch goes wrong, not a single run.
            real_batch(self, elements, **options)
            if len(elements) > 1:
                elements[-1][0]["results"][0] += 1.0

        patch.setattr(lane_module._LaneInstance, "execute_batch", corrupting_batch)
    else:
        from repro.core import patch as patch_module

        real_recompile = patch_module.recompile_model

        def stale_recompile(model, composition=None, changed=None, store=None):
            return real_recompile(model, composition=model.composition, changed=set(), store=store)

        patch.setattr(patch_module, "recompile_model", stale_recompile)


class TestReduceAndWrite:
    def test_shrink_spec_respects_predicate_kind(self):
        spec = generate_model_spec(0)
        # A predicate that only "fails" while the model keeps >= 2 mechanisms
        # drives the reducer to exactly 2.
        shrunk = shrink_spec(spec, lambda s: len(s.mechanisms) >= 2)
        assert len(shrunk.mechanisms) == 2
        sanitize(shrunk.build())  # still a valid model

    def test_reproducer_source_green_model_passes(self, monkeypatch):
        """Every divergence kind's reproducer replays its oracle leg: it
        passes on a healthy model and fails under a fault that makes the
        oracle report that kind."""
        spec = generate_model_spec(0)
        for kind, (pipeline, engine) in REPRODUCER_KINDS.items():
            divergence = Divergence(kind, pipeline, engine, "synthetic")
            source = reproducer_source(spec, divergence)
            namespace = {"__name__": "fuzz_reproducer"}
            exec(compile(source, f"<reproducer {kind}>", "exec"), namespace)
            test_fn = next(v for k, v in namespace.items() if k.startswith("test_"))
            test_fn()  # legs agree on a healthy model: the reproducer passes
            with monkeypatch.context() as patch:
                _force_divergence(kind, patch)
                with pytest.raises(AssertionError, match=rf"\[{kind}\]"):
                    test_fn()

    def test_reproducer_source_supports_strict_xfail(self):
        spec = generate_model_spec(4)
        divergence = Divergence("engine", "default<O1>", "ir-interp", "synthetic")
        source = reproducer_source(spec, divergence, xfail_reason="open finding #00")
        assert "@pytest.mark.xfail(strict=True, reason='open finding #00')" in source


# ---------------------------------------------------------------------------
# Regressions found by the first campaigns
# ---------------------------------------------------------------------------


class TestCampaignRegressions:
    def test_every_n_calls_uses_pass_start_counts(self):
        """EveryNCalls(dep, 1) where dep runs earlier in the same pass: the
        compiled scheduler must see the pass-start snapshot (node idle on
        pass 0), like the reference and per-node schedulers — not the
        mid-pass count."""
        comp = Composition("enc_regression")
        a = ProcessingMechanism("a", Linear(slope=2.0), size=1)
        b = IntegratorMechanism(
            "b", AccumulatorIntegrator(rate=1.0, noise=0.5), size=1
        )
        comp.add_node(a, is_input=True)
        comp.add_node(b, is_output=True, condition=EveryNCalls("a", 1))
        comp.add_projection(a, b)
        comp.set_termination(AfterNPasses(3), max_passes=3)
        inputs = [{"a": [1.0]}]

        reference = ReferenceRunner(comp, seed=0).run(inputs, num_trials=1)
        compiled = compile_composition(comp, pipeline="default<O2>")
        try:
            baseline = raw_buffers(compiled, inputs, 1, 0, "compiled")
            for engine in ("per-node", "ir-interp"):
                assert raw_buffers(compiled, inputs, 1, 0, engine) == baseline, engine
        finally:
            compiled.close_engines()
        np.testing.assert_allclose(
            baseline[0][0], reference.trials[0].outputs["b"][0], rtol=1e-9
        )
        # b must run on passes 1 and 2 only: counter state says 2 calls.
        from repro.core.structs import StaticLayout

        calls_offset = compiled.layout.state_struct.field_slot_offset(
            compiled.layout.state_struct.field_index(StaticLayout.count_field("b"))
        )
        assert baseline[2][calls_offset] == 2.0

    def test_ddm_analytical_zero_drift_matches_reference(self):
        """Zero stimulus drift: emit must return the closed-form limit, not
        (threshold/0) * tanh(0) = NaN."""
        comp = Composition("ddm_zero_drift")
        stim = ProcessingMechanism("stim", Linear(slope=0.0), size=1)
        ddm = ObjectiveMechanism(
            "ddm", DriftDiffusionAnalytical(threshold=1.5, noise=1.0), size=1
        )
        comp.add_node(stim, is_input=True)
        comp.add_node(ddm, is_output=True)
        comp.add_projection(stim, ddm)
        comp.set_termination(AfterNPasses(2), max_passes=2)
        inputs = [{"stim": [3.0]}]

        reference = ReferenceRunner(comp, seed=0).run(inputs, num_trials=1)
        compiled = compile_composition(comp, pipeline="default<O2>")
        result = compiled.run(inputs, num_trials=1, seed=0)
        expected = reference.trials[0].outputs["ddm"]
        assert not np.isnan(expected).any()
        np.testing.assert_allclose(
            result.trials[0].outputs["ddm"], expected, rtol=1e-12
        )
