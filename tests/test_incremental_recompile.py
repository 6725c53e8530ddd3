"""Incremental recompilation (`repro.core.patch`).

The differential contract: whatever path an edit takes — params-only swap,
per-unit patch, or full-compile fallback — the patched model must be bitwise
equal (results, monitors, state buffers with their final PRNG counters) to a
cold full compile of the edited composition.  The fuzz oracle's incremental
leg enforces this generatively across all engines; these tests pin the path
selection, the reports, the counters and the session re-keying on concrete
models.
"""

import copy

import numpy as np
import pytest

from repro.core.distill import compile_composition
from repro.driver.artifacts import ArtifactStore
from repro.driver.session import Session
from repro.fuzz.gen import generate_model_spec, generate_scale_spec, scale_edit_specs
from repro.fuzz.oracle import buffers_equal, raw_buffers
from repro.ir import Module
from repro.models import predator_prey as pp


#: Engines for the bitwise comparisons (mcpu excluded for test speed; the
#: fuzz incremental leg covers the full engine registry in CI).
ENGINES = ("compiled", "ir-interp", "per-node", "gpu-sim")

INPUTS = pp.default_inputs(1)


def compile_pp():
    return compile_composition(
        pp.build_predator_prey("s"), pipeline="default<O2>", store=False
    )


def assert_bitwise_equal(patched, cold):
    try:
        for engine in ENGINES:
            a = raw_buffers(patched, INPUTS, 1, 0, engine)
            b = raw_buffers(cold, INPUTS, 1, 0, engine)
            mismatch = buffers_equal(a, b)
            assert mismatch is None, f"{engine}: {mismatch}"
    finally:
        patched.close_engines()
        cold.close_engines()


def edited_matrix(composition, sender="player_loc", receiver="control"):
    for projection in composition.projections:
        if (
            projection.sender.name == sender
            and projection.receiver.name == receiver
            and projection.port == "input"
        ):
            return projection.matrix * 1.25
    raise AssertionError("projection not found")


class TestEditPaths:
    def test_parameter_edit_is_params_only(self):
        model = compile_pp()
        report = model.set_parameter("player_loc", "slope", 1.5)
        assert report["mode"] == "params-only"
        assert report["relowered"] == []
        assert report["changed"] == ["player_loc"]
        assert model.stats.artifact_patches == 0
        assert model.stats.recompile_seconds > 0.0

        cold_composition = pp.build_predator_prey("s")
        cold_composition.mechanisms["player_loc"].function.params["slope"] = 1.5
        cold = compile_composition(cold_composition, pipeline="default<O2>", store=False)
        assert_bitwise_equal(model, cold)

    def test_projection_matrix_edit_patches_the_receiver(self):
        model = compile_pp()
        matrix = edited_matrix(model.composition)
        report = model.set_projection_matrix("player_loc", "control", matrix)
        assert report["mode"] == "patched"
        assert report["changed"] == ["control"]
        # Only the receiver's compile units went stale.
        assert report["relowered"]
        assert all("control" in name for name in report["relowered"])
        assert model.stats.artifact_patches == len(report["relowered"])

        cold_composition = pp.build_predator_prey("s")
        for projection in cold_composition.projections:
            if (
                projection.sender.name == "player_loc"
                and projection.receiver.name == "control"
            ):
                projection.matrix = matrix
        cold = compile_composition(cold_composition, pipeline="default<O2>", store=False)
        assert_bitwise_equal(model, cold)

    def test_structural_diff_discovers_the_edit_set(self):
        model = compile_pp()
        edited = pp.build_predator_prey("s")
        for projection in edited.projections:
            if (
                projection.sender.name == "player_loc"
                and projection.receiver.name == "control"
            ):
                projection.matrix = projection.matrix * 1.25
        report = model.recompile(composition=edited)
        assert report["mode"] == "patched"
        assert report["changed"] == ["control"]
        model.close_engines()

    def test_unknown_changed_name_raises(self):
        model = compile_pp()
        with pytest.raises(KeyError, match="no_such_node"):
            model.recompile(changed={"no_such_node"})
        model.close_engines()

    def test_unknown_parameter_and_projection_raise(self):
        model = compile_pp()
        with pytest.raises(KeyError):
            model.set_parameter("player_loc", "no_such_param", 1.0)
        with pytest.raises(KeyError):
            model.set_projection_matrix("player_loc", "no_such_node", [[1.0]])
        model.close_engines()


class TestFullFallback:
    def test_layout_incompatible_edit_falls_back_to_full(self):
        spec = generate_model_spec(4)
        model = compile_composition(spec.build(), pipeline="default<O2>", store=False)
        edited_spec = copy.deepcopy(spec)
        edited_spec.max_passes += 1  # moves the baked pass bound -> new layout
        report = model.recompile(composition=edited_spec.build())
        assert report["mode"] == "full"
        assert report["reason"] == "layout incompatible"
        # The handle stays valid and now runs the edited model.
        cold = compile_composition(
            edited_spec.build(), pipeline="default<O2>", store=False
        )
        try:
            a = raw_buffers(model, spec.inputs, spec.num_trials, spec.run_seed, "compiled")
            b = raw_buffers(cold, spec.inputs, spec.num_trials, spec.run_seed, "compiled")
            assert buffers_equal(a, b) is None
        finally:
            model.close_engines()
            cold.close_engines()

    def test_mechanism_set_change_falls_back_to_full(self):
        spec_a = generate_model_spec(4)
        spec_b = generate_model_spec(6)
        model = compile_composition(spec_a.build(), pipeline="default<O2>", store=False)
        report = model.recompile(composition=spec_b.build())
        assert report["mode"] == "full"
        assert report["reason"] == "mechanism set changed"
        model.close_engines()

    def test_counters_accumulate_across_edits_and_fallbacks(self):
        model = compile_pp()
        model.set_parameter("player_loc", "slope", 1.5)
        after_first = model.stats.recompile_seconds
        matrix = edited_matrix(model.composition)
        model.set_projection_matrix("player_loc", "control", matrix)
        assert model.stats.recompile_seconds > after_first
        assert model.stats.artifact_patches >= 1
        patches_before_fallback = model.stats.artifact_patches
        # Full fallback adopts a fresh model but keeps cumulative counters.
        other = generate_model_spec(4)
        report = model.recompile(composition=other.build())
        assert report["mode"] == "full"
        assert model.stats.artifact_patches == patches_before_fallback
        assert model.stats.recompile_seconds > after_first
        model.close_engines()


    def test_pass_record_kept_by_patch_adopted_by_fallback(self):
        """``stats.passes`` describes the full compile, like ``analysis_hits``:
        an incremental patch leaves it alone, a full fallback adopts the fresh
        compile's record."""
        model = compile_pp()
        passes, hits = copy.deepcopy(model.stats.passes), model.stats.analysis_hits
        report = model.set_projection_matrix(
            "player_loc", "control", edited_matrix(model.composition)
        )
        assert report["mode"] == "patched"
        assert model.stats.passes == passes
        assert model.stats.analysis_hits == hits
        other = generate_model_spec(4)
        fresh = compile_composition(other.build(), pipeline="default<O2>", store=False)
        report = model.recompile(composition=other.build())
        assert report["mode"] == "full"
        runs = lambda stats: {n: (r["runs"], r["changed"]) for n, r in stats.passes.items()}
        assert runs(model.stats) == runs(fresh.stats)
        model.close_engines()
        fresh.close_engines()


class TestScaleSpecEdits:
    def test_scale_model_edit_relowersers_one_unit(self):
        spec = generate_scale_spec(2, n_mechanisms=16)
        model = compile_composition(spec.build(), pipeline="default<O2>", store=False)
        (param_edit, _), (proj_edit, receiver) = scale_edit_specs(spec)

        report = model.recompile(composition=param_edit.build())
        assert report["mode"] == "params-only"

        report = model.recompile(composition=proj_edit.build())
        assert report["mode"] == "patched"
        assert report["relowered"] == [f"node_{receiver}"]

        cold = compile_composition(proj_edit.build(), pipeline="default<O2>", store=False)
        try:
            for engine in ("compiled", "ir-interp"):
                a = raw_buffers(model, spec.inputs, spec.num_trials, spec.run_seed, engine)
                b = raw_buffers(cold, spec.inputs, spec.num_trials, spec.run_seed, engine)
                assert buffers_equal(a, b) is None
        finally:
            model.close_engines()
            cold.close_engines()


class TestSessionRecompile:
    def test_session_recompile_rekeys_the_cache(self):
        session = Session()
        model = session.compile_model(pp.build_predator_prey("s"))
        edited = pp.build_predator_prey("s")
        edited.mechanisms["player_loc"].function.params["slope"] = 1.5
        report = session.recompile(model, composition=edited)
        assert report["mode"] == "params-only"

        # The post-edit structure now hits the session cache ...
        again = pp.build_predator_prey("s")
        again.mechanisms["player_loc"].function.params["slope"] = 1.5
        assert session.compile_model(again) is model
        # ... and the pre-edit structure compiles fresh.
        assert session.compile_model(pp.build_predator_prey("s")) is not model
        model.close_engines()

    def test_session_recompile_uses_session_store(self, tmp_path):
        session = Session(store=tmp_path / "store")
        model = session.compile_model(pp.build_predator_prey("s"))
        assert model.stats.artifact_writes >= 1
        # A structural edit that forces the full-compile fallback goes
        # through the session's store (and publishes the fresh entries).
        spec = generate_model_spec(4)
        report = session.recompile(model, composition=spec.build())
        assert report["mode"] == "full"
        assert model.stats.artifact_writes >= 1
        model.close_engines()


class TestPatchScope:
    """A one-node edit re-optimizes the node and ``run_pass`` only; the live
    trial drivers are relinked, never regenerated."""

    def test_node_edit_scopes_to_the_pass_functions(self, monkeypatch):
        from repro.fuzz.oracle import OracleConfig, _final_rng_counters

        spec = generate_scale_spec(2, n_mechanisms=16)
        model = compile_composition(spec.build(), pipeline="default<O2>", store=False)
        (_, _), (proj_edit, receiver) = scale_edit_specs(spec)
        drivers = {name: model.function(name) for name in ("run_trial", "run_model")}

        optimized = []
        original_run = type(model.pipeline).run

        def spy(pipeline, module, *args, **kwargs):
            optimized.append(sorted(fn.name for fn in module.defined_functions()))
            return original_run(pipeline, module, *args, **kwargs)

        monkeypatch.setattr(type(model.pipeline), "run", spy)
        report = model.recompile(composition=proj_edit.build())
        monkeypatch.undo()

        scope = sorted([f"node_{receiver}", "run_pass"])
        assert report["mode"] == "patched"
        assert report["relowered"] == [f"node_{receiver}"]
        assert report["optimized"] == scope
        assert optimized == [scope]
        for name, callable_ in drivers.items():
            assert model.function(name) is callable_, name
        # The live drivers' IR now calls the grafted pass function.
        run_trial = model.module.get_function("run_trial")
        callees = {i.callee for i in run_trial.instructions() if i.opcode == "call"}
        assert model.module.get_function("run_pass") in callees

        cold = compile_composition(proj_edit.build(), pipeline="default<O2>", store=False)
        try:
            for engine in OracleConfig().resolved_engines():
                a = raw_buffers(model, spec.inputs, spec.num_trials, spec.run_seed, engine)
                b = raw_buffers(cold, spec.inputs, spec.num_trials, spec.run_seed, engine)
                assert buffers_equal(a, b) is None, engine
                assert _final_rng_counters(model, a[2]) == _final_rng_counters(cold, b[2])
        finally:
            model.close_engines()
            cold.close_engines()

    def test_controlled_model_node_edit_scopes_to_run_pass(self):
        """On a model with a grid-search controller a non-control node edit
        also re-optimizes only the node and ``run_pass``: the grid engines'
        Python scheduler calls the node functions directly."""
        from repro.fuzz.oracle import _final_rng_counters

        edge = ("player_loc", "obs_player", "location")
        matrix = 1.25 * np.eye(2)
        model = compile_pp()
        report = model.set_projection_matrix(*edge[:2], matrix, port=edge[2])
        assert report["mode"] == "patched"
        assert report["relowered"] == ["node_obs_player"]
        assert report["optimized"] == ["node_obs_player", "run_pass"]

        cold_composition = pp.build_predator_prey("s")
        for projection in cold_composition.projections:
            if (projection.sender.name, projection.receiver.name, projection.port) == edge:
                projection.matrix = matrix
        cold = compile_composition(cold_composition, pipeline="default<O2>", store=False)
        try:
            for engine in ("compiled", "gpu-sim", "mcpu"):
                a = raw_buffers(model, INPUTS, 1, 0, engine)
                b = raw_buffers(cold, INPUTS, 1, 0, engine)
                assert buffers_equal(a, b) is None, engine
                assert _final_rng_counters(model, a[2]) == _final_rng_counters(cold, b[2])
        finally:
            model.close_engines()
            cold.close_engines()

    def test_driver_edit_then_node_edit(self):
        """A termination edit re-optimizes the drivers; a later node edit
        relinks those patched drivers (lowered by the first patch) to the
        new pass functions."""
        from repro.cogframe import conditions as cond

        spec = generate_scale_spec(2, n_mechanisms=16)
        model = compile_composition(spec.build(), pipeline="default<O2>", store=False)
        (_, _), (proj_edit, receiver) = scale_edit_specs(spec)
        stop_early = lambda composition: cond.AfterNPasses(composition.max_passes - 1)

        edited = spec.build()
        edited.termination = stop_early(edited)
        report = model.recompile(composition=edited, changed=set())
        assert report["relowered"] == ["run_trial"]
        assert report["optimized"] == ["run_model", "run_trial"]

        edited = proj_edit.build()
        edited.termination = stop_early(edited)
        report = model.recompile(composition=edited)
        assert report["optimized"] == sorted([f"node_{receiver}", "run_pass"])

        edited = proj_edit.build()
        edited.termination = stop_early(edited)
        cold = compile_composition(edited, pipeline="default<O2>", store=False)
        try:
            for engine in ENGINES:
                a = raw_buffers(model, spec.inputs, spec.num_trials, spec.run_seed, engine)
                b = raw_buffers(cold, spec.inputs, spec.num_trials, spec.run_seed, engine)
                assert buffers_equal(a, b) is None, engine
        finally:
            model.close_engines()
            cold.close_engines()


class TestEnginesWarmedBeforeTheEdit:
    """An engine that ran before an edit runs the edited model after it.

    The Python scheduler caches its plan (node and helper callables, the
    layout, the grid levels) on the model; a recompile must retire it with
    the engine bindings.
    """

    TRIALS = 2

    def _check(self, model, edit):
        inputs = pp.default_inputs(self.TRIALS)
        options = {"mcpu": {"workers": 2}}
        try:
            for engine in ("per-node", "mcpu", "gpu-sim"):
                raw_buffers(model, inputs, self.TRIALS, 0, engine, **options.get(engine, {}))
            edit(model)
            reference = raw_buffers(model, inputs, self.TRIALS, 0, "compiled")
            for engine in ("per-node", "mcpu", "gpu-sim"):
                got = raw_buffers(
                    model, inputs, self.TRIALS, 0, engine, **options.get(engine, {})
                )
                assert buffers_equal(reference, got) is None, engine
        finally:
            model.close_engines()
        return reference

    def test_node_edit(self):
        def edit(model):
            report = model.set_projection_matrix("obs_player", "action", 3.0, port="player")
            assert report["mode"] == "patched"

        self._check(compile_pp(), edit)

    def test_grid_levels_edit(self):
        levels = [[0.0, 1.5], [0.5, 4.0], [1.0, 3.0]]

        def edit(model):
            model.composition.mechanisms["control"].levels = levels
            model.recompile(changed={"control"})

        model = compile_pp()
        results = self._check(model, edit)
        size = model.layout.result_record_size()
        offset, width = model.layout.result_layout["control"]
        for trial in range(self.TRIALS):
            allocation = results[0][trial * size + offset : trial * size + offset + width]
            assert all(value in signal for value, signal in zip(allocation, levels))


class TestStoreHitModels:
    """A model rebuilt from a store hit holds its IR encoded until something
    reads it; every edit path must give the same model as the same edit on a
    cold compile."""

    @staticmethod
    def hit(store, build):
        compile_composition(build(), pipeline="default<O2>", store=store).close_engines()
        model = compile_composition(build(), pipeline="default<O2>", store=store)
        assert model.stats.artifact_hits == 1
        assert not isinstance(model.artifacts.module, Module)
        return model

    def test_parameter_edit(self, tmp_path):
        model = self.hit(ArtifactStore(tmp_path / "store"), lambda: pp.build_predator_prey("s"))
        cold = compile_pp()
        for edited in (model, cold):
            assert edited.set_parameter("player_loc", "slope", 1.5)["mode"] == "params-only"
        assert_bitwise_equal(model, cold)

    def test_projection_matrix_edit(self, tmp_path):
        model = self.hit(ArtifactStore(tmp_path / "store"), lambda: pp.build_predator_prey("s"))
        cold = compile_pp()
        matrix = edited_matrix(cold.composition)
        for edited in (model, cold):
            report = edited.set_projection_matrix("player_loc", "control", matrix)
            assert report["mode"] == "patched"
        assert model.module is model.artifacts.module
        assert_bitwise_equal(model, cold)

    def test_full_fallback_adopts_a_store_hit(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = generate_model_spec(4)
        edited_spec = copy.deepcopy(spec)
        edited_spec.max_passes += 1  # a new layout: the edit compiles in full
        model = self.hit(store, spec.build)
        compile_composition(edited_spec.build(), pipeline="default<O2>", store=store).close_engines()

        report = model.recompile(composition=edited_spec.build(), store=store)
        assert report["mode"] == "full"
        assert model.stats.artifact_hits == 1  # the full compile was a hit too
        assert not isinstance(model.artifacts.module, Module)
        assert isinstance(model.module, Module)
        assert model.module is model.artifacts.module

        cold = compile_composition(edited_spec.build(), pipeline="default<O2>", store=False)
        try:
            for engine in ENGINES:
                a = raw_buffers(model, spec.inputs, spec.num_trials, spec.run_seed, engine)
                b = raw_buffers(cold, spec.inputs, spec.num_trials, spec.run_seed, engine)
                assert buffers_equal(a, b) is None, engine
        finally:
            model.close_engines()
            cold.close_engines()


class TestStoreEntryWithoutCallBoundary:
    """A model reloaded from a store entry whose ``run_trial`` holds inlined
    node bodies (the pass functions were not ``noinline`` when it was
    written) must not be patched: relinking ``run_pass`` would leave the old
    node running."""

    def test_node_edit_falls_back_to_a_full_compile(self, monkeypatch, tmp_path):
        from repro.core.codegen import ModelCodeGenerator

        emit_run_pass = ModelCodeGenerator._emit_run_pass

        def inlinable_run_pass(self):
            fn = emit_run_pass(self)
            del fn.attributes["noinline"]
            fn.attributes["alwaysinline"] = True
            return fn

        store = ArtifactStore(tmp_path / "store")
        spec = generate_scale_spec(2, n_mechanisms=16)
        monkeypatch.setattr(ModelCodeGenerator, "_emit_run_pass", inlinable_run_pass)
        compile_composition(spec.build(), pipeline="default<O2>", store=store)
        monkeypatch.undo()

        model = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        assert model.stats.artifact_hits == 1
        run_trial = model.module.get_function("run_trial")
        assert not any(
            i.opcode == "call" and i.callee.name == "run_pass" for i in run_trial.instructions()
        )

        (_, _), (proj_edit, _) = scale_edit_specs(spec)
        report = model.recompile(composition=proj_edit.build(), store=False)
        assert report["mode"] == "full"
        assert report["reason"] == "no call boundary at run_pass"

        cold = compile_composition(proj_edit.build(), pipeline="default<O2>", store=False)
        try:
            for engine in ENGINES:
                a = raw_buffers(model, spec.inputs, spec.num_trials, spec.run_seed, engine)
                b = raw_buffers(cold, spec.inputs, spec.num_trials, spec.run_seed, engine)
                assert buffers_equal(a, b) is None, engine
        finally:
            model.close_engines()
            cold.close_engines()


class TestDriverRegeneration:
    """Every recompile regenerates ``run_trial`` and ``run_model`` and
    compares their fingerprints: an edit to a state reset value or to the
    termination condition re-lowers them, a node edit keeps the live ones."""

    @staticmethod
    def edited(spec, edit):
        composition = spec.build()
        edit(composition)
        return composition

    @staticmethod
    def reset_initializer(composition):
        mech = next(
            m for m in composition.mechanisms.values() if "initializer" in m.function.params
        )
        mech.function.params["initializer"] = 0.5

    @staticmethod
    def stop_early(composition):
        from repro.cogframe import conditions as cond

        composition.termination = cond.AfterNPasses(composition.max_passes - 1)

    @staticmethod
    def assert_matches_cold(model, spec, edited):
        cold = compile_composition(edited, pipeline="default<O2>", store=False)
        try:
            for engine in ENGINES:
                a = raw_buffers(model, spec.inputs, spec.num_trials, spec.run_seed, engine)
                b = raw_buffers(cold, spec.inputs, spec.num_trials, spec.run_seed, engine)
                assert buffers_equal(a, b) is None, engine
        finally:
            model.close_engines()
            cold.close_engines()

    @pytest.mark.parametrize("edit", ["reset_initializer", "stop_early"])
    def test_driver_edit_relowers_the_drivers(self, edit):
        spec = generate_model_spec(0)
        edit = getattr(self, edit)
        model = compile_composition(spec.build(), pipeline="default<O2>", store=False)
        live = model.function("run_trial")
        report = model.recompile(composition=self.edited(spec, edit), changed=set())
        assert report["mode"] == "patched"
        assert report["relowered"] == ["run_trial"]
        assert report["optimized"] == ["run_model", "run_trial"]
        assert model.function("run_trial") is not live
        self.assert_matches_cold(model, spec, self.edited(spec, edit))

    def test_node_edit_keeps_the_live_drivers(self):
        from repro.fuzz.gen import perturb_spec

        spec = generate_model_spec(0)
        edited_spec, _ = perturb_spec(spec, 0)
        model = compile_composition(spec.build(), pipeline="default<O2>", store=False)
        drivers = {name: model.function(name) for name in ("run_trial", "run_model")}
        report = model.recompile(composition=edited_spec.build())
        assert report["mode"] == "patched"
        assert not set(drivers) & set(report["relowered"] + report["optimized"])
        for name, callable_ in drivers.items():
            assert model.function(name) is callable_, name
        self.assert_matches_cold(model, spec, edited_spec.build())
