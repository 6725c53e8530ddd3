"""Lowering on first use: a compile lowers only what ``run_model`` reaches.

A compile generates, ``compile()``s and execs the *entry set* — the defined
functions reachable through calls from ``run_model`` (after ``default<O2>``
that is ``run_model`` and ``run_pass``).  Every other function lowers from
the optimized IR, all of the rest in one generator pass, on the first
:meth:`CompiledModel.function` lookup that misses.  An incremental
recompile lowers the scope functions the entry reaches; the others re-lower
on first use from the grafted IR.  These tests pin that every engine still
agrees with ``ir-interp`` on cold, store-hit and patched models, and when
the lowering happens (see DESIGN.md, "The warm-start path").
"""

import numpy as np
import pytest

from repro.backends import lane as lane_backend
from repro.backends.pycodegen import PythonCodeGenerator, reachable_functions
from repro.cogframe import conditions as cond
from repro.core.distill import ENTRY_FUNCTION, compile_composition
from repro.driver.artifacts import ArtifactStore
from repro.driver.engines import list_engines
from repro.fuzz.oracle import LANE_RTOL, buffers_equal, raw_buffers
from repro.ir import serialize
from repro.models import MODEL_REGISTRY
from repro.models import stroop


@pytest.fixture
def generators(monkeypatch):
    """Record the function names every new scalar generator lowers."""
    made = []
    original = PythonCodeGenerator.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if type(self) is PythonCodeGenerator:
            made.append(sorted(fn.name for fn in self.functions))

    monkeypatch.setattr(PythonCodeGenerator, "__init__", init)
    return made


def entry_names(model):
    return {fn.name for fn in reachable_functions(model.module, ENTRY_FUNCTION)}


def edit(composition):
    """An edit the incremental recompiler patches: a baked projection matrix
    when the model has one (re-lowers the receiver's node), else the
    termination condition (re-lowers the trial drivers)."""
    for projection in composition.projections:
        if projection.matrix is not None:
            projection.matrix = np.asarray(projection.matrix, dtype=float) * 0.5
            return
    composition.termination = cond.AfterNPasses(composition.max_passes - 1)


def assert_engines_agree(model, entry):
    """Every registered engine against ``ir-interp`` on ``model``: bitwise,
    except ``lane`` within :data:`LANE_RTOL` (numpy's transcendental kernels
    may differ from libm in the final ulp)."""
    inputs = entry.inputs()
    reference = raw_buffers(model, inputs, 1, 3, "ir-interp")
    for engine in list_engines():
        got = raw_buffers(model, inputs, 1, 3, engine)
        rtol = LANE_RTOL if engine == "lane" else 0.0
        assert buffers_equal(reference, got, rtol=rtol) is None, engine


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_every_engine_agrees_on_cold_hit_and_patched(tmp_path, name):
    entry = MODEL_REGISTRY[name]
    store = ArtifactStore(tmp_path / "store")
    cold = compile_composition(entry.build(), pipeline="default<O2>", store=store)
    hit = compile_composition(entry.build(), pipeline="default<O2>", store=store)
    patched = compile_composition(entry.build(), pipeline="default<O2>", store=False)
    try:
        assert hit.stats.artifact_hits == 1
        for model in (cold, hit):
            assert set(model._compiled) == entry_names(model)
        edited = entry.build()
        edit(edited)
        assert patched.recompile(composition=edited)["mode"] == "patched"
        for model in (cold, hit, patched):
            assert_engines_agree(model, entry)
    finally:
        for model in (cold, hit, patched):
            model.close_engines()


def test_compile_lowers_only_the_entry_set(generators):
    model = compile_composition(
        stroop.build_botvinick_stroop(), pipeline="default<O2>", store=False
    )
    assert generators == [["run_model", "run_pass"]]
    assert sorted(model._compiled) == ["run_model", "run_pass"]
    assert "def ir_node_" not in model.source
    assert model.rest_source is None


def test_store_hit_compiled_run_lowers_and_decodes_nothing(tmp_path, generators, monkeypatch):
    decodes = []
    original = serialize.decode_module
    monkeypatch.setattr(
        serialize, "decode_module", lambda data: decodes.append(1) or original(data)
    )
    store = ArtifactStore(tmp_path / "store")
    entry = MODEL_REGISTRY["predator_prey_s"]
    compile_composition(entry.build(), pipeline="default<O2>", store=store)
    del generators[:]
    hit = compile_composition(entry.build(), pipeline="default<O2>", store=store)
    hit.run(entry.inputs(), num_trials=2, seed=1)
    hit.run_batch([entry.inputs()] * 2, num_trials=1, seed=[1, 2])
    assert generators == []
    assert decodes == []
    # The first lookup outside the entry set decodes the module and lowers
    # the rest from it.
    hit.function(f"node_{hit.layout.execution_order[0]}")
    assert len(decodes) == 1 and len(generators) == 1


def test_first_lookup_lowers_the_rest_once(generators):
    model = compile_composition(
        stroop.build_botvinick_stroop(), pipeline="default<O2>", store=False
    )
    del generators[:]
    run_model = model.function("run_model")
    assert generators == []
    node = model.function("node_color_hidden")
    rest = sorted(fn.name for fn in model.module.defined_functions())
    rest = [name for name in rest if name not in ("run_model", "run_pass")]
    assert generators == [rest]
    assert model.function("node_color_hidden") is node
    model.function("node_word_hidden")
    model.function("run_trial")
    assert len(generators) == 1
    assert model.function("run_model") is run_model
    assert "def ir_node_color_hidden" in model.rest_source


def test_patch_lowers_the_reached_scope_and_defers_the_rest(generators):
    """A node edit lowers ``run_pass`` only: the receiver's node is inlined
    there, and the unchanged nodes the patched ``run_pass`` calls link to
    stubs that lower the rest on the first run."""
    entry = MODEL_REGISTRY["botvinick_stroop"]
    model = compile_composition(entry.build(), pipeline="default<O2>", store=False)
    edited = entry.build()
    edit(edited)
    del generators[:]
    report = model.recompile(composition=edited)
    assert report["mode"] == "patched"
    assert report["relowered"] == ["node_color_hidden"]
    assert generators == [["run_pass"]]
    assert "node_color_hidden" not in model._compiled
    model.run(entry.inputs(), num_trials=1)
    assert len(generators) == 2
    # Lowering the rest rebound the stubs: the patched pass calls the
    # lowered nodes directly from then on.
    linked = model.function("run_pass").__globals__
    assert linked["ir_node_word_hidden"] is model.function("node_word_hidden")
    model.run(entry.inputs(), num_trials=1)
    assert len(generators) == 2
    cold = compile_composition(edited, pipeline="default<O2>", store=False)
    try:
        for engine in ("compiled", "per-node"):
            a = raw_buffers(model, entry.inputs(), 2, 5, engine)
            b = raw_buffers(cold, entry.inputs(), 2, 5, engine)
            assert buffers_equal(a, b) is None, engine
    finally:
        model.close_engines()
        cold.close_engines()


def test_lane_workers_link_fallbacks_outside_the_entry_set(monkeypatch):
    """The lane pool's workers rebuild every scalar fallback the program
    links, including functions only the lazily lowered rest defines."""
    monkeypatch.delitem(lane_backend.LANE_INTRINSICS, "exp")
    model = compile_composition(
        stroop.build_botvinick_stroop(noise=0.01), pipeline="default<O2>", store=False
    )
    try:
        lane = model.engine_instance("lane")
        batch = [stroop.default_inputs("incongruent")] * 4
        serial = lane.run_batch(batch, num_trials=2, seed=[0, 1, 2, 3], workers=1)
        outside = set(lane.lane_fallbacks) - entry_names(model)
        assert outside, "expected a scalar fallback outside the entry set"
        assert model.rest_source is not None
        pooled = lane.run_batch(batch, num_trials=2, seed=[0, 1, 2, 3], workers=2)
        assert lane.pool_starts == 1
        for left, right in zip(serial, pooled):
            for a, b in zip(left.trials, right.trials):
                for node in a.outputs:
                    assert np.asarray(a.outputs[node]).tobytes() == np.asarray(
                        b.outputs[node]
                    ).tobytes(), node
    finally:
        model.close_engines()
