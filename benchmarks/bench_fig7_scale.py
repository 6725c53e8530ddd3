"""Figure 7 (scale) — mega-model compile scaling, warm start and incremental recompilation.

The scaling-workload generator (``repro.fuzz.gen.generate_scale_spec``) grows
layered models to hundreds of mechanisms.  Two floors of the CI ``bench`` job
live here, both on a generated 200-mechanism model:

* ``test_edit_recompile_beats_full`` — a single-value edit pushed through
  ``CompiledModel.recompile`` must cost less than 30% of the cold full
  compile, for both the params-only path (buffer-loaded parameter, no
  re-lowering) and the patched path (baked projection matrix, one compile
  unit re-lowered);
* ``test_store_hit_is_near_free`` — a model-entry artifact-store hit must
  cost at most 10% of the cold compile that wrote the entry, and a
  ``compiled`` run of the hit model must not decode the stored IR.

Cold compile time against mechanism count is measured by perfbench's
``compile_scale`` workload (``python3 perfbench/run.py --workload
compile_scale``); the zero-stage warm artifact-store hit is pinned by
``tests/test_artifact_store.py``.
"""

import time

from repro.core.distill import compile_composition
from repro.driver.artifacts import ArtifactStore
from repro.fuzz.gen import generate_scale_spec, scale_edit_specs
from repro.ir import serialize

#: The acceptance point from the evaluation: one edit on a 200-mechanism
#: model must recompile in under 30% of the cold full-compile time.
EDIT_POINT = 200
EDIT_BUDGET = 0.30
#: A model-entry store hit of the same model may take at most this share of
#: its cold compile (the hit execs stored bytecode and leaves the IR encoded).
HIT_BUDGET = 0.10


def bench_scale_compile_200(benchmark):
    composition = generate_scale_spec(7, n_mechanisms=EDIT_POINT).build()
    benchmark(
        lambda: compile_composition(
            composition, pipeline="default<O2>", store=False
        )
    )


def test_edit_recompile_beats_full():
    spec = generate_scale_spec(7, n_mechanisms=EDIT_POINT)
    started = time.perf_counter()
    compiled = compile_composition(spec.build(), pipeline="default<O2>", store=False)
    full_seconds = time.perf_counter() - started
    try:
        (param_edit, _), (proj_edit, receiver) = scale_edit_specs(spec)

        started = time.perf_counter()
        report = compiled.recompile(composition=param_edit.build(), store=False)
        param_seconds = time.perf_counter() - started
        assert report["mode"] == "params-only", report
        assert not report["relowered"]

        started = time.perf_counter()
        report = compiled.recompile(composition=proj_edit.build(), store=False)
        patch_seconds = time.perf_counter() - started
        assert report["mode"] == "patched", report
        assert report["relowered"] == [f"node_{receiver}"]
        assert compiled.stats.artifact_patches >= 1

        assert param_seconds < full_seconds * EDIT_BUDGET, (
            f"params-only recompile took {param_seconds:.2f}s vs "
            f"{full_seconds:.2f}s full ({param_seconds / full_seconds:.0%})"
        )
        assert patch_seconds < full_seconds * EDIT_BUDGET, (
            f"patched recompile took {patch_seconds:.2f}s vs "
            f"{full_seconds:.2f}s full ({patch_seconds / full_seconds:.0%})"
        )
    finally:
        compiled.close_engines()


def test_store_hit_is_near_free(tmp_path, monkeypatch):
    spec = generate_scale_spec(7, n_mechanisms=EDIT_POINT)
    store = ArtifactStore(tmp_path / "store")
    composition = spec.build()
    started = time.perf_counter()
    compile_composition(composition, pipeline="default<O2>", store=store).close_engines()
    cold_seconds = time.perf_counter() - started

    decode_module = serialize.decode_module
    decodes = []

    def counting_decode(data):
        decodes.append(None)
        return decode_module(data)

    monkeypatch.setattr(serialize, "decode_module", counting_decode)
    composition = spec.build()
    started = time.perf_counter()
    hit = compile_composition(composition, pipeline="default<O2>", store=store)
    hit_seconds = time.perf_counter() - started
    try:
        assert hit.stats.artifact_hits == 1
        hit.run(spec.inputs, num_trials=spec.num_trials, seed=spec.run_seed)
        assert not decodes, "a compiled run of a store-hit model decoded its IR"
        assert hit_seconds <= cold_seconds * HIT_BUDGET, (
            f"store hit took {hit_seconds:.3f}s vs {cold_seconds:.2f}s cold "
            f"({hit_seconds / cold_seconds:.1%})"
        )
    finally:
        hit.close_engines()
