"""Figure 7 (scale) — mega-model compile scaling and incremental recompilation.

The scaling-workload generator (``repro.fuzz.gen.generate_scale_spec``) grows
layered models to hundreds of mechanisms.  ``test_edit_recompile_beats_full``
carries the CI ``bench`` job's incremental floor: on a generated
200-mechanism model, a single-value edit pushed through
``CompiledModel.recompile`` must cost less than 30% of the cold full
compile, for both the params-only path (buffer-loaded parameter, no
re-lowering) and the patched path (baked projection matrix, one compile unit
re-lowered).

Cold compile time against mechanism count is measured by perfbench's
``compile_scale`` workload (``python3 perfbench/run.py --workload
compile_scale``); the zero-stage warm artifact-store hit is pinned by
``tests/test_artifact_store.py``.
"""

import time

from repro.core.distill import compile_composition
from repro.fuzz.gen import generate_scale_spec, scale_edit_specs

#: The acceptance point from the evaluation: one edit on a 200-mechanism
#: model must recompile in under 30% of the cold full-compile time.
EDIT_POINT = 200
EDIT_BUDGET = 0.30


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
