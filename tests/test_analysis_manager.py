"""Tests for the cached AnalysisManager and preserved-analyses invalidation.

Covers the three load-bearing guarantees:

* **Correctness** — for every registered model and every optimisation level,
  the IR produced with the caching manager is bitwise identical to a cold
  compile that recomputes every analysis per pass.
* **Staleness detection** — a pass that lies about its preserved analyses is
  caught (audit mode), and a pass that mutates while reporting "no change"
  is defeated by the mutation counter (stale results are never served).
* **The cost bound** — an O2 compile builds each function's dominator tree
  at most twice (cold + one post-simplifycfg rebuild round).
"""

import pytest

from repro.analysis.manager import (
    CFG_ANALYSES,
    AnalysisManager,
    PreservedAnalyses,
    coerce_preserved,
)
from repro.core.distill import compile_composition
from repro.errors import StaleAnalysisError
from repro.ir import IRBuilder, Module, verify_module
from repro.ir.instructions import BinaryOp, Branch
from repro.models.registry import MODEL_REGISTRY
from repro.passes import (
    DeadCodeElimination,
    DominatorTree,
    FixpointPass,
    FunctionPass,
    LoopInfo,
    Pass,
    PassManager,
    RepeatPass,
    SimplifyCFG,
)
from repro.driver.pipeline import parse_pipeline
from repro.driver.registry import pass_metadata, pass_preserves

from helpers import (
    build_alloca_function,
    build_branchy_function,
    build_loop_sum_function,
)


# ---------------------------------------------------------------------------
# Mutation counters
# ---------------------------------------------------------------------------


class TestMutationCounters:
    def test_builder_bumps_counters(self):
        m = Module("t")
        before_module = m.mutation_count
        fn = build_branchy_function(m)
        assert fn.mutation_count > 0
        assert m.mutation_count > before_module

    def test_erase_and_replace_bump(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        count = fn.mutation_count
        instr = next(i for i in fn.instructions() if i.opcode == "fmul")
        instr.replace_all_uses_with(fn.args[0])
        assert fn.mutation_count > count
        count = fn.mutation_count
        instr.erase()
        assert fn.mutation_count > count

    def test_detached_instruction_does_not_bump(self):
        m = Module("t")
        fn = build_branchy_function(m)
        count = fn.mutation_count
        # An instruction not attached to any block has no function to notify.
        from repro.ir.instructions import BinaryOp

        BinaryOp("fadd", fn.args[0], fn.args[1])
        assert fn.mutation_count == count

    def test_passes_bump_on_change(self):
        # Every builtin pass that reports a change must have moved the
        # counter — the manager's entire soundness story rests on this.
        m = Module("t")
        fn = build_alloca_function(m)
        count = fn.mutation_count
        from repro.passes import Mem2Reg

        assert Mem2Reg().run(m) is True
        assert fn.mutation_count > count

    def test_licm_bumps_on_hoist(self):
        from repro.passes import LoopInvariantCodeMotion

        m = Module("t")
        fn = build_loop_sum_function(m)
        count = fn.mutation_count
        assert LoopInvariantCodeMotion().run(m) is True
        assert fn.mutation_count > count

    def test_simplifycfg_bumps_on_unreachable_removal(self):
        m = Module("t")
        fn = build_branchy_function(m)
        # Rewire the entry around the conditional: then/else become dead.
        entry = fn.entry_block
        merge = fn.blocks[3]
        entry.terminator.erase()
        entry.append(Branch(merge))
        for phi in merge.phis():
            for pred in list(phi.incoming_blocks):
                phi.remove_incoming_block(pred)
        count = fn.mutation_count
        assert SimplifyCFG().run(m) is True
        assert fn.mutation_count > count
        assert len(fn.blocks) < 4


# ---------------------------------------------------------------------------
# PreservedAnalyses / registry metadata
# ---------------------------------------------------------------------------


class TestPreservedAnalyses:
    def test_shorthands(self):
        assert coerce_preserved("all").preserves("domtree")
        assert coerce_preserved("all").preserves("anything")
        assert not coerce_preserved("none").preserves("domtree")
        cfg = coerce_preserved("cfg")
        for name in CFG_ANALYSES:
            assert cfg.preserves(name)
        assert not cfg.preserves("vrp")
        assert coerce_preserved(("vrp",)).preserves("vrp")
        assert not coerce_preserved(None).preserves("domtree")

    def test_registry_exposes_preserves_metadata(self):
        assert pass_preserves("dce") == "cfg"
        assert pass_preserves("cse") == "cfg"
        assert pass_preserves("mem2reg") == "cfg"
        assert pass_preserves("licm") == "cfg"
        assert pass_preserves("constprop") == "cfg"
        assert pass_preserves("instcombine") == "cfg"
        assert pass_preserves("simplifycfg") == "none"
        assert pass_preserves("inline") == "none"
        meta = pass_metadata("dce")
        assert meta["name"] == "dce"
        assert meta["preserves"] == "cfg"
        assert meta["summary"]

    def test_registered_passes_notify_their_mutations(self):
        # The mutation-notify audit (repro.lint.audit): every registered
        # pass, run over a module that actually gives it work to do, must
        # bump the mutation counter whenever it restructures a function —
        # otherwise the cached manager would serve stale analyses.
        from repro.lint.audit import audit_registered_passes

        def factory():
            m = Module("audit")
            build_alloca_function(m)
            build_branchy_function(m)
            build_loop_sum_function(m)
            return m

        assert audit_registered_passes(factory, analysis_manager_factory=AnalysisManager) == []

    def test_mutation_audit_catches_notify_skipping_pass(self):
        from repro.lint.audit import audit_pass

        class SneakyDropBlock(Pass):
            """Deletes a block through raw list surgery, never notifying."""

            name = "sneaky"
            preserves = "all"

            def run(self, module, am=None):
                fn = module.defined_functions()[0]
                fn.blocks.pop()
                return False

        m = Module("audit")
        build_branchy_function(m)
        diags = audit_pass(SneakyDropBlock(), m)
        assert len(diags) == 1
        diag = diags[0]
        assert diag.check == "mutation-audit" and diag.severity == "error"
        assert "notify_mutation" in diag.message
        assert diag.function == "branchy"


# ---------------------------------------------------------------------------
# AnalysisManager caching behaviour
# ---------------------------------------------------------------------------


class TestManagerCaching:
    def test_hit_and_miss_counting(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        am = AnalysisManager()
        first = am.get(DominatorTree, fn)
        second = am.get("domtree", fn)
        assert first is second
        assert am.misses == 1 and am.hits == 1

    def test_loopinfo_reuses_cached_domtree(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        am = AnalysisManager()
        domtree = am.get(DominatorTree, fn)
        info = am.get(LoopInfo, fn)
        assert info.domtree is domtree
        assert am.computed == {"domtree": 1, "loopinfo": 1}

    def test_scev_uses_cached_subanalyses(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        am = AnalysisManager()
        scev = am.get("scev", fn)
        assert scev.loopinfo is am.get(LoopInfo, fn)
        assert am.computed["domtree"] == 1

    def test_intervals_snapshot_of_vrp(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        am = AnalysisManager()
        ranges = am.get("intervals", fn)
        assert isinstance(ranges, dict)
        assert am.computed["vrp"] == 1

    def test_mutation_invalidates_without_any_declaration(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        am = AnalysisManager()
        stale = am.get(DominatorTree, fn)
        b = IRBuilder(fn.entry_block)
        # Direct IR surgery outside any pass: insert before the terminator.
        fn.entry_block.insert(0, BinaryOp("fadd", fn.args[0], fn.args[1]))
        fresh = am.get(DominatorTree, fn)
        assert fresh is not stale
        assert am.cached(DominatorTree, fn) is fresh

    def test_disabled_manager_always_recomputes(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        am = AnalysisManager(enabled=False)
        a = am.get(DominatorTree, fn)
        b = am.get(DominatorTree, fn)
        assert a is not b
        assert am.hits == 0 and am.misses == 2

    def test_callgraph_module_analysis(self):
        from repro.ir import F64, FunctionType

        m = Module("t")
        callee = build_loop_sum_function(m, "callee")
        caller = m.add_function("caller", FunctionType(F64, [F64, F64]), ["x", "y"])
        b = IRBuilder(caller.append_block("entry"))
        b.ret(b.call(callee, [caller.args[0], caller.args[1]]))
        am = AnalysisManager()
        counts = am.get("callgraph", m)
        assert counts["callee"] == 1
        assert am.get("callgraph", m) is counts  # cached

    def test_unknown_analysis_rejected(self):
        am = AnalysisManager()
        with pytest.raises(KeyError):
            am.get("nope", Module("t"))


class TestPreservationSemantics:
    def test_dce_preserves_domtree_through_change(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        b = IRBuilder(fn.entry_block)
        # Plant dead code so DCE reports a change.
        fn.entry_block.insert(
            0, BinaryOp("fadd", fn.args[0], fn.args[1])
        )
        pm = PassManager([DeadCodeElimination()], verify="off")
        am = AnalysisManager()
        domtree = am.get(DominatorTree, fn)
        assert pm.run(m, am) is True
        # DCE changed the function (counter moved) but declared the CFG
        # analyses preserved: the very same tree is still served.
        assert am.get(DominatorTree, fn) is domtree

    def test_simplifycfg_invalidates_on_change(self):
        m = Module("t")
        fn = build_branchy_function(m)
        # A constant condition lets simplifycfg fold the branch.
        from repro.ir.values import const_bool

        term = fn.entry_block.terminator
        term.set_operand(0, const_bool(True))
        am = AnalysisManager()
        stale = am.get(DominatorTree, fn)
        pm = PassManager([SimplifyCFG()], verify="off")
        assert pm.run(m, am) is True
        fresh = am.get(DominatorTree, fn)
        assert fresh is not stale

    def test_clean_run_skips_next_visit(self):
        m = Module("t")
        build_loop_sum_function(m)
        am = AnalysisManager()
        dce = DeadCodeElimination()
        pm = PassManager([dce, dce], verify="off")
        pm.run(m, am)
        # First visit ran clean; second visit of the same function skipped.
        assert am.skipped_passes >= 1

    def test_mutated_function_not_skipped(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        am = AnalysisManager()
        dce = DeadCodeElimination()
        PassManager([dce], verify="off").run(m, am)
        skipped_before = am.skipped_passes
        fn.entry_block.insert(
            0, BinaryOp("fadd", fn.args[0], fn.args[1])
        )
        assert PassManager([dce], verify="off").run(m, am) is True
        assert am.skipped_passes == skipped_before

    def test_lying_changed_flag_defeated_by_counter(self):
        """A pass that mutates but reports False cannot poison the cache."""

        class MutatingLiar(FunctionPass):
            name = "liar"
            preserves = "all"

            def run_on_function(self, function, am=None):
                function.entry_block.insert(
                    0, BinaryOp("fadd", function.args[0], function.args[1])
                )
                return False  # lie

        m = Module("t")
        fn = build_loop_sum_function(m)
        am = AnalysisManager()
        stale = am.get(DominatorTree, fn)
        PassManager([MutatingLiar()], verify="off").run(m, am)
        # changed=False means no preserved-refresh happened; the mutation
        # counter forces a recompute instead of serving the stale tree.
        assert am.get(DominatorTree, fn) is not stale
        # ... and the lying clean-run record cannot cause a skip either.
        assert not am.should_skip(MutatingLiar(), fn)

    def test_lying_preserves_caught_in_audit_mode(self):
        """A CFG-mutating pass claiming preserves="all" raises in audit mode."""

        class CfgLiar(FunctionPass):
            name = "cfg-liar"
            preserves = "all"

            def run_on_function(self, function, am=None):
                if len(function.blocks) < 4:
                    return False
                entry = function.entry_block
                merge = function.blocks[3]
                entry.terminator.erase()
                entry.append(Branch(merge))
                for phi in merge.phis():
                    for pred in list(phi.incoming_blocks):
                        if pred is not entry:
                            phi.remove_incoming_block(pred)
                return True

        m = Module("t")
        fn = build_branchy_function(m)
        am = AnalysisManager(audit=True)
        am.get(DominatorTree, fn)  # populate the cache
        with pytest.raises(StaleAnalysisError):
            PassManager([CfgLiar()], verify="off").run(m, am)


# ---------------------------------------------------------------------------
# Pipeline-level behaviour: the per-pass run record and convergence
# ---------------------------------------------------------------------------


class _AlwaysChanges(Pass):
    """Alternately plants and removes dead code: never reaches a fixpoint."""

    name = "churn"
    preserves = "cfg"

    def run(self, module, am=None):
        for fn in module.defined_functions():
            fn.entry_block.insert(0, BinaryOp("fadd", fn.args[0], fn.args[1]))
        return True


class TestNestedPipelines:
    def test_repeat_timings_aggregated(self):
        m = Module("t")
        build_alloca_function(m)
        from repro.passes import Mem2Reg

        rp = RepeatPass(PassManager([Mem2Reg(), DeadCodeElimination()], verify="off"), 3)
        pm = PassManager([rp], verify="off")
        am = AnalysisManager()
        pm.run(m, am)
        # 3 iterations x 2 passes, credited to the leaf passes that did the
        # work; the repeat and the nested pipeline get no row of their own.
        assert set(am.passes) == {"mem2reg", "dce"}
        assert am.passes["mem2reg"]["runs"] == 3
        assert am.passes["dce"]["runs"] == 3
        for row in am.passes.values():
            assert row["changed"] + row["noops"] == row["runs"]
            assert row["seconds"] >= 0.0
        assert not hasattr(pm, "timings") and not hasattr(rp, "timings")

    def test_fixpoint_converged_flag_true(self):
        m = Module("t")
        build_alloca_function(m)
        from repro.passes import Mem2Reg

        fp = FixpointPass(PassManager([Mem2Reg(), DeadCodeElimination()], verify="off"), 10)
        PassManager([fp], verify="off").run(m)
        assert fp.converged is True
        assert 1 <= fp.iterations_run <= 10
        assert "# converged=True" in fp.describe(with_state=True)
        # The canonical description stays round-trippable.
        assert "#" not in fp.describe()

    def test_fixpoint_non_convergence_recorded(self):
        m = Module("t")
        build_loop_sum_function(m)
        fp = FixpointPass(_AlwaysChanges(), 3)
        pm = PassManager([fp], verify="off")
        pm.run(m)
        assert fp.converged is False
        assert fp.iterations_run == 3
        assert "# converged=False after 3 iteration(s)" in fp.describe(with_state=True)
        # ... and every changed round is on the analysis manager's record.
        am = AnalysisManager()
        pm.run(m, am)
        row = am.passes["churn"]
        assert (row["runs"], row["changed"], row["noops"]) == (3, 3, 0)

    def test_targeted_invalidate_clears_skip_records(self):
        """am.invalidate(fn) is the escape hatch for unobserved mutations:
        it must drop the clean-run skip records for fn, not just the caches."""
        m = Module("t")
        fn = build_loop_sum_function(m)
        am = AnalysisManager()
        dce = DeadCodeElimination()
        PassManager([dce], verify="off").run(m, am)
        assert am.should_skip(dce, fn)
        am.invalidate(fn)
        assert not am.should_skip(dce, fn)

    def test_compile_releases_manager_caches(self):
        """Session-memoized models must not pin the per-compile analysis
        caches: compile_composition clears the manager after the pipeline."""
        entry = MODEL_REGISTRY["predator_prey_s"]
        compiled = compile_composition(entry.build(), pipeline="default<O2>")
        assert not hasattr(compiled.pipeline, "analysis_manager")
        assert compiled.stats.analysis_hits > 0  # captured before the clear


#: (runs, changed) per pass of predator_prey_s compiled at default<O2>.
PREDATOR_PREY_S_O2_PASSES = {
    "inline": (1, 1),
    "simplifycfg": (4, 1),
    "mem2reg": (2, 0),
    "constprop": (3, 1),
    "dce": (3, 1),
    "cse": (2, 1),
    "instcombine": (1, 1),
    "licm": (1, 1),
}


def _runs_changed(stats):
    return {name: (row["runs"], row["changed"]) for name, row in stats.passes.items()}


def _compile_pp_s(**kwargs):
    entry = MODEL_REGISTRY["predator_prey_s"]
    kwargs.setdefault("store", False)
    return compile_composition(entry.build(), **kwargs)


class TestCompilePassRecord:
    """``CompileStats.passes``: one compile's leaf pass runs."""

    def test_predator_prey_s_o2_pinned(self):
        stats = _compile_pp_s(pipeline="default<O2>").stats
        assert _runs_changed(stats) == PREDATOR_PREY_S_O2_PASSES
        for row in stats.passes.values():
            assert row["changed"] + row["noops"] == row["runs"]
            assert row["seconds"] >= 0.0

    def test_shared_pipeline_keeps_each_compile_record(self):
        """Two compiles through one prebuilt pipeline object must not
        overwrite each other's record."""
        pipeline = parse_pipeline("default<O2>")
        first = _compile_pp_s(pipeline=pipeline)
        second = compile_composition(
            MODEL_REGISTRY["botvinick_stroop"].build(), pipeline=pipeline, store=False
        )
        assert _runs_changed(first.stats) == PREDATOR_PREY_S_O2_PASSES
        assert second.stats.passes and second.stats.passes is not first.stats.passes
        assert not hasattr(pipeline, "timings")

    def test_filled_without_analysis_cache(self):
        cold = _compile_pp_s(pipeline="default<O2>", flags={"analysis_cache": False})
        assert cold.stats.analysis_hits == 0
        assert _runs_changed(cold.stats) == PREDATOR_PREY_S_O2_PASSES

    def test_empty_on_store_hits(self, tmp_path):
        first = _compile_pp_s(pipeline="default<O2>", store=str(tmp_path))
        assert first.stats.passes
        # Model-entry hit: the whole compile is replayed from the store.
        replay = _compile_pp_s(pipeline="default<O2>", store=str(tmp_path))
        assert replay.stats.artifact_hits == 1 and replay.stats.passes == {}
        # Optimize-entry hit: same IR under another model key.
        sibling = _compile_pp_s(pipeline="default<O2>", seed=1, store=str(tmp_path))
        assert sibling.stats.artifact_misses == 1 and sibling.stats.artifact_hits == 1
        assert sibling.stats.passes == {}


# ---------------------------------------------------------------------------
# End-to-end: cached pipelines are bitwise equivalent to cold ones
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_cached_compile_ir_identical_to_cold(model_name):
    """For every registered model x O0-O3, printed IR after a cached-manager
    pipeline is bitwise identical to a cold no-cache pipeline."""
    entry = MODEL_REGISTRY[model_name]
    for opt_level in range(4):
        cached = compile_composition(entry.build(), pipeline=f"default<O{opt_level}>")
        cold = compile_composition(
            entry.build(),
            pipeline=f"default<O{opt_level}>",
            flags={"analysis_cache": False},
        )
        assert cached.print_ir() == cold.print_ir(), (model_name, opt_level)
        verify_module(cached.module)
        if opt_level >= 2:
            # O2/O3 have several domtree/loopinfo consumers; O1's only
            # consumer is mem2reg, so a cache hit is not guaranteed there.
            assert cached.stats.analysis_hits > 0, (model_name, opt_level)
        assert cold.stats.analysis_hits == 0


def test_o2_domtree_constructions_bounded():
    """An O2 compile builds each function's dominator tree at most twice:
    the cold build plus one rebuild after a simplifycfg round that changed
    the CFG."""
    entry = MODEL_REGISTRY["botvinick_stroop"]
    DominatorTree.construction_counts = {}
    try:
        compiled = compile_composition(entry.build(), pipeline="default<O2>")
        counts = dict(DominatorTree.construction_counts)
    finally:
        DominatorTree.construction_counts = None
    assert counts, "O2 must build dominator trees"
    offenders = {name: n for name, n in counts.items() if n > 2}
    assert not offenders, f"domtree rebuilt too often: {offenders}"
    assert compiled.stats.analysis_hits > 0


def test_compile_stats_expose_cache_counters():
    entry = MODEL_REGISTRY["predator_prey_s"]
    compiled = compile_composition(entry.build(), pipeline="default<O2>")
    stats = compiled.stats
    assert stats.analysis_hits > 0
    assert stats.analysis_misses > 0
    assert stats.analysis_skipped_passes > 0
    assert stats.analysis_computed["domtree"] >= 1
    # O0 runs no passes: the manager never engages.
    cold_o0 = compile_composition(entry.build(), pipeline="default<O0>")
    assert cold_o0.stats.analysis_hits == 0
    assert cold_o0.stats.analysis_misses == 0
