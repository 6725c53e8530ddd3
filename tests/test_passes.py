"""Tests for the optimisation passes: unit behaviour plus differential checks
against the interpreter (the optimised program must compute the same values)."""

import math

import pytest

from repro.analysis.manager import AnalysisManager
from repro.backends.interp import Interpreter
from repro.ir import (
    F64,
    FunctionType,
    IRBuilder,
    Module,
    verify_module,
)
from repro.ir.instructions import Alloca, Load, Phi, Store
from repro.passes import (
    CommonSubexpressionElimination,
    ConstantPropagation,
    DeadCodeElimination,
    DominatorTree,
    Inliner,
    InstCombine,
    LoopInfo,
    LoopInvariantCodeMotion,
    Mem2Reg,
    PassManager,
    SimplifyCFG,
    build_standard_pipeline,
    clone_function,
)

from helpers import (
    build_affine_function,
    build_alloca_function,
    build_branchy_function,
    build_loop_sum_function,
)


def run_both(module_factory, fn_name, args_list, pipeline):
    """Interpret a function before and after optimisation; return both results."""
    before_module = module_factory()
    after_module = module_factory()
    verify_module(before_module)
    pipeline.run(after_module)
    verify_module(after_module)
    before = [Interpreter(before_module).call(fn_name, args) for args in args_list]
    after = [Interpreter(after_module).call(fn_name, args) for args in args_list]
    return before, after


SAMPLE_ARGS = [[0.0, 0.0], [1.0, 2.0], [-3.5, 4.25], [10.0, -0.5], [2.0, 3.0]]


class TestDominators:
    def test_entry_dominates_everything(self):
        m = Module("t")
        fn = build_branchy_function(m)
        dom = DominatorTree(fn)
        entry = fn.entry_block
        for block in fn.blocks:
            assert dom.dominates(entry, block)

    def test_branch_arms_do_not_dominate_merge(self):
        m = Module("t")
        fn = build_branchy_function(m)
        dom = DominatorTree(fn)
        then_block, else_block, merge = fn.blocks[1], fn.blocks[2], fn.blocks[3]
        assert not dom.dominates(then_block, merge)
        assert not dom.dominates(else_block, merge)
        assert dom.immediate_dominator(merge) is fn.entry_block

    def test_dominance_frontier_of_branch_arms_is_merge(self):
        m = Module("t")
        fn = build_branchy_function(m)
        dom = DominatorTree(fn)
        frontiers = dom.dominance_frontiers()
        merge = fn.blocks[3]
        assert merge in frontiers[fn.blocks[1]]
        assert merge in frontiers[fn.blocks[2]]

    def test_loop_header_frontier_contains_itself(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        dom = DominatorTree(fn)
        frontiers = dom.dominance_frontiers()
        loop = fn.blocks[1]
        assert loop in frontiers[loop]


class TestLoopInfo:
    def test_loop_detected(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        info = LoopInfo(fn)
        assert len(info.loops) == 1
        loop = info.loops[0]
        assert loop.header.name == "loop"
        assert loop.preheader(info.preds) is fn.entry_block
        assert [b.name for b in loop.exit_blocks()] == ["exit"]

    def test_no_loops_in_branchy(self):
        m = Module("t")
        fn = build_branchy_function(m)
        assert LoopInfo(fn).loops == []


class TestMem2Reg:
    def test_allocas_removed(self):
        m = Module("t")
        fn = build_alloca_function(m)
        assert any(isinstance(i, Alloca) for i in fn.instructions())
        changed = Mem2Reg().run(m)
        verify_module(m)
        assert changed
        assert not any(isinstance(i, (Alloca, Load, Store)) for i in fn.instructions())
        assert any(isinstance(i, Phi) for i in fn.instructions())

    def test_semantics_preserved(self):
        before, after = run_both(
            lambda: (lambda m: (build_alloca_function(m), m)[1])(Module("t")),
            "with_allocas",
            SAMPLE_ARGS,
            PassManager([Mem2Reg()]),
        )
        assert before == pytest.approx(after)

    def test_idempotent(self):
        m = Module("t")
        build_alloca_function(m)
        Mem2Reg().run(m)
        assert Mem2Reg().run(m) is False


class TestConstantPropagation:
    def test_folds_constants(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        t = b.fadd(b.f64(2.0), b.f64(3.0))
        u = b.fmul(t, fn.args[0])
        b.ret(u)
        ConstantPropagation().run(m)
        DeadCodeElimination().run(m)
        verify_module(m)
        # 2+3 folded away: only fmul and ret remain.
        assert fn.instruction_count() == 2

    def test_folds_intrinsics(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, []), [])
        b = IRBuilder(fn.append_block("entry"))
        b.ret(b.exp(b.f64(0.0)))
        ConstantPropagation().run(m)
        assert Interpreter(m).call("f", []) == pytest.approx(1.0)
        # The call must have been folded to a constant return.
        assert m.get_function("f").instruction_count() == 1

    def test_constant_branch_folded_by_simplifycfg(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        entry = fn.append_block("entry")
        a = fn.append_block("a")
        bb = fn.append_block("b")
        b = IRBuilder(entry)
        b.cond_br(b.true(), a, bb)
        b.position_at_end(a)
        b.ret(b.f64(1.0))
        b.position_at_end(bb)
        b.ret(b.f64(2.0))
        PassManager([ConstantPropagation(), SimplifyCFG()]).run(m)
        verify_module(m)
        assert len(fn.blocks) <= 2
        assert Interpreter(m).call("f", [0.0]) == pytest.approx(1.0)


class TestDCE:
    def test_removes_unused_pure_instructions(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        b.fadd(fn.args[0], b.f64(1.0))  # dead
        b.exp(fn.args[0])  # dead (pure intrinsic)
        live = b.fmul(fn.args[0], b.f64(2.0))
        b.ret(live)
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 2

    def test_keeps_stores_to_live_memory(self):
        m = Module("t")
        fn = build_alloca_function(m)
        count_before = fn.instruction_count()
        DeadCodeElimination().run(m)
        # loads feed the return value, so nothing may be removed
        assert fn.instruction_count() == count_before

    def test_removes_dead_alloca_and_its_stores(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        dead_slot = b.alloca(F64)
        b.store(fn.args[0], dead_slot)
        b.ret(fn.args[0])
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 1


class TestCSE:
    def test_duplicate_expressions_merged(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64, F64]), ["x", "y"])
        b = IRBuilder(fn.append_block("entry"))
        x, y = fn.args
        a = b.fadd(x, y)
        c = b.fadd(x, y)
        d = b.fmul(a, c)
        b.ret(d)
        CommonSubexpressionElimination().run(m)
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 3  # fadd, fmul, ret

    def test_commutative_operands_normalised(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64, F64]), ["x", "y"])
        b = IRBuilder(fn.append_block("entry"))
        x, y = fn.args
        a = b.fadd(x, y)
        c = b.fadd(y, x)
        b.ret(b.fmul(a, c))
        CommonSubexpressionElimination().run(m)
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 3

    def test_prng_calls_never_merged(self):
        from repro.ir import pointer

        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [pointer(F64)]), ["state"])
        b = IRBuilder(fn.append_block("entry"))
        r1 = b.rng_uniform(fn.args[0])
        r2 = b.rng_uniform(fn.args[0])
        b.ret(b.fadd(r1, r2))
        CommonSubexpressionElimination().run(m)
        calls = [i for i in fn.instructions() if i.opcode == "call"]
        assert len(calls) == 2


class TestLICM:
    def test_invariant_hoisted_to_preheader(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        loop_block = fn.blocks[1]
        before_in_loop = len(loop_block.instructions)
        LoopInvariantCodeMotion().run(m)
        verify_module(m)
        after_in_loop = len(loop_block.instructions)
        assert after_in_loop < before_in_loop
        # x*y, exp(x), and their sum are invariant: all moved to the entry block.
        assert len(fn.entry_block.instructions) >= 4

    def test_semantics_preserved(self):
        def factory():
            m = Module("t")
            build_loop_sum_function(m)
            return m

        before, after = run_both(
            factory, "loop_sum", SAMPLE_ARGS, PassManager([LoopInvariantCodeMotion()])
        )
        assert before == pytest.approx(after)


class TestInstCombine:
    def test_mul_by_one_removed(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        t = b.fmul(fn.args[0], b.f64(1.0))
        u = b.fsub(t, b.f64(0.0))
        b.ret(u)
        InstCombine().run(m)
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 1  # just ret x

    def test_fadd_zero_requires_fastmath(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        t = b.fadd(fn.args[0], b.f64(0.0))
        b.ret(t)
        InstCombine(allow_fast_math=False).run(m)
        assert fn.instruction_count() == 2  # not simplified
        InstCombine(allow_fast_math=True).run(m)
        DeadCodeElimination().run(m)
        assert fn.instruction_count() == 1


class TestInliner:
    def _build_caller_callee(self):
        m = Module("t")
        callee = build_affine_function(m, "callee")
        callee.attributes["alwaysinline"] = True
        caller = m.add_function("caller", FunctionType(F64, [F64, F64]), ["x", "y"])
        b = IRBuilder(caller.append_block("entry"))
        x, y = caller.args
        r1 = b.call(callee, [x, y])
        r2 = b.call(callee, [y, x])
        b.ret(b.fadd(r1, r2))
        return m

    def test_calls_inlined(self):
        m = self._build_caller_callee()
        Inliner().run(m)
        verify_module(m)
        caller = m.get_function("caller")
        assert not any(i.opcode == "call" for i in caller.instructions())

    def test_semantics_preserved(self):
        m_ref = self._build_caller_callee()
        m_opt = self._build_caller_callee()
        Inliner().run(m_opt)
        PassManager([SimplifyCFG(), ConstantPropagation(), DeadCodeElimination()]).run(m_opt)
        for args in SAMPLE_ARGS:
            assert Interpreter(m_ref).call("caller", args) == pytest.approx(
                Interpreter(m_opt).call("caller", args)
            )

    def test_recursive_function_not_inlined(self):
        m = Module("t")
        fn = m.add_function("rec", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        b.ret(b.call(fn, [fn.args[0]]))
        caller = m.add_function("caller", FunctionType(F64, [F64]), ["x"])
        b2 = IRBuilder(caller.append_block("entry"))
        b2.ret(b2.call(fn, [caller.args[0]]))
        Inliner(aggressive=True).run(m)
        # the call to the recursive function must remain
        assert any(i.opcode == "call" for i in caller.instructions())


class TestCloneFunction:
    def test_clone_produces_equal_results(self):
        m = Module("t")
        build_loop_sum_function(m)
        clone_function(m.get_function("loop_sum"), "loop_sum_copy", m)
        verify_module(m)
        for args in SAMPLE_ARGS:
            assert Interpreter(m).call("loop_sum", args) == pytest.approx(
                Interpreter(m).call("loop_sum_copy", args)
            )

    def test_clone_with_argument_binding(self):
        from repro.ir import const_float

        m = Module("t")
        fn = build_affine_function(m)
        bound = clone_function(
            fn, "affine_x2", m, arg_replacements={id(fn.args[0]): const_float(2.0)}
        )
        verify_module(m)
        assert Interpreter(m).call("affine_x2", [99.0, 5.0]) == pytest.approx(3 * 2.0 + 5.0 - 2.0)


class TestStandardPipelines:
    @pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
    def test_all_levels_preserve_semantics(self, opt_level):
        def factory():
            m = Module("t")
            build_affine_function(m)
            build_branchy_function(m)
            build_alloca_function(m)
            build_loop_sum_function(m)
            return m

        pm = build_standard_pipeline(opt_level)
        for fn_name in ("affine", "branchy", "with_allocas", "loop_sum"):
            before, after = run_both(factory, fn_name, SAMPLE_ARGS, pm)
            assert before == pytest.approx(after), fn_name

    def test_o2_reduces_instruction_count(self):
        m = Module("t")
        build_alloca_function(m)
        before = m.instruction_count()
        build_standard_pipeline(2).run(m)
        assert m.instruction_count() < before

    def test_pipeline_timings_recorded(self):
        m = Module("t")
        build_loop_sum_function(m)
        pm = build_standard_pipeline(2)
        am = AnalysisManager()
        pm.run(m, am)
        assert set(am.passes) == {p.name for p in pm.passes}
        assert sum(row["runs"] for row in am.passes.values()) == len(pm.passes)
        assert all(row["seconds"] >= 0.0 for row in am.passes.values())
        assert "mem2reg" in pm.describe()


class TestLinearityGuards:
    """Structural guards against the quadratic IR helpers coming back: they
    count work instead of timing it."""

    def test_inlining_leaves_unrelated_caller_blocks_untouched(self, monkeypatch):
        from repro.passes import inline as inline_module

        m = Module("t")
        callee = build_affine_function(m, "callee")
        caller = m.add_function("caller", FunctionType(F64, [F64, F64]), ["x", "y"])
        x, y = caller.args
        entry = caller.append_block("entry")
        left, right, join = (caller.append_block(n) for n in ("left", "right", "join"))
        b = IRBuilder(entry)
        call = b.call(callee, [x, y])
        b.cond_br(b.fcmp("olt", call, x), left, right)
        b.position_at_end(left)
        a = b.fadd(x, b.f64(1.0))
        b.br(join)
        b.position_at_end(right)
        c = b.fmul(y, b.f64(2.0))
        b.br(join)
        b.position_at_end(join)
        phi = b.phi(F64, "p")
        phi.add_incoming(a, left)
        phi.add_incoming(c, right)
        b.ret(b.fadd(phi, x))

        unrelated = [left, right, join]
        lists_before = [
            (id(instr.operands), list(instr.operands))
            for block in unrelated
            for instr in block.instructions
        ]
        edges_before = (id(phi.incoming_blocks), id(left.terminator.targets))
        patched = []
        original = inline_module._patch_forward_references

        def spy(blocks, vmap):
            patched.extend(blocks)
            return original(blocks, vmap)

        monkeypatch.setattr(inline_module, "_patch_forward_references", spy)
        Inliner.inline_call(call)
        verify_module(m)

        assert patched and all(block.name.startswith("inl.callee") for block in patched)
        assert [
            (id(instr.operands), list(instr.operands))
            for block in unrelated
            for instr in block.instructions
        ] == lists_before
        assert (id(phi.incoming_blocks), id(left.terminator.targets)) == edges_before

    #: Printed by the restart-after-every-merge algorithm this pass replaced
    #: (the order of the merged heads follows the shuffled block list).
    SHUFFLED_CHAIN_GOLDEN = """\
define i64 @chain(i64 %x) {
entry:
  %v0 = add i64 %x, 0
  %v50 = add i64 %v0, 50
  %v100 = add i64 %v50, 100
  %t124 = icmp slt i64 %v100, 1000
  br %t124, label %c125, label %early
c375:
  %v400 = add i64 %v350, 400
  %v450 = add i64 %v400, 450
  ret i64 %v450
c125:
  %v150 = add i64 %v100, 150
  %v200 = add i64 %v150, 200
  %t249 = icmp slt i64 %v200, 1000
  br %t249, label %c250, label %early
c250:
  %v250 = add i64 %v200, 250
  %v300 = add i64 %v250, 300
  %v350 = add i64 %v300, 350
  %t374 = icmp slt i64 %v350, 1000
  br %t374, label %c375, label %early
early:
  %early_v = phi i64 [ %v100, %entry ], [ %v200, %c125 ], [ %v350, %c250 ]
  ret i64 %early_v
}"""

    @staticmethod
    def _shuffled_chain(n=500):
        """A 500-block chain (an add every 50 blocks, an early exit every
        125) whose blocks are listed in shuffled order."""
        import random

        from repro.ir import I64

        module = Module("chain")
        fn = module.add_function("chain", FunctionType(I64, [I64]), ["x"])
        entry = fn.append_block("entry")
        chain = [fn.append_block(f"c{k}") for k in range(n)]
        early = fn.append_block("early")
        IRBuilder(entry).br(chain[0])
        exit_phi = IRBuilder(early).phi(I64, "early_v")
        value = fn.args[0]
        for k, block in enumerate(chain):
            b = IRBuilder(block)
            if k % 50 == 0:
                value = b.add(value, b.i64(k), f"v{k}")
            if k == n - 1:
                b.ret(value)
            elif k % 125 == 124:
                b.cond_br(b.icmp("slt", value, b.i64(1000), f"t{k}"), chain[k + 1], early)
                exit_phi.add_incoming(value, block)
            else:
                b.br(chain[k + 1])
        IRBuilder(early).ret(exit_phi)
        random.Random(0).shuffle(chain)
        fn.blocks = [entry] + chain + [early]
        return module, fn

    def test_simplifycfg_merges_a_shuffled_chain_without_predecessor_scans(self, monkeypatch):
        from repro.ir.module import BasicBlock
        from repro.ir.printer import print_function

        module, fn = self._shuffled_chain()
        calls = []
        original = BasicBlock.predecessors

        def counting(block):
            calls.append(block)
            return original(block)

        monkeypatch.setattr(BasicBlock, "predecessors", counting)
        assert SimplifyCFG().run(module)
        verify_module(module)
        assert calls == []
        assert print_function(fn) == self.SHUFFLED_CHAIN_GOLDEN
