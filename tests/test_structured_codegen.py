"""Structured-control-flow codegen (relooper) + frame planner tests.

Covers the PR-5 emitter rewrite:

* golden shape — loop-bearing registered models compile to native Python
  loops/conditionals with no ``_block`` dispatch ladder;
* the one instruction dialect — every instruction form, lowered by the
  structured emitter, matches the IR interpreter;
* irreducible CFGs — ``compiled`` refuses them with a ``CompilationError``,
  ``ir-interp`` still runs them;
* a long straight chain — a 300-mechanism model at O0 lowers structurally
  (the walk iterates along a chain instead of recursing);
* the frame planner — liveness-coalesced alloca slots and per-iteration
  re-zeroing semantics;
* phi-edge parallel copies, constant pooling, the memoized GEP helpers and
  the ``__slots__`` satellite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import runtime
from repro.backends.interp import Interpreter
from repro.backends.lane import compile_lane_program
from repro.backends.pycodegen import PythonCodeGenerator, _StructuredFunction
from repro.core.distill import compile_composition
from repro.errors import CompilationError
from repro.fuzz.compare import buffers_equal, raw_buffers
from repro.fuzz.gen import generate_scale_spec
from repro.ir import (
    F64,
    I32,
    I64,
    ArrayType,
    FunctionType,
    IRBuilder,
    Module,
    StructType,
    pointer,
)
from repro.ir.instructions import FCMP_PREDICATES
from repro.ir.verifier import verify_module
from repro.models import MODEL_REGISTRY


# ---------------------------------------------------------------------------
# IR builders
# ---------------------------------------------------------------------------


def build_irreducible_function(module: Module, name: str = "irr"):
    """A two-entry cycle (A <-> B, both reachable from entry): irreducible."""
    fn = module.add_function(name, FunctionType(F64, [F64]), ["x"])
    entry = fn.append_block("entry")
    a = fn.append_block("a")
    b_blk = fn.append_block("b")
    exit_blk = fn.append_block("exit")

    b = IRBuilder(entry)
    x = fn.args[0]
    cell = b.alloca(F64, "cell")
    b.store(b.f64(0.0), cell)
    b.cond_br(b.fcmp("ogt", x, b.f64(0.0)), a, b_blk)

    b.position_at_end(a)
    v = b.load(cell)
    v1 = b.fadd(v, b.f64(1.0))
    b.store(v1, cell)
    b.cond_br(b.fcmp("olt", v1, b.f64(5.0)), b_blk, exit_blk)

    b.position_at_end(b_blk)
    w = b.load(cell)
    w1 = b.fadd(w, b.f64(2.0))
    b.store(w1, cell)
    b.cond_br(b.fcmp("olt", w1, b.f64(8.0)), a, exit_blk)

    b.position_at_end(exit_blk)
    b.ret(b.load(cell))
    return fn


def build_loop_alloca_function(module: Module, name: str = "loop_alloca"):
    """An alloca *inside* a loop: every iteration must observe fresh zeros.

    Returns ``n`` iff each iteration's scratch slot starts at 0.0 (a stale
    frame slot would accumulate and return n*(n+1)/2 instead).
    """
    fn = module.add_function(name, FunctionType(F64, [I64]), ["n"])
    entry = fn.append_block("entry")
    loop = fn.append_block("loop")
    exit_blk = fn.append_block("exit")

    b = IRBuilder(entry)
    (n,) = fn.args
    total = b.alloca(F64, "total")
    b.store(b.f64(0.0), total)
    b.br(loop)

    b.position_at_end(loop)
    i = b.phi(I64, "i")
    scratch = b.alloca(F64, "scratch")
    sv = b.load(scratch)
    stepped = b.fadd(sv, b.f64(1.0))
    b.store(stepped, scratch)
    tv = b.load(total)
    b.store(b.fadd(tv, stepped), total)
    i_next = b.add(i, b.i64(1))
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(i_next, loop)
    b.cond_br(b.icmp("slt", i_next, n), loop, exit_blk)

    b.position_at_end(exit_blk)
    b.ret(b.load(total))
    return fn


def build_phi_swap_function(module: Module, name: str = "phi_swap"):
    """Two loop phis that swap on every back edge (parallel-copy semantics)."""
    fn = module.add_function(name, FunctionType(F64, [I64]), ["n"])
    entry = fn.append_block("entry")
    loop = fn.append_block("loop")
    exit_blk = fn.append_block("exit")

    b = IRBuilder(entry)
    (n,) = fn.args
    b.br(loop)

    b.position_at_end(loop)
    a = b.phi(F64, "a")
    c = b.phi(F64, "c")
    i = b.phi(I64, "i")
    i_next = b.add(i, b.i64(1))
    a.add_incoming(b.f64(1.0), entry)
    a.add_incoming(c, loop)  # swap
    c.add_incoming(b.f64(2.0), entry)
    c.add_incoming(a, loop)  # swap
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(i_next, loop)
    b.cond_br(b.icmp("slt", i_next, n), loop, exit_blk)

    b.position_at_end(exit_blk)
    b.ret(b.fsub(a, b.fmul(b.f64(10.0), c)))
    return fn


def build_disjoint_allocas_function(module: Module, name: str = "disjoint"):
    """Two 4-slot allocas with disjoint live ranges (coalescable)."""
    fn = module.add_function(name, FunctionType(F64, [F64]), ["x"])
    entry = fn.append_block("entry")
    b = IRBuilder(entry)
    (x,) = fn.args
    first = b.alloca(ArrayType(F64, 4), "first")
    p0 = b.gep(first, [b.i64(0), b.i64(1)])
    b.store(b.fmul(x, x), p0)
    v = b.load(p0)
    second = b.alloca(ArrayType(F64, 4), "second")
    p1 = b.gep(second, [b.i64(0), b.i64(2)])
    b.store(b.fadd(v, b.f64(1.0)), p1)
    b.ret(b.load(p1))
    return fn


#: Output slots of the dialect payload: ``out`` holds the rng state
#: (key, counter) then float results, ``iout`` the integer results.
DIALECT_F64_SLOTS = 10
DIALECT_I64_SLOTS = 15


def _emit_dialect(b: IRBuilder, args) -> None:
    x, out, iout = args
    f_slots = iter(range(2, DIALECT_F64_SLOTS))
    i_slots = iter(range(DIALECT_I64_SLOTS))

    def put(value):
        b.store(value, b.gep(out, [b.i64(0), b.i64(next(f_slots))]))

    def put_int(value):
        b.store(value, b.gep(iout, [b.i64(0), b.i64(next(i_slots))]))

    for predicate in FCMP_PREDICATES:
        put_int(b.zext(b.fcmp(predicate, x, b.f64(1.0))))
    n = b.fptosi(b.fmul(x, b.f64(3.0)))
    put_int(b.zext(b.icmp("slt", n, b.i64(1))))
    put_int(b.zext(b.icmp("eq", n, b.i64(3))))
    put_int(b.sdiv(n, b.i64(-4)))
    put_int(b.srem(n, b.i64(4)))
    put_int(b.fptosi(b.f64(float("nan"))))
    put_int(b.fptosi(b.fdiv(x, x)))  # NaN at x == 0
    put_int(b.zext(b.trunc(b.add(n, b.i64(2**33 + 5)), I32)))
    put(b.frem(x, b.f64(0.75)))
    put(b.select(b.fcmp("olt", x, b.f64(1.0)), x, b.fmul(x, b.f64(2.0))))
    state = b.gep(out, [b.i64(0), b.i64(0)])
    put(b.rng_uniform(state))
    put(b.rng_normal(state))
    put(b.exp(b.fmul(x, b.f64(1000.0))))  # overflows to inf for x > 0
    put(b.exp(b.f64(1000.0)))
    put(b.log(b.f64(0.0)))
    put(b.sqrt(b.f64(-1.0)))


#: ``(extra params, emit)``: straight-line code using every FCmp predicate,
#: ``frem``/``sdiv``/``srem``, ``select``, ``fptosi``/``trunc``, both PRNG
#: draws and the guarded intrinsics, storing each result to ``out``/``iout``.
DIALECT_PAYLOAD = (
    [("out", pointer(ArrayType(F64, DIALECT_F64_SLOTS))),
     ("iout", pointer(ArrayType(I64, DIALECT_I64_SLOTS)))],
    _emit_dialect,
)


def build_dialect_function(module: Module, name: str = "dialect"):
    """A reducible function running :data:`DIALECT_PAYLOAD` in its entry
    block, then a conditional so the payload's values cross a merge."""
    params, emit = DIALECT_PAYLOAD
    fn = module.add_function(
        name,
        FunctionType(F64, [F64] + [ty for _, ty in params]),
        ["x"] + [pname for pname, _ in params],
    )
    entry = fn.append_block("entry")
    neg = fn.append_block("neg")
    done = fn.append_block("done")
    b = IRBuilder(entry)
    x = fn.args[0]
    emit(b, fn.args)
    b.cond_br(b.fcmp("olt", x, b.f64(0.0)), neg, done)
    b.position_at_end(neg)
    flipped = b.fneg(x)
    b.br(done)
    b.position_at_end(done)
    result = b.phi(F64, "result")
    result.add_incoming(x, entry)
    result.add_incoming(flipped, neg)
    b.ret(result)
    return fn


# ---------------------------------------------------------------------------
# Golden shape: loops and conditionals come back as native Python
# ---------------------------------------------------------------------------


#: Loop-bearing registered models -> whether their source is also checked
#: for the native ``while``/``continue``/``break`` loop shape.
LOOP_MODELS = {
    "predator_prey_s": True,
    "vectorized_necker_cube": False,
    "necker_cube_m": False,
    "botvinick_stroop": True,
}


class TestGoldenShape:
    @pytest.mark.parametrize("model", sorted(LOOP_MODELS))
    def test_loop_models_have_no_dispatch_ladder(self, model):
        entry = MODEL_REGISTRY[model]
        compiled = compile_composition(entry.build(), pipeline="default<O2>", store=False)
        source = PythonCodeGenerator(compiled.module).generate_source()
        assert "_block" not in source
        if LOOP_MODELS[model]:
            # The model's pass/grid loops come back as native Python loops.
            assert "while True:" in source
            assert "continue" in source and "break" in source

    def test_constant_pool_and_frame_in_source(self):
        module = Module("pool")
        fn = module.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        (x,) = fn.args
        # A long-mantissa constant used twice and a NaN: both pool.
        k = 0.30000000000000004
        v = b.fadd(b.fmul(x, b.f64(k)), b.f64(k))
        v = b.fadd(v, b.f64(float("nan")))
        slot = b.alloca(F64, "slot")
        b.store(v, slot)
        b.ret(b.load(slot))
        verify_module(module)
        gen = PythonCodeGenerator(module)
        source = gen.generate_source()
        assert "def _distill_module():" in source
        assert "_c0 = 0.30000000000000004" in source
        assert source.count("0.30000000000000004") == 1  # pooled, not repeated
        assert "= _f64(0x7ff8000000000000)" in source  # pooled, rebuilt from its bits
        assert "_frame = [0.0] * 1" in source
        compiled = gen.compile()
        result = compiled["f"](2.0)
        assert result != result  # NaN propagated


# ---------------------------------------------------------------------------
# The one instruction dialect, against the interpreter
# ---------------------------------------------------------------------------


class TestInstructionDialect:
    def test_dialect_matches_interpreter(self):
        """Every instruction form of the scalar dialect, lowered by the
        structured emitter, checked against the IR interpreter."""
        module = Module("dialect")
        build_dialect_function(module)
        verify_module(module)
        gen = PythonCodeGenerator(module)
        assert "_block" not in gen.generate_source()
        compiled = gen.compile()
        interp = Interpreter(module)
        for x in (-2.5, -1.0, 0.0, 0.5, 1.0, 2.0, float("nan")):
            results = []
            for run in (compiled["dialect"], lambda *args: interp.call("dialect", list(args))):
                out = [0.0] * DIALECT_F64_SLOTS
                out[0], out[1] = 12345.0, 7.0  # rng state: key, counter
                iout = [0] * DIALECT_I64_SLOTS
                value = run(x, (out, 0), (iout, 0))
                results.append(([value] + out, iout))
            (got, got_int), (want, want_int) = results
            assert buffers_equal((got, got_int, []), (want, want_int, [])) is None, x
            assert got[2] == want[2] and got[2] != 0.0  # the counter moved


# ---------------------------------------------------------------------------
# Irreducible CFGs: refused by ``compiled``, run by ``ir-interp``
# ---------------------------------------------------------------------------


class TestIrreducibleFallback:
    def test_fallback_is_taken_and_correct(self):
        """The one fallback for IR the relooper cannot express is the
        ``ir-interp`` engine: the Python lowering refuses the module, with
        or without the sanitizer, and the interpreter runs it."""
        module = Module("irr")
        build_irreducible_function(module)
        build_loop_alloca_function(module)
        verify_module(module)
        for sanitize in (False, True):
            with pytest.raises(CompilationError, match=r"@irr: irreducible CFG in @irr"):
                PythonCodeGenerator(module, sanitize=sanitize).generate_source()
        interp = Interpreter(module)
        # From x > 0 the cycle is entered at ``a``, otherwise at ``b``.
        assert [interp.call("irr", [x]) for x in (-1.0, 0.0, 1.0, 3.5)] == [
            6.0, 6.0, 7.0, 7.0,
        ]

    def test_is_reducible_queries(self):
        from repro.ir.cfg import back_edges, is_reducible
        from repro.passes.dominators import DominatorTree

        module = Module("q")
        irr = build_irreducible_function(module)
        red = build_loop_alloca_function(module)
        assert not is_reducible(irr)
        assert is_reducible(red)
        domtree = DominatorTree(red)
        edges = back_edges(red, domtree)
        assert len(edges) == 1
        tail, head = edges[0]
        assert head.name == "loop"


# ---------------------------------------------------------------------------
# A long straight chain lowers structurally
# ---------------------------------------------------------------------------


class TestLongChain:
    def test_scale_300_at_o0_lowers_structurally(self):
        """``run_pass`` of a 300-mechanism model at O0 is one straight chain
        of ~600 blocks nested 5 deep; the walk iterates along the chain, so
        its length does not count as nesting."""
        spec = generate_scale_spec(0, n_mechanisms=300)
        compiled = compile_composition(spec.build(), pipeline="default<O0>", store=False)
        try:
            assert "_block" not in compiled.source
            mismatch = buffers_equal(
                raw_buffers(compiled, spec.inputs, 1, spec.run_seed, "compiled"),
                raw_buffers(compiled, spec.inputs, 1, spec.run_seed, "ir-interp"),
            )
            assert mismatch is None, mismatch
        finally:
            compiled.close_engines()


# ---------------------------------------------------------------------------
# Frame planner
# ---------------------------------------------------------------------------


class TestFramePlanner:
    def test_in_loop_alloca_rezeroed_each_iteration(self):
        module = Module("fz")
        build_loop_alloca_function(module)
        verify_module(module)
        gen = PythonCodeGenerator(module)
        compiled = gen.compile()
        interp = Interpreter(module)
        for n in (1, 3, 7):
            expected = interp.call("loop_alloca", [n])
            assert expected == float(n)  # fresh zeros per iteration
            assert compiled["loop_alloca"](n) == expected

    def test_disjoint_allocas_share_frame_slots(self):
        module = Module("co")
        fn = build_disjoint_allocas_function(module)
        verify_module(module)
        gen = PythonCodeGenerator(module)
        emitter = _StructuredFunction(gen, fn)
        # Two 4-slot allocas with disjoint live ranges share one range.
        assert emitter.frame_size == 4
        compiled = PythonCodeGenerator(module).compile()
        interp = Interpreter(module)
        for x in (0.0, 2.0, -3.0):
            assert compiled["disjoint"](x) == interp.call("disjoint", [x])

    def test_struct_gep_chain_folds_to_constant_offsets(self):
        module = Module("gep")
        struct = StructType("pair", [("a", F64), ("b", ArrayType(F64, 3))])
        module.add_struct(struct)
        from repro.ir import pointer

        fn = module.add_function("pick", FunctionType(F64, [pointer(struct)]), ["p"])
        b = IRBuilder(fn.append_block("entry"))
        (p,) = fn.args
        b_field = b.gep(p, [b.i64(0), b.i64(1)])
        elem = b.gep(b_field, [b.i64(0), b.i64(2)])
        b.ret(b.load(elem))
        verify_module(module)
        gen = PythonCodeGenerator(module)
        source = gen.generate_source()
        # No GEP materialisation: the load reads straight through the folded
        # constant offset (argument base offset + 3).
        assert "_off = " not in source.split("def ir_pick")[1].split("return")[0].replace(
            "v1_buf, v1_off = v1", ""
        )
        compiled = gen.compile()
        buffer = [10.0, 20.0, 30.0, 40.0]
        assert compiled["pick"]((buffer, 0)) == 40.0
        assert compiled["pick"](([0.0] + buffer, 1)) == 40.0  # nonzero base offset


# ---------------------------------------------------------------------------
# Phi-edge parallel copies
# ---------------------------------------------------------------------------


class TestFloatCompares:
    def test_every_predicate_matches_interpreter_on_nan(self):
        """Structured and lane code agree with the IR semantics, where
        ``one`` is False for a NaN operand (Python's ``!=`` is True)."""
        module = Module("fcmp")
        for predicate in FCMP_PREDICATES:
            fn = module.add_function(predicate, FunctionType(I64, [F64, F64]), ["x", "y"])
            b = IRBuilder(fn.append_block("entry"))
            b.ret(b.zext(b.fcmp(predicate, fn.args[0], fn.args[1])))
        verify_module(module)
        scalar = PythonCodeGenerator(module).compile()
        lane = compile_lane_program(module, scalar.__getitem__)
        interp = Interpreter(module)
        nan = float("nan")
        xs, ys = [nan, 1.0, nan, 1.0, 2.0], [1.0, nan, nan, 1.0, 1.0]
        for predicate in FCMP_PREDICATES:
            want = [interp.call(predicate, [x, y]) for x, y in zip(xs, ys)]
            assert [scalar[predicate](x, y) for x, y in zip(xs, ys)] == want, predicate
            got = lane.functions[predicate](
                np.array(xs), np.array(ys), np.ones(len(xs), dtype=bool)
            )
            assert np.asarray(got).tolist() == want, predicate


class TestPhiCopies:
    def test_swapping_phis_keep_parallel_semantics(self):
        module = Module("swap")
        build_phi_swap_function(module)
        verify_module(module)
        gen = PythonCodeGenerator(module)
        source = gen.generate_source()
        compiled = gen.compile()
        interp = Interpreter(module)
        for n in (1, 2, 3, 6):
            assert compiled["phi_swap"](n) == interp.call("phi_swap", [n])
        # The back edge uses one parallel multiple-assignment, not the
        # legacy _phi temporary dance.
        assert "_phi0" not in source


# ---------------------------------------------------------------------------
# Satellites: memoized GEP helpers, __slots__
# ---------------------------------------------------------------------------


class TestRuntimeMemoization:
    def test_gep_offset_memoized(self):
        struct = StructType("mem_s", [("a", F64), ("b", ArrayType(F64, 5)), ("c", F64)])
        first = runtime.gep_offset(struct, (0, 1, 3))
        assert first == 4
        entry = runtime._GEP_OFFSET_CACHE[id(struct)]
        assert entry[0] is struct and entry[1][(0, 1, 3)] == 4
        assert runtime.gep_offset(struct, [0, 1, 3]) == 4  # list spelling hits too
        assert runtime.gep_offset(struct, (1, 2)) == 7 + 6

    def test_gep_strides_memoized(self):
        arr = ArrayType(ArrayType(F64, 3), 4)
        first = runtime.gep_strides(arr, 2)
        assert first == [(12, 0), (3, 0)]
        assert runtime.gep_strides(arr, 2) is first

    def test_memoized_offsets_match_interpreter_execution(self):
        module = Module("memo")
        build_disjoint_allocas_function(module, "d")
        verify_module(module)
        interp = Interpreter(module)
        assert interp.call("d", [3.0]) == 10.0


class TestSlots:
    def test_values_and_instructions_have_no_dict(self):
        from repro.ir.instructions import BinaryOp, Phi
        from repro.ir.values import Argument, const_float

        c = const_float(1.5)
        add = BinaryOp("fadd", c, const_float(2.0))
        phi = Phi(F64, "p")
        arg = Argument(F64, "x", 0)
        for obj in (c, add, phi, arg):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        # The metadata escape hatch still works.
        add.metadata["source_node"] = "n"
        assert add.metadata["source_node"] == "n"

    def test_whole_suite_ir_builds_under_slots(self):
        entry = MODEL_REGISTRY["necker_cube_s"]
        compiled = compile_composition(entry.build(), pipeline="default<O2>")
        assert compiled.module.instruction_count() > 0
