"""Tests for IR construction, the verifier, the printer and use lists."""

import math

import pytest

from repro.ir import (
    F64,
    I64,
    VOID,
    Branch,
    Constant,
    FunctionType,
    IRBuilder,
    Module,
    PointerType,
    Return,
    VerificationError,
    const_float,
    print_function,
    print_module,
    verify_module,
)
from repro.backends.interp import Interpreter

from helpers import (
    build_affine_function,
    build_alloca_function,
    build_branchy_function,
    build_loop_sum_function,
    build_struct_sum_function,
)


class TestBuilderAndVerifier:
    def test_affine_function_verifies(self):
        m = Module("t")
        build_affine_function(m)
        verify_module(m)

    def test_loop_function_verifies(self):
        m = Module("t")
        build_loop_sum_function(m)
        verify_module(m)

    def test_branchy_function_verifies(self):
        m = Module("t")
        build_branchy_function(m)
        verify_module(m)

    def test_struct_function_verifies(self):
        m = Module("t")
        build_struct_sum_function(m)
        verify_module(m)

    def test_missing_terminator_detected(self):
        m = Module("t")
        fn = m.add_function("bad", FunctionType(F64, [F64]), ["x"])
        block = fn.append_block("entry")
        b = IRBuilder(block)
        b.fadd(fn.args[0], b.f64(1.0))
        with pytest.raises(VerificationError, match="terminator"):
            verify_module(m)

    def test_type_mismatch_detected(self):
        m = Module("t")
        fn = m.add_function("bad", FunctionType(F64, [F64]), ["x"])
        block = fn.append_block("entry")
        b = IRBuilder(block)
        with pytest.raises(TypeError):
            b.fadd(fn.args[0], b.i64(1))

    def test_wrong_return_type_detected(self):
        m = Module("t")
        fn = m.add_function("bad", FunctionType(F64, [F64]), ["x"])
        block = fn.append_block("entry")
        b = IRBuilder(block)
        b.ret(b.i64(3))
        with pytest.raises(VerificationError, match="return"):
            verify_module(m)

    def test_phi_incoming_must_match_predecessors(self):
        m = Module("t")
        fn = build_branchy_function(m)
        merge = fn.blocks[-1]
        phi = merge.phis()[0]
        phi.remove_incoming_block(fn.blocks[1])
        with pytest.raises(VerificationError, match="phi"):
            verify_module(m)

    def test_builder_rejects_append_after_terminator(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        block = fn.append_block("entry")
        b = IRBuilder(block)
        b.ret(fn.args[0])
        with pytest.raises(ValueError, match="terminator"):
            b.fadd(fn.args[0], fn.args[0])

    def test_call_argument_count_checked(self):
        m = Module("t")
        callee = build_affine_function(m, "callee")
        caller = m.add_function("caller", FunctionType(F64, [F64]), ["x"])
        block = caller.append_block("entry")
        b = IRBuilder(block)
        with pytest.raises(TypeError, match="expected 2"):
            b.call(callee, [caller.args[0]])

    @staticmethod
    def block_function(intrinsic, count):
        """``f(buf, n)``: one ``memcpy``/``memset`` of ``buf`` with count
        ``count`` (``"arg"``: the argument ``n``)."""
        m = Module("t")
        fn = m.add_function("f", FunctionType(VOID, [PointerType(F64), I64]), ["buf", "n"])
        b = IRBuilder(fn.append_block("entry"))
        buf, n = fn.args
        second = buf if intrinsic == "memcpy" else b.f64(0.0)
        b.intrinsic(intrinsic, [buf, second, n if count == "arg" else b.i64(count)])
        b.ret()
        return m

    @pytest.mark.parametrize("intrinsic", ["memcpy", "memset"])
    def test_block_intrinsic_count_must_be_a_nonnegative_constant(self, intrinsic):
        verify_module(self.block_function(intrinsic, 0))
        verify_module(self.block_function(intrinsic, 3))
        for count in ("arg", -1):
            with pytest.raises(VerificationError, match=f"{intrinsic} count must be"):
                verify_module(self.block_function(intrinsic, count))

    def test_duplicate_function_name_rejected(self):
        m = Module("t")
        m.add_function("f", FunctionType(F64, []))
        with pytest.raises(ValueError):
            m.add_function("f", FunctionType(F64, []))


class TestUseLists:
    def test_uses_tracked(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        block = fn.append_block("entry")
        b = IRBuilder(block)
        x = fn.args[0]
        t = b.fadd(x, x)
        b.ret(t)
        assert len(x.uses) == 2
        assert len(t.uses) == 1

    def test_replace_all_uses_with(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        block = fn.append_block("entry")
        b = IRBuilder(block)
        x = fn.args[0]
        t = b.fadd(x, b.f64(1.0))
        b.ret(t)
        c = const_float(7.0)
        t.replace_all_uses_with(c)
        ret = block.terminator
        assert ret.value is c
        assert not t.uses

    def test_erase_drops_operand_uses(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(F64, [F64]), ["x"])
        block = fn.append_block("entry")
        b = IRBuilder(block)
        x = fn.args[0]
        t = b.fadd(x, x)
        b.ret(x)
        t.erase()
        assert t not in block.instructions
        assert all(u is not t for u in x.uses)


class TestPrinter:
    def test_print_function_contains_blocks_and_ops(self):
        m = Module("t")
        fn = build_loop_sum_function(m)
        text = print_function(fn)
        assert "define double @loop_sum" in text
        assert "phi" in text
        assert "fmul" in text
        assert "br " in text

    def test_print_module_contains_declarations(self):
        m = Module("t")
        build_loop_sum_function(m)
        text = print_module(m)
        assert "declare double @repro.exp(double)" in text

    def test_print_module_contains_structs(self):
        m = Module("t")
        build_struct_sum_function(m)
        text = print_module(m)
        assert "%struct_sum_params = type" in text


class TestConstants:
    def test_constant_equality(self):
        assert const_float(1.5) == const_float(1.5)
        assert const_float(1.5) != const_float(2.5)
        assert Constant(I64, 3) != const_float(3.0)

    def test_nan_constants_compare_equal(self):
        assert const_float(math.nan) == const_float(math.nan)

    def test_bool_constant_normalised(self):
        from repro.ir import const_bool

        assert const_bool(True).value == 1
        assert const_bool(False).value == 0


class TestInterpreterOnHelpers:
    @pytest.fixture
    def module(self):
        m = Module("t")
        build_affine_function(m)
        build_loop_sum_function(m)
        build_branchy_function(m)
        build_alloca_function(m)
        build_struct_sum_function(m)
        verify_module(m)
        return m

    def test_affine(self, module):
        interp = Interpreter(module)
        assert interp.call("affine", [2.0, 5.0]) == pytest.approx(3 * 2.0 + 5.0 - 2.0)

    def test_loop_sum(self, module):
        interp = Interpreter(module)
        expected = 10 * (2.0 * 3.0 + math.exp(2.0))
        assert interp.call("loop_sum", [2.0, 3.0]) == pytest.approx(expected)

    def test_branchy_both_sides(self, module):
        interp = Interpreter(module)
        assert interp.call("branchy", [3.0, 1.0]) == pytest.approx(6.0)
        assert interp.call("branchy", [1.0, 3.0]) == pytest.approx(4.0)

    def test_allocas(self, module):
        interp = Interpreter(module)
        assert interp.call("with_allocas", [3.0, 4.0]) == pytest.approx(13.0)
        assert interp.call("with_allocas", [3.0, -4.0]) == pytest.approx(13.0)

    def test_struct_sum(self, module):
        from repro.backends import runtime

        struct = module.get_struct("struct_sum_params")
        buffer = runtime.allocate_buffer(struct.slot_count())
        buffer[:] = [1.0, 2.0, 3.0, 4.0]
        interp = Interpreter(module)
        assert interp.call("struct_sum", [(buffer, 0)]) == pytest.approx(10.0)

    def test_execution_limit(self, module):
        from repro.backends.interp import ExecutionLimitExceeded

        interp = Interpreter(module, max_steps=5)
        with pytest.raises(ExecutionLimitExceeded):
            interp.call("loop_sum", [1.0, 1.0])
