"""IRBuilder — convenience API for emitting repro IR.

The builder mirrors ``llvmlite.ir.IRBuilder``: it holds an insertion point
(a basic block) and exposes one method per instruction kind.  All of Distill's
code generators (node templates, the whole-model generator, the user-defined
function compiler and the minitorch bridge) emit IR exclusively through this
class, which keeps type checking in one place.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    Store,
)
from .module import BasicBlock, Function, Module
from .types import BOOL, F64, I64, ArrayType, IRType, PointerType, StructType
from .values import Constant, Value, const_bool, const_float, const_int


class IRBuilder:
    """Stateful helper that appends instructions to a basic block."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block
        #: Metadata attached to every instruction created until changed.
        #: Used by the model code generator to tag instructions with the
        #: cognitive-model node they implement (consumed by the CDFG pass).
        self.current_source_node: Optional[str] = None

    # -- positioning -------------------------------------------------------
    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self) -> Function:
        if self.block is None or self.block.parent is None:
            raise ValueError("builder is not positioned inside a function")
        return self.block.parent

    @property
    def module(self) -> Module:
        mod = self.function.module
        if mod is None:
            raise ValueError("function is not attached to a module")
        return mod

    # -- internal ------------------------------------------------------------
    def _insert(self, instr: Instruction) -> Instruction:
        if self.block is None:
            raise ValueError("builder has no insertion block")
        if self.block.terminator is not None:
            raise ValueError(
                f"block {self.block.name} already has a terminator; "
                f"cannot append {instr.opcode}"
            )
        if not instr.name and not instr.type.is_void:
            instr.name = self.function.next_name()
        if self.current_source_node is not None:
            instr.metadata.setdefault("source_node", self.current_source_node)
        return self.block.append(instr)

    # -- constants -----------------------------------------------------------
    def f64(self, value: float) -> Constant:
        return const_float(value)

    def i64(self, value: int) -> Constant:
        return const_int(value)

    def true(self) -> Constant:
        return const_bool(True)

    def false(self) -> Constant:
        return const_bool(False)

    # -- float arithmetic -------------------------------------------------------
    def fadd(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("fadd", a, b, name))

    def fsub(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("fsub", a, b, name))

    def fmul(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("fmul", a, b, name))

    def fdiv(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("fdiv", a, b, name))

    def frem(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("frem", a, b, name))

    def fneg(self, a: Value, name: str = "") -> Value:
        return self.fsub(self.f64(0.0), a, name)

    # -- integer arithmetic -----------------------------------------------------
    def add(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("add", a, b, name))

    def sub(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("sub", a, b, name))

    def mul(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("mul", a, b, name))

    def sdiv(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("sdiv", a, b, name))

    def srem(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("srem", a, b, name))

    def and_(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("and", a, b, name))

    def or_(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("or", a, b, name))

    def xor(self, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(BinaryOp("xor", a, b, name))

    # -- comparisons --------------------------------------------------------------
    def fcmp(self, predicate: str, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(FCmp(predicate, a, b, name))

    def icmp(self, predicate: str, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(ICmp(predicate, a, b, name))

    def select(self, cond: Value, a: Value, b: Value, name: str = "") -> Value:
        return self._insert(Select(cond, a, b, name))

    # -- casts ----------------------------------------------------------------------
    def sitofp(self, value: Value, ty: IRType = F64, name: str = "") -> Value:
        return self._insert(Cast("sitofp", value, ty, name))

    def fptosi(self, value: Value, ty: IRType = I64, name: str = "") -> Value:
        return self._insert(Cast("fptosi", value, ty, name))

    def zext(self, value: Value, ty: IRType = I64, name: str = "") -> Value:
        return self._insert(Cast("zext", value, ty, name))

    def trunc(self, value: Value, ty: IRType, name: str = "") -> Value:
        return self._insert(Cast("trunc", value, ty, name))

    # -- memory ---------------------------------------------------------------------
    def alloca(self, ty: IRType, name: str = "") -> Value:
        return self._insert(Alloca(ty, name))

    def load(self, ptr: Value, name: str = "") -> Value:
        return self._insert(Load(ptr, name))

    def store(self, value: Value, ptr: Value) -> Value:
        return self._insert(Store(value, ptr))

    def gep(self, ptr: Value, indices: Sequence[Value], name: str = "") -> Value:
        result_type = GEP.resolve_type(ptr.type.pointee, list(indices))
        return self._insert(GEP(ptr, list(indices), result_type, name))

    def struct_field_ptr(self, ptr: Value, field: str, name: str = "") -> Value:
        """Pointer to a named field of a struct pointed to by ``ptr``."""
        struct = ptr.type.pointee
        if not isinstance(struct, StructType):
            raise TypeError(f"expected pointer to struct, got {ptr.type}")
        index = struct.field_index(field)
        return self.gep(ptr, [self.i64(0), self.i64(index)], name or field)

    def array_element_ptr(self, ptr: Value, index: Value, name: str = "") -> Value:
        """Pointer to ``array[index]`` for a pointer to an array."""
        if not isinstance(ptr.type.pointee, ArrayType):
            raise TypeError(f"expected pointer to array, got {ptr.type}")
        if isinstance(index, int):
            index = self.i64(index)
        return self.gep(ptr, [self.i64(0), index], name)

    def load_field(self, ptr: Value, field: str, name: str = "") -> Value:
        return self.load(self.struct_field_ptr(ptr, field), name or field)

    def store_field(self, value: Value, ptr: Value, field: str) -> Value:
        return self.store(value, self.struct_field_ptr(ptr, field))

    # -- control flow ------------------------------------------------------------------
    def br(self, target: BasicBlock) -> Value:
        return self._insert(Branch(target))

    def cond_br(self, cond: Value, true_block: BasicBlock, false_block: BasicBlock) -> Value:
        return self._insert(CondBranch(cond, true_block, false_block))

    def ret(self, value: Optional[Value] = None) -> Value:
        return self._insert(Return(value))

    def phi(self, ty: IRType, name: str = "") -> Phi:
        phi = Phi(ty, name)
        if self.block is None:
            raise ValueError("builder has no insertion block")
        if not phi.name:
            phi.name = self.function.next_name("phi")
        if self.current_source_node is not None:
            phi.metadata.setdefault("source_node", self.current_source_node)
        # Phis must come before any non-phi instruction in the block.
        self.block.insert(self.block.first_non_phi_index(), phi)
        return phi

    # -- calls and intrinsics ------------------------------------------------------------
    def call(self, callee: Function, args: Sequence[Value], name: str = "") -> Value:
        return self._insert(Call(callee, list(args), name))

    def intrinsic(self, intrinsic: str, args: Sequence[Value], name: str = "") -> Value:
        callee = self.module.declare_intrinsic(intrinsic)
        return self.call(callee, args, name or intrinsic)

    # Shorthands for the common math intrinsics.
    def exp(self, x: Value, name: str = "") -> Value:
        return self.intrinsic("exp", [x], name)

    def log(self, x: Value, name: str = "") -> Value:
        return self.intrinsic("log", [x], name)

    def sqrt(self, x: Value, name: str = "") -> Value:
        return self.intrinsic("sqrt", [x], name)

    def tanh(self, x: Value, name: str = "") -> Value:
        return self.intrinsic("tanh", [x], name)

    def fabs(self, x: Value, name: str = "") -> Value:
        return self.intrinsic("fabs", [x], name)

    def pow(self, x: Value, y: Value, name: str = "") -> Value:
        return self.intrinsic("pow", [x, y], name)

    def fmin(self, x: Value, y: Value, name: str = "") -> Value:
        return self.intrinsic("fmin", [x, y], name)

    def fmax(self, x: Value, y: Value, name: str = "") -> Value:
        return self.intrinsic("fmax", [x, y], name)

    def rng_uniform(self, state_ptr: Value, name: str = "") -> Value:
        return self.intrinsic("rng_uniform", [state_ptr], name)

    def rng_normal(self, state_ptr: Value, name: str = "") -> Value:
        return self.intrinsic("rng_normal", [state_ptr], name)

    def memcpy(self, dst: Value, src: Value, count: int) -> Value:
        """Copy ``count`` f64 slots from ``src`` to ``dst`` (``memmove``
        semantics: overlapping ranges are fine)."""
        return self.intrinsic("memcpy", [dst, src, self.i64(count)])

    def memset(self, dst: Value, value: Value, count: int) -> Value:
        """Write ``value`` to ``count`` f64 slots starting at ``dst``."""
        return self.intrinsic("memset", [dst, value, self.i64(count)])

    # -- higher level helpers -----------------------------------------------------------
    def logistic(self, x: Value, gain: Value, bias: Value, name: str = "") -> Value:
        """Emit ``1 / (1 + exp(-gain * (x - bias)))``."""
        shifted = self.fsub(x, bias)
        scaled = self.fmul(gain, shifted)
        neg = self.fneg(scaled)
        e = self.exp(neg)
        denom = self.fadd(self.f64(1.0), e)
        return self.fdiv(self.f64(1.0), denom, name)

    def clamp(self, x: Value, lo: Value, hi: Value, name: str = "") -> Value:
        """Emit ``min(max(x, lo), hi)``."""
        return self.fmin(self.fmax(x, lo), hi, name)
