"""Peephole instruction combining.

A small set of strictly-semantics-preserving algebraic simplifications.  Note
that the floating point identities are restricted to the ones that are valid
under IEEE semantics; the identities that assume "no NaN / no Inf / no signed
zero" apply only with ``allow_fast_math``, which clone detection's
normalisation sets.
"""

from __future__ import annotations

from ..ir.instructions import BinaryOp, Select
from ..ir.module import Function
from ..ir.values import Constant, Value
from ..driver.registry import register_pass
from .pass_base import FunctionPass


def _const(value: Value, expected) -> bool:
    return isinstance(value, Constant) and value.value == expected


@register_pass("instcombine")
class InstCombine(FunctionPass):
    """Apply simple algebraic identities."""

    name = "instcombine"
    #: Peephole rewrites of non-terminators; the CFG shape never changes.
    preserves = "cfg"

    def __init__(self, allow_fast_math: bool = False):
        #: When true, identities that assume "no NaN / no signed zero" are
        #: enabled (clone detection's normalisation sets it).
        self.allow_fast_math = allow_fast_math

    def run_on_function(self, function: Function, am=None) -> bool:
        changed = False
        for block in function.blocks:
            for instr in list(block.instructions):
                replacement = self._simplify(instr)
                if replacement is not None and replacement is not instr:
                    instr.replace_all_uses_with(replacement)
                    instr.erase()
                    changed = True
        return changed

    def _simplify(self, instr) -> Value | None:
        if isinstance(instr, BinaryOp):
            return self._simplify_binop(instr)
        if isinstance(instr, Select):
            if instr.true_value is instr.false_value:
                return instr.true_value
        return None

    def _simplify_binop(self, instr: BinaryOp) -> Value | None:
        op, lhs, rhs = instr.opcode, instr.lhs, instr.rhs

        # Integer identities are always safe.
        if op == "add":
            if _const(rhs, 0):
                return lhs
            if _const(lhs, 0):
                return rhs
        elif op == "sub" and _const(rhs, 0):
            return lhs
        elif op == "mul":
            if _const(rhs, 1):
                return lhs
            if _const(lhs, 1):
                return rhs
            if _const(rhs, 0) or _const(lhs, 0):
                return Constant(instr.type, 0)
        elif op == "sdiv" and _const(rhs, 1):
            return lhs
        elif op in ("and", "or"):
            if lhs is rhs:
                return lhs
        elif op == "xor" and lhs is rhs:
            return Constant(instr.type, 0)

        # x - x -> 0 and x + (-x): only valid when x cannot be NaN/Inf.
        if op == "fsub" and lhs is rhs and self.allow_fast_math:
            return Constant(instr.type, 0.0)

        # Floating point: x * 1.0 and x / 1.0 are exact under IEEE.
        if op == "fmul":
            if _const(rhs, 1.0):
                return lhs
            if _const(lhs, 1.0):
                return rhs
        elif op == "fdiv" and _const(rhs, 1.0):
            return lhs

        # x + 0.0 is only an identity when x is not -0.0; x - 0.0 is exact.
        if op == "fsub" and _const(rhs, 0.0):
            return lhs
        if op == "fadd":
            if _const(rhs, 0.0) and self.allow_fast_math:
                return lhs
            if _const(lhs, 0.0) and self.allow_fast_math:
                return rhs

        # x * 0.0 -> 0.0 requires "no NaN, no Inf, no signed zero" on x.
        if op == "fmul" and (_const(rhs, 0.0) or _const(lhs, 0.0)):
            other = lhs if _const(rhs, 0.0) else rhs
            if self.allow_fast_math:
                return Constant(instr.type, 0.0)
        return None
