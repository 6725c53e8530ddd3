"""Constant propagation and folding.

Folds instructions whose operands are all compile-time constants, simplifies
``select``/``phi`` nodes, and turns conditional branches on constants into
unconditional ones (which SimplifyCFG then uses to delete dead regions).
Constant semantics are shared with the interpreter via
:mod:`repro.backends.runtime`, so folding can never diverge from execution.
"""

from __future__ import annotations

from ..backends import runtime
from ..ir.instructions import (
    MATH_INTRINSICS,
    BinaryOp,
    Call,
    Cast,
    FCmp,
    ICmp,
    Phi,
    Select,
)
from ..ir.module import Function
from ..ir.values import Constant, Value
from ..driver.registry import register_pass
from .pass_base import FunctionPass


def fold_instruction(instr) -> Constant | None:
    """Return the constant result of ``instr`` if it can be folded, else None."""
    if isinstance(instr, BinaryOp):
        lhs, rhs = instr.lhs, instr.rhs
        if isinstance(lhs, Constant) and isinstance(rhs, Constant):
            convert = float if instr.opcode.startswith("f") else int
            try:
                value = runtime.BINOP_IMPLS[instr.opcode](
                    convert(lhs.value), convert(rhs.value)
                )
            except ZeroDivisionError:
                # sdiv/srem by zero traps at run time; the instruction
                # stays to trap there.
                return None
            return Constant(instr.type, value)
    elif isinstance(instr, FCmp):
        lhs, rhs = instr.lhs, instr.rhs
        if isinstance(lhs, Constant) and isinstance(rhs, Constant):
            value = runtime.eval_fcmp(instr.predicate, float(lhs.value), float(rhs.value))
            return Constant(instr.type, value)
    elif isinstance(instr, ICmp):
        lhs, rhs = instr.lhs, instr.rhs
        if isinstance(lhs, Constant) and isinstance(rhs, Constant):
            value = runtime.eval_icmp(instr.predicate, int(lhs.value), int(rhs.value))
            return Constant(instr.type, value)
    elif isinstance(instr, Select):
        cond = instr.condition
        if isinstance(cond, Constant):
            chosen = instr.true_value if cond.value else instr.false_value
            if isinstance(chosen, Constant):
                return chosen
        if (
            isinstance(instr.true_value, Constant)
            and isinstance(instr.false_value, Constant)
            and instr.true_value == instr.false_value
        ):
            return instr.true_value
    elif isinstance(instr, Cast):
        if isinstance(instr.value, Constant):
            value = runtime.cast(instr.opcode, instr.value.value, instr.type)
            return Constant(instr.type, value)
    elif isinstance(instr, Call) and instr.callee.intrinsic_name:
        name = instr.callee.intrinsic_name
        # Only the pure math intrinsics fold: the PRNG draws and the block
        # memory intrinsics write memory.
        if name not in MATH_INTRINSICS:
            return None
        impl = runtime.INTRINSIC_IMPLS[name]
        if all(isinstance(a, Constant) for a in instr.args):
            return Constant(instr.type, impl(*[float(a.value) for a in instr.args]))
    return None


@register_pass("constprop")
class ConstantPropagation(FunctionPass):
    """Iteratively fold constant expressions and simplify trivial phis/selects."""

    name = "constprop"
    #: Folds non-terminator instructions in place; branch folding on constant
    #: conditions is SimplifyCFG's job, so the CFG shape never changes here.
    preserves = "cfg"

    def run_on_function(self, function: Function, am=None) -> bool:
        changed = False
        again = True
        while again:
            again = False
            for block in function.blocks:
                for instr in list(block.instructions):
                    if isinstance(instr, Phi):
                        simplified = self._simplify_phi(instr)
                        if simplified is not None:
                            instr.replace_all_uses_with(simplified)
                            instr.erase()
                            changed = again = True
                        continue
                    folded = fold_instruction(instr)
                    if folded is not None:
                        instr.replace_all_uses_with(folded)
                        instr.erase()
                        changed = again = True
                        continue
                    simplified = self._simplify_select(instr)
                    if simplified is not None:
                        instr.replace_all_uses_with(simplified)
                        instr.erase()
                        changed = again = True
        return changed

    @staticmethod
    def _simplify_phi(phi: Phi) -> Value | None:
        """A phi whose incoming values are all identical is that value."""
        values = [v for v in phi.operands]
        if not values:
            return None
        first = values[0]
        if all(v is first for v in values[1:]):
            return first
        if all(isinstance(v, Constant) for v in values):
            if all(v == values[0] for v in values[1:]):
                return values[0]
        return None

    @staticmethod
    def _simplify_select(instr) -> Value | None:
        if isinstance(instr, Select):
            if isinstance(instr.condition, Constant):
                return instr.true_value if instr.condition.value else instr.false_value
            if instr.true_value is instr.false_value:
                return instr.true_value
        return None
