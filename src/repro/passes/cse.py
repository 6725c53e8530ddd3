"""Common subexpression elimination.

Dominator-scoped value numbering over pure instructions: if an identical pure
expression is available in a dominating block, later occurrences are replaced
by the earlier value.  Commutative operators are canonicalised before hashing
so ``a + b`` and ``b + a`` share a value number — the same normalisation the
clone detector applies.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ir.instructions import (
    GEP,
    BinaryOp,
    Call,
    Cast,
    FCmp,
    ICmp,
    Select,
)
from ..ir.module import Function
from ..ir.values import Constant, Value
from .dominators import DominatorTree
from ..driver.registry import register_pass
from .pass_base import FunctionPass


def _operand_key(value: Value):
    if isinstance(value, Constant):
        key = value.value
        if isinstance(key, float) and key != key:  # NaN
            key = "nan"
        return ("const", str(value.type), key)
    return ("val", id(value))


def expression_key(instr) -> Tuple | None:
    """A hashable key identifying the computation performed by ``instr``.

    Returns ``None`` for instructions that must not participate in CSE
    (memory operations, PRNG calls, terminators, phis).
    """
    if isinstance(instr, BinaryOp):
        ops = [_operand_key(instr.lhs), _operand_key(instr.rhs)]
        if instr.is_commutative():
            ops.sort()
        return ("bin", instr.opcode, tuple(ops))
    if isinstance(instr, FCmp):
        return (
            "fcmp",
            instr.predicate,
            _operand_key(instr.lhs),
            _operand_key(instr.rhs),
        )
    if isinstance(instr, ICmp):
        return (
            "icmp",
            instr.predicate,
            _operand_key(instr.lhs),
            _operand_key(instr.rhs),
        )
    if isinstance(instr, Select):
        return ("select", tuple(_operand_key(op) for op in instr.operands))
    if isinstance(instr, Cast):
        return ("cast", instr.opcode, str(instr.type), _operand_key(instr.value))
    if isinstance(instr, GEP):
        return (
            "gep",
            str(instr.pointer.type),
            tuple(_operand_key(op) for op in instr.operands),
        )
    if isinstance(instr, Call) and not instr.has_side_effects():
        return (
            "call",
            instr.callee.name,
            tuple(_operand_key(a) for a in instr.args),
        )
    return None


@register_pass("cse")
class CommonSubexpressionElimination(FunctionPass):
    """Dominator-tree scoped CSE for pure expressions."""

    name = "cse"
    #: Replaces/erases non-terminators only; the CFG shape is untouched.
    preserves = "cfg"

    def run_on_function(self, function: Function, am=None) -> bool:
        if not function.blocks:
            return False
        domtree = am.get(DominatorTree, function) if am is not None else DominatorTree(function)
        changed = False

        def walk(block, available: Dict[Tuple, Value]) -> None:
            nonlocal changed
            scope = dict(available)
            erased = set()
            for instr in block.instructions:
                key = expression_key(instr)
                if key is None:
                    continue
                existing = scope.get(key)
                if existing is not None:
                    instr.replace_all_uses_with(existing)
                    instr.drop_operands()
                    instr.parent = None
                    erased.add(id(instr))
                else:
                    scope[key] = instr
            if erased:
                # One rebuild per block: a list.remove per erased
                # instruction is quadratic in the block length.
                block.instructions = [
                    i for i in block.instructions if id(i) not in erased
                ]
                function.notify_mutation()
                changed = True
            for child in domtree.children.get(block, []):
                walk(child, scope)

        walk(function.entry_block, {})
        return changed
