"""Function/block cloning utilities.

Cloning is used by three clients:

* the inliner (copy a callee's body into a caller),
* monomorphic specialisation (copy a polymorphic library template and then
  constant-fold its specialised parameters away), and
* the clone detector (compare normalised copies without mutating originals).
"""

from __future__ import annotations

import copy as _copy
from typing import Dict, List, Optional

from ..ir.instructions import (
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
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import FunctionType
from ..ir.values import Argument, Constant, UndefValue, Value


def _map_value(value: Value, vmap: Dict[int, Value]) -> Value:
    if isinstance(value, (Constant, UndefValue)):
        return value
    return vmap.get(id(value), value)


def clone_instruction(instr: Instruction, vmap: Dict[int, Value]) -> Instruction:
    """Clone a single instruction, remapping operands through ``vmap``.

    Branch targets and phi incoming blocks are remapped through ``vmap`` as
    well (blocks are registered in the same map keyed by ``id``).
    """
    def m(v: Value) -> Value:
        return _map_value(v, vmap)

    if isinstance(instr, BinaryOp):
        new: Instruction = BinaryOp(instr.opcode, m(instr.lhs), m(instr.rhs), instr.name)
    elif isinstance(instr, FCmp):
        new = FCmp(instr.predicate, m(instr.lhs), m(instr.rhs), instr.name)
    elif isinstance(instr, ICmp):
        new = ICmp(instr.predicate, m(instr.lhs), m(instr.rhs), instr.name)
    elif isinstance(instr, Select):
        new = Select(m(instr.condition), m(instr.true_value), m(instr.false_value), instr.name)
    elif isinstance(instr, Cast):
        new = Cast(instr.opcode, m(instr.value), instr.type, instr.name)
    elif isinstance(instr, Alloca):
        new = Alloca(instr.allocated_type, instr.name)
    elif isinstance(instr, Load):
        new = Load(m(instr.pointer), instr.name)
    elif isinstance(instr, Store):
        new = Store(m(instr.value), m(instr.pointer))
    elif isinstance(instr, GEP):
        new = GEP(
            m(instr.pointer),
            [m(i) for i in instr.indices],
            instr.type.pointee,
            instr.name,
        )
    elif isinstance(instr, Phi):
        new = Phi(instr.type, instr.name)
        for value, block in instr.incoming():
            mapped_block = vmap.get(id(block), block)
            new.add_incoming(m(value), mapped_block)
    elif isinstance(instr, Branch):
        new = Branch(vmap.get(id(instr.target), instr.target))
    elif isinstance(instr, CondBranch):
        new = CondBranch(
            m(instr.condition),
            vmap.get(id(instr.true_block), instr.true_block),
            vmap.get(id(instr.false_block), instr.false_block),
        )
    elif isinstance(instr, Return):
        new = Return(m(instr.value) if instr.value is not None else None)
    elif isinstance(instr, Call):
        new = Call(instr.callee, [m(a) for a in instr.args], instr.name)
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot clone instruction of type {type(instr).__name__}")
    new.metadata = dict(instr.metadata)
    vmap[id(instr)] = new
    return new


def clone_function(
    source: Function,
    new_name: str,
    module: Optional[Module] = None,
    arg_replacements: Optional[Dict[int, Value]] = None,
) -> Function:
    """Clone ``source`` into ``module`` under ``new_name``.

    ``arg_replacements`` optionally maps ``id(argument)`` of the source
    function to a replacement :class:`Value` (typically a constant) — this is
    how monomorphic specialisation binds template parameters before running
    the optimiser.
    """
    module = module or source.module
    ftype = FunctionType(source.type.return_type, list(source.type.param_types))
    target = Function(new_name, ftype, module, [a.name for a in source.args])
    if module is not None:
        if new_name in module.functions:
            raise ValueError(f"function {new_name!r} already exists in module")
        module.functions[new_name] = target
    target.attributes = dict(source.attributes)
    target.parallel_regions = _copy.deepcopy(source.parallel_regions)

    vmap: Dict[int, Value] = {}
    for src_arg, dst_arg in zip(source.args, target.args):
        replacement = None
        if arg_replacements is not None:
            replacement = arg_replacements.get(id(src_arg))
        vmap[id(src_arg)] = replacement if replacement is not None else dst_arg

    # First create empty blocks so branches can be remapped.
    for block in source.blocks:
        new_block = BasicBlock(block.name, target)
        target.blocks.append(new_block)
        vmap[id(block)] = new_block

    # Clone instructions in two phases so phi incoming values defined later in
    # the function resolve correctly: phase 1 creates clones, phase 2 patches
    # any operands that still point at original instructions.
    for block in source.blocks:
        new_block = vmap[id(block)]
        for instr in block.instructions:
            new_block.append(clone_instruction(instr, vmap))

    _patch_forward_references(target.blocks, vmap)
    # Name counter: keep generating fresh names after the clone.
    target._name_counter = source._name_counter
    return target


def _patch_forward_references(blocks: List[BasicBlock], vmap: Dict[int, Value]) -> None:
    """Replace operands in ``blocks`` that still reference original values
    with their clones."""
    for block in blocks:
        for instr in block.instructions:
            for i, op in enumerate(list(instr.operands)):
                mapped = vmap.get(id(op))
                if mapped is not None and mapped is not op:
                    instr.set_operand(i, mapped)
            if isinstance(instr, Phi):
                instr.incoming_blocks = [
                    vmap.get(id(b), b) for b in instr.incoming_blocks
                ]
            if isinstance(instr, (Branch, CondBranch)):
                instr.targets = [vmap.get(id(t), t) for t in instr.targets]
