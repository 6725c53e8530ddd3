"""IR verifier.

The verifier enforces the structural invariants the rest of the system relies
on: every block ends with exactly one terminator, operands have the expected
types, phi nodes agree with the CFG, and every value used inside a function is
defined in that function (as an argument, a constant or an instruction).  The
code generators run the verifier on freshly emitted modules and every pass is
tested to preserve verification.

Findings are produced as structured :class:`~repro.ir.diagnostics.Diagnostic`
objects (severity ``error``) carrying function/block/instruction coordinates
and source-node provenance, so verifier failures render through the same text
and JSON reporters as the lint suite.  :class:`VerificationError` keeps its
``errors`` list-of-strings API (each entry is the rendered diagnostic) and
additionally exposes ``diagnostics``.
"""

from __future__ import annotations

from typing import List, Optional

from .cfg import predecessor_map, reachable_blocks
from .diagnostics import Diagnostic, dedupe
from .instructions import (
    GEP,
    MEMORY_INTRINSICS,
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
from .types import I64
from .values import Argument, Constant, UndefValue


class VerificationError(Exception):
    """Raised when a module or function violates an IR invariant."""

    def __init__(self, errors):
        if errors and isinstance(errors[0], Diagnostic):
            self.diagnostics: List[Diagnostic] = list(errors)
            self.errors = [d.render() for d in self.diagnostics]
        else:
            self.errors = list(errors)
            self.diagnostics = [
                Diagnostic(check="verify", severity="error", message=e)
                for e in self.errors
            ]
        super().__init__("\n".join(self.errors))


def verify_module(module: Module) -> None:
    """Verify every defined function in ``module``.

    Raises :class:`VerificationError` listing all problems found.
    """
    diagnostics = verify_module_diagnostics(module)
    if diagnostics:
        raise VerificationError(diagnostics)


def verify_function(function: Function) -> None:
    diagnostics = _verify_function(function)
    if diagnostics:
        raise VerificationError(dedupe(diagnostics))


def verify_module_diagnostics(module: Module) -> List[Diagnostic]:
    """All verifier findings for ``module`` as deduplicated diagnostics.

    An empty list means the module verifies; callers that want the raising
    behaviour use :func:`verify_module`.
    """
    diagnostics: List[Diagnostic] = []
    for fn in module.defined_functions():
        diagnostics.extend(_verify_function(fn))
    return dedupe(diagnostics)


class _Reporter:
    """Accumulates diagnostics with the coordinates of the current scope."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.diagnostics: List[Diagnostic] = []

    def report(self, message: str, block: Optional[BasicBlock] = None,
               instr: Optional[Instruction] = None) -> None:
        index = -1
        opcode = ""
        source_node = ""
        if instr is not None:
            if block is None and instr.parent is not None:
                block = instr.parent
            opcode = type(instr).__name__.lower()
            if isinstance(instr, (BinaryOp, Cast)):
                opcode = instr.opcode
            node = instr.metadata.get("source_node") if instr.metadata else None
            if node:
                source_node = str(node)
            if block is not None:
                try:
                    index = block.instructions.index(instr)
                except ValueError:
                    index = -1
        self.diagnostics.append(
            Diagnostic(
                check="verify",
                severity="error",
                message=message,
                function=self.fn.name,
                block=block.name if block is not None else "",
                index=index,
                opcode=opcode,
                source_node=source_node,
            )
        )


def _verify_function(fn: Function) -> List[Diagnostic]:
    out = _Reporter(fn)

    if not fn.blocks:
        return out.diagnostics

    defined: set[int] = {id(arg) for arg in fn.args}
    for block in fn.blocks:
        for instr in block.instructions:
            defined.add(id(instr))

    preds = predecessor_map(fn)
    block_ids = {id(b) for b in fn.blocks}

    for block in fn.blocks:
        # Terminator discipline -------------------------------------------------
        if not block.instructions:
            out.report(f"block {block.name} is empty", block=block)
            continue
        terminators = [i for i in block.instructions if i.is_terminator]
        if len(terminators) != 1:
            out.report(
                f"block {block.name} has {len(terminators)} terminators",
                block=block,
            )
        elif block.instructions[-1] is not terminators[0]:
            out.report(
                f"terminator of block {block.name} is not last", block=block
            )

        seen_non_phi = False
        for instr in block.instructions:
            if isinstance(instr, Phi):
                if seen_non_phi:
                    out.report(
                        f"phi {instr.ref()} appears after a non-phi "
                        f"instruction in block {block.name}",
                        block=block,
                        instr=instr,
                    )
            else:
                seen_non_phi = True

            if instr.parent is not block:
                out.report(
                    f"instruction {instr.ref()} has stale parent pointer",
                    block=block,
                    instr=instr,
                )

            # Operand availability ----------------------------------------------
            for op in instr.operands:
                if isinstance(op, (Constant, UndefValue)):
                    continue
                if isinstance(op, Argument):
                    if op not in fn.args:
                        out.report(
                            f"{instr.ref()} uses argument {op.ref()} "
                            f"from another function",
                            block=block,
                            instr=instr,
                        )
                    continue
                if isinstance(op, Instruction):
                    if id(op) not in defined:
                        out.report(
                            f"{instr.ref()} uses {op.ref()} which is "
                            f"not defined in this function",
                            block=block,
                            instr=instr,
                        )
                    continue
                out.report(
                    f"{instr.ref()} has unexpected operand {op!r}",
                    block=block,
                    instr=instr,
                )

            _verify_instruction_types(out, block, instr)

            # Branch targets must belong to this function ------------------------
            if isinstance(instr, (Branch, CondBranch)):
                for target in instr.targets:
                    if id(target) not in block_ids:
                        out.report(
                            f"branch in {block.name} targets foreign "
                            f"block {target.name}",
                            block=block,
                            instr=instr,
                        )

        # Phi / CFG agreement -----------------------------------------------------
        block_preds = preds.get(block, [])
        for phi in block.phis():
            incoming_ids = {id(b) for b in phi.incoming_blocks}
            pred_ids = {id(b) for b in block_preds}
            if incoming_ids != pred_ids:
                pred_names = sorted(b.name for b in block_preds)
                inc_names = sorted(b.name for b in phi.incoming_blocks)
                out.report(
                    f"phi {phi.ref()} in {block.name} has incoming "
                    f"blocks {inc_names} but predecessors are {pred_names}",
                    block=block,
                    instr=phi,
                )
            for value, _ in phi.incoming():
                if value.type != phi.type and not isinstance(value, UndefValue):
                    out.report(
                        f"phi {phi.ref()} incoming value {value.ref()} "
                        f"has type {value.type}, expected {phi.type}",
                        block=block,
                        instr=phi,
                    )

    # Return type discipline ----------------------------------------------------------
    for block in reachable_blocks(fn):
        term = block.terminator
        if isinstance(term, Return):
            if fn.return_type.is_void and term.value is not None:
                out.report(
                    "returns a value from a void function", block=block,
                    instr=term,
                )
            if not fn.return_type.is_void:
                if term.value is None:
                    out.report("missing return value", block=block, instr=term)
                elif term.value.type != fn.return_type:
                    out.report(
                        f"return type {term.value.type} does not match "
                        f"declared {fn.return_type}",
                        block=block,
                        instr=term,
                    )
    return out.diagnostics


def _verify_instruction_types(out: _Reporter, block: BasicBlock,
                              instr: Instruction) -> None:
    def err(msg: str) -> None:
        out.report(msg, block=block, instr=instr)

    if isinstance(instr, BinaryOp):
        lhs, rhs = instr.lhs, instr.rhs
        if lhs.type != rhs.type:
            err(f"{instr.opcode} operands have mismatched types")
        if instr.opcode.startswith("f") and not lhs.type.is_float:
            err(f"{instr.opcode} requires float operands, got {lhs.type}")
        if not instr.opcode.startswith("f") and not lhs.type.is_int:
            err(f"{instr.opcode} requires integer operands, got {lhs.type}")
    elif isinstance(instr, FCmp):
        if not instr.lhs.type.is_float:
            err("fcmp requires float operands")
        if instr.lhs.type != instr.rhs.type:
            err("fcmp operands have mismatched types")
    elif isinstance(instr, ICmp):
        if not instr.lhs.type.is_int:
            err("icmp requires integer operands")
        if instr.lhs.type != instr.rhs.type:
            err("icmp operands have mismatched types")
    elif isinstance(instr, Select):
        if not instr.condition.type.is_int:
            err("select condition must be an integer/boolean")
        if instr.true_value.type != instr.false_value.type:
            err("select arms have mismatched types")
    elif isinstance(instr, Load):
        if not instr.pointer.type.is_pointer:
            err("load operand must be a pointer")
        elif instr.type != instr.pointer.type.pointee:
            err("load result type does not match pointee type")
    elif isinstance(instr, Store):
        if not instr.pointer.type.is_pointer:
            err("store target must be a pointer")
        elif instr.value.type != instr.pointer.type.pointee:
            err(
                f"store of {instr.value.type} into pointer to "
                f"{instr.pointer.type.pointee}"
            )
    elif isinstance(instr, GEP):
        if not instr.pointer.type.is_pointer:
            err("gep base must be a pointer")
        else:
            try:
                expected = GEP.resolve_type(instr.pointer.type.pointee, instr.indices)
                if instr.type.pointee != expected:
                    err("gep result type does not match addressed member")
            except (TypeError, IndexError, KeyError) as exc:
                err(f"invalid gep indices: {exc}")
    elif isinstance(instr, CondBranch):
        if not instr.condition.type.is_int:
            err("conditional branch condition must be i1")
    elif isinstance(instr, Call):
        ftype = instr.callee.type
        for i, (arg, expected) in enumerate(zip(instr.args, ftype.param_types)):
            if arg.type != expected:
                err(
                    f"call to @{instr.callee.name}: argument {i} has type "
                    f"{arg.type}, expected {expected}"
                )
        if instr.callee.intrinsic_name in MEMORY_INTRINSICS and len(instr.args) == 3:
            count = instr.args[2]
            if not (
                isinstance(count, Constant) and count.type == I64 and int(count.value) >= 0
            ):
                err(
                    f"{instr.callee.intrinsic_name} count must be a non-negative "
                    f"i64 constant, got {count.ref()}"
                )
    elif isinstance(instr, Cast):
        src, dst = instr.value.type, instr.type
        if instr.opcode == "sitofp" and not (src.is_int and dst.is_float):
            err("sitofp requires int -> float")
        if instr.opcode == "fptosi" and not (src.is_float and dst.is_int):
            err("fptosi requires float -> int")
    elif isinstance(instr, Alloca):
        if not instr.type.is_pointer:
            err("alloca must produce a pointer")
