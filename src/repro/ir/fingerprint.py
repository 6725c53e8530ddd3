"""Stable structural fingerprints for IR functions and modules.

The incremental-recompilation machinery (PR 7) content-addresses *compile
units* — one per IR function — so it needs a hash of a function's structure
that is

* **stable across processes** (sha256 over a canonical byte stream, no
  ``id()``/``hash()`` of live objects),
* **independent of value names** (the optimiser renames freely; two runs of
  the same pipeline may pick different ``v<N>`` suffixes), and
* **iterative** (a compiled mega-model holds tens of thousands of
  instructions; recursing over the operand graph overflows the C stack).

The textual printer cannot serve this purpose: unnamed values print as
``%<unnamed>``, which collapses distinct operands into one spelling.  Here
every value gets a dense sequential id — arguments first, then instructions
in block order — so operand references are unambiguous.

``Instruction.metadata`` is deliberately *excluded*: ``source_node`` tags and
friends are diagnostics, not semantics, and must not invalidate artifacts.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    FCmp,
    ICmp,
    Instruction,
    Phi,
)
from . import types as ir_types
from .module import Function, Module
from .types import ArrayType, FunctionType, IRType, PointerType, StructType
from .values import Argument, Constant, UndefValue, Value

__all__ = ["function_fingerprint", "module_fingerprint", "type_signature"]


def type_signature(ty: IRType, _seen: Optional[frozenset] = None) -> str:
    """A canonical spelling of ``ty`` with struct layouts expanded.

    ``str(StructType)`` prints only ``%name``; for content addressing the
    field layout must participate, otherwise adding a field to a struct
    would collide with the old artifact.
    """
    if isinstance(ty, StructType):
        if not _seen:
            # The expansion is memoized on the struct (see
            # ``StructType.signature_memo``); an in-place field append bumps
            # the epoch and so invalidates every struct that embeds it.
            memo = ty.signature_memo
            if memo is not None and memo[0] == ir_types.TYPE_MUTATION_EPOCH:
                return memo[1]
        seen = _seen or frozenset()
        if ty.name in seen:  # pragma: no cover - structs are non-recursive
            return f"%{ty.name}"
        inner = seen | {ty.name}
        body = ",".join(
            f"{fname}:{type_signature(ftype, inner)}" for fname, ftype in ty.fields
        )
        signature = f"%{ty.name}{{{body}}}"
        if not _seen:
            ty.signature_memo = (ir_types.TYPE_MUTATION_EPOCH, signature)
        return signature
    if isinstance(ty, PointerType):
        return f"{type_signature(ty.pointee, _seen)}*"
    if isinstance(ty, ArrayType):
        return f"[{ty.count}x{type_signature(ty.element, _seen)}]"
    if isinstance(ty, FunctionType):
        params = ",".join(type_signature(p, _seen) for p in ty.param_types)
        return f"{type_signature(ty.return_type, _seen)}({params})"
    return str(ty)


def _constant_token(value: Constant) -> str:
    v = value.value
    if isinstance(v, float):
        # repr round-trips doubles exactly; NaN canonicalised (all NaNs equal
        # under Constant.__eq__, so they must hash equally too).
        if v != v:
            token = "nan"
        else:
            token = repr(v)
    else:
        token = str(v)
    return f"c:{type_signature(value.type)}:{token}"


def _operand_token(op: Value, ids: dict) -> str:
    if isinstance(op, Constant):
        return _constant_token(op)
    if isinstance(op, UndefValue):
        return f"u:{type_signature(op.type)}"
    if isinstance(op, Argument):
        return f"a:{op.index}"
    key = id(op)
    if key in ids:
        return f"i:{ids[key]}"
    # An operand defined outside this function's blocks (malformed IR) —
    # never fingerprint it as some unrelated local value.
    return f"x:{type_signature(op.type)}"  # pragma: no cover - defensive


def _instruction_tokens(fn: Function) -> Iterable[str]:
    ids: dict = {}
    block_ids: dict = {}
    for index, block in enumerate(fn.blocks):
        block_ids[id(block)] = index
    counter = 0
    for block in fn.blocks:
        for instr in block.instructions:
            ids[id(instr)] = counter
            counter += 1
    for index, block in enumerate(fn.blocks):
        yield f"B{index}"
        for instr in block.instructions:
            parts = [instr.opcode, type_signature(instr.type)]
            if isinstance(instr, (FCmp, ICmp)):
                parts.append(instr.predicate)
            elif isinstance(instr, Cast):
                parts.append(instr.opcode)
            elif isinstance(instr, Alloca):
                parts.append(type_signature(instr.allocated_type))
            elif isinstance(instr, Call):
                parts.append(f"@{instr.callee.name}")
            elif isinstance(instr, Phi):
                parts.append(
                    ",".join(str(block_ids.get(id(b), -1)) for b in instr.incoming_blocks)
                )
            elif isinstance(instr, (Branch, CondBranch)):
                parts.append(
                    ",".join(str(block_ids.get(id(t), -1)) for t in instr.targets)
                )
            parts.extend(_operand_token(op, ids) for op in instr.operands)
            yield "|".join(parts)


def function_fingerprint(fn: Function) -> str:
    """A sha256 hex digest of the function's structure.

    Covers the signature, attributes, block/instruction structure, operand
    graph (by dense value id), constants (bitwise for floats), callee names
    and parallel-region annotations.  Excludes value names and instruction
    metadata, both of which are presentation-only.
    """
    h = hashlib.sha256()

    def feed(token: str) -> None:
        h.update(token.encode("utf-8"))
        h.update(b"\x00")

    feed(fn.name)
    feed(type_signature(fn.type))
    feed(fn.intrinsic_name or "")
    for key in sorted(fn.attributes):
        feed(f"attr:{key}={fn.attributes[key]!r}")
    for region in fn.parallel_regions:
        feed(f"par:{sorted(region.items())!r}")
    for token in _instruction_tokens(fn):
        feed(token)
    return h.hexdigest()


def module_fingerprint(module: Module) -> str:
    """A sha256 hex digest over every function (sorted by name) plus structs."""
    h = hashlib.sha256()
    for name in sorted(module.structs):
        h.update(type_signature(module.structs[name]).encode("utf-8"))
        h.update(b"\x00")
    for name in sorted(module.functions):
        fn = module.functions[name]
        h.update(name.encode("utf-8"))
        h.update(function_fingerprint(fn).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()
