"""Instruction set of the repro IR.

The instruction set is a close analogue of the LLVM instructions that Distill
generates for cognitive models: integer and floating point arithmetic,
comparisons, ``select``, ``phi``, branches, calls, stack allocation
(``alloca``), ``load``/``store`` and ``getelementptr`` flattened to slot
offsets.  Mathematical intrinsics (``exp``, ``log``, ``tanh`` ...), the
counter-based PRNG primitives and the block-memory intrinsics (``memcpy``,
``memset``) appear as calls to declared functions, exactly as LLVM models
``llvm.exp.f64`` and ``llvm.memcpy`` and friends.

Each instruction is itself a :class:`~repro.ir.values.Value` – the SSA value
it defines.  Operands are tracked through use lists so passes can rewrite
programs efficiently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .types import (
    BOOL,
    VOID,
    ArrayType,
    FunctionType,
    IRType,
    IntType,
    PointerType,
    StructType,
)
from .values import Constant, Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .module import BasicBlock, Function


# ---------------------------------------------------------------------------
# Opcode groups
# ---------------------------------------------------------------------------

FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv", "frem")
INT_BINOPS = ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "ashr")
BINOPS = FLOAT_BINOPS + INT_BINOPS

#: Binary operators for which operand order does not matter.  Used by CSE and
#: by the clone detector to canonicalise before comparison.
COMMUTATIVE_OPS = frozenset({"fadd", "fmul", "add", "mul", "and", "or", "xor"})

FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge", "ord", "uno")
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")

CAST_OPS = ("sitofp", "fptosi", "fpext", "fptrunc", "zext", "sext", "trunc", "bitcast")

#: Math intrinsics understood by every backend.  They are declared in modules
#: as external functions named ``repro.<intrinsic>``.
MATH_INTRINSICS = (
    "exp",
    "log",
    "log1p",
    "sqrt",
    "sin",
    "cos",
    "tanh",
    "fabs",
    "floor",
    "ceil",
    "pow",
    "fmin",
    "fmax",
    "copysign",
)

#: PRNG intrinsics.  Both take a pointer to a two-slot generator state
#: (key, counter) and return a double; they advance the counter in place.
PRNG_INTRINSICS = ("rng_uniform", "rng_normal")

#: Block-memory intrinsics, the analogues of ``llvm.memcpy``/``llvm.memset``:
#: ``memcpy(f64* dst, f64* src, i64 count)`` and
#: ``memset(f64* dst, f64 value, i64 count)``.  ``count`` is in f64 slots and
#: must be a non-negative ``i64`` constant (the verifier checks), so no
#: lowering needs a dynamic-length path.  ``memcpy`` reads the whole source
#: range before it writes the destination (``memmove`` semantics), so every
#: engine agrees on overlapping ranges.  Both write memory: they are not
#: ``MATH_INTRINSICS``, so CSE, DCE and LICM leave them alone.
MEMORY_INTRINSICS = ("memcpy", "memset")

INTRINSICS = MATH_INTRINSICS + PRNG_INTRINSICS + MEMORY_INTRINSICS

#: Opcodes that may write memory or otherwise have observable side effects.
SIDE_EFFECT_OPCODES = frozenset({"store", "call", "ret", "br", "condbr"})


class Instruction(Value):
    """Base class of every IR instruction."""

    __slots__ = ("operands", "parent", "metadata")

    #: Opcode string, e.g. ``"fadd"`` or ``"load"``.
    opcode: str = "?"
    #: True if this instruction terminates a basic block.
    is_terminator = False

    def __init__(self, ty: IRType, operands: Sequence[Value] = (), name: str = ""):
        super().__init__(ty, name)
        self.operands: list[Value] = []
        self.parent: Optional["BasicBlock"] = None
        #: Free-form metadata, e.g. ``source_node`` tags attached by the model
        #: code generator and consumed by the CDFG analysis.
        self.metadata: dict[str, object] = {}
        for op in operands:
            self.add_operand(op)

    # -- operand management ------------------------------------------------
    def add_operand(self, value: Value) -> None:
        if value is None:
            raise ValueError(f"{self.opcode}: operand may not be None")
        self.operands.append(value)
        value.add_use(self)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        old.remove_use(self)
        self.operands[index] = value
        value.add_use(self)
        self.notify_mutation()

    def replace_operand(self, old: Value, new: Value) -> None:
        replaced = False
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                old.remove_use(self)
                new.add_use(self)
                replaced = True
        if replaced:
            self.notify_mutation()

    def drop_operands(self) -> None:
        for op in self.operands:
            op.remove_use(self)
        self.operands = []

    def notify_mutation(self) -> None:
        """Bump the owning function's mutation counter (no-op when detached)."""
        block = self.parent
        if block is not None and block.parent is not None:
            block.parent.notify_mutation()

    # -- classification ------------------------------------------------------
    def has_side_effects(self) -> bool:
        return self.opcode in SIDE_EFFECT_OPCODES

    def is_pure(self) -> bool:
        """True if the instruction can be removed when its result is unused."""
        return not self.has_side_effects() and not self.is_terminator

    # -- convenience ----------------------------------------------------------
    def erase(self) -> None:
        """Remove this instruction from its parent block and drop operands."""
        if self.parent is not None:
            block = self.parent
            block.instructions.remove(self)
            self.parent = None
            if block.parent is not None:
                block.parent.notify_mutation()
        self.drop_operands()

    def __str__(self) -> str:
        ops = ", ".join(op.ref() for op in self.operands)
        lhs = f"{self.ref()} = " if not self.type.is_void else ""
        return f"{lhs}{self.opcode} {ops}"


# ---------------------------------------------------------------------------
# Arithmetic and logic
# ---------------------------------------------------------------------------


class BinaryOp(Instruction):
    """A two-operand arithmetic or bitwise operation."""

    # The slot shadows the class-level default so the per-instance opcode
    # assignment in __init__ still works without an instance dict.
    __slots__ = ("opcode",)

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINOPS:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"{opcode}: operand types differ ({lhs.type} vs {rhs.type})"
            )
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = opcode

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPS

    def __str__(self) -> str:
        return (
            f"{self.ref()} = {self.opcode} {self.type} "
            f"{self.lhs.ref()}, {self.rhs.ref()}"
        )


class FCmp(Instruction):
    """Floating point comparison producing an i1."""

    opcode = "fcmp"
    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate {predicate!r}")
        super().__init__(BOOL, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def __str__(self) -> str:
        return (
            f"{self.ref()} = fcmp {self.predicate} {self.lhs.type} "
            f"{self.lhs.ref()}, {self.rhs.ref()}"
        )


class ICmp(Instruction):
    """Integer comparison producing an i1."""

    opcode = "icmp"
    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        super().__init__(BOOL, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def __str__(self) -> str:
        return (
            f"{self.ref()} = icmp {self.predicate} {self.lhs.type} "
            f"{self.lhs.ref()}, {self.rhs.ref()}"
        )


class Select(Instruction):
    """``select cond, a, b`` – the ternary operator."""

    opcode = "select"
    __slots__ = ()

    def __init__(self, cond: Value, true_value: Value, false_value: Value, name: str = ""):
        if true_value.type != false_value.type:
            raise TypeError("select arms must have identical types")
        super().__init__(true_value.type, [cond, true_value, false_value], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]

    def __str__(self) -> str:
        return (
            f"{self.ref()} = select {self.condition.ref()}, "
            f"{self.true_value.ref()}, {self.false_value.ref()}"
        )


class Cast(Instruction):
    """Type conversion instruction (``sitofp``, ``fptosi``, ``trunc`` ...)."""

    __slots__ = ("opcode",)

    def __init__(self, opcode: str, value: Value, target_type: IRType, name: str = ""):
        if opcode not in CAST_OPS:
            raise ValueError(f"unknown cast opcode {opcode!r}")
        super().__init__(target_type, [value], name)
        self.opcode = opcode

    @property
    def value(self) -> Value:
        return self.operands[0]

    def __str__(self) -> str:
        return (
            f"{self.ref()} = {self.opcode} {self.value.type} "
            f"{self.value.ref()} to {self.type}"
        )


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


class Alloca(Instruction):
    """Allocate ``allocated_type`` in function-local memory.

    The result is a pointer to the allocation.  After Distill's static data
    structure conversion, every model-level dict/list lives in a struct or
    array allocated either by the driver (parameters, node outputs) or by an
    ``alloca`` (scratch space inside a node function).
    """

    opcode = "alloca"
    __slots__ = ("allocated_type",)

    def __init__(self, allocated_type: IRType, name: str = ""):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type

    def __str__(self) -> str:
        return f"{self.ref()} = alloca {self.allocated_type}"


class Load(Instruction):
    """Load a scalar from a pointer."""

    opcode = "load"
    __slots__ = ()

    def __init__(self, ptr: Value, name: str = ""):
        if not ptr.type.is_pointer:
            raise TypeError(f"load requires a pointer operand, got {ptr.type}")
        super().__init__(ptr.type.pointee, [ptr], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    def __str__(self) -> str:
        return f"{self.ref()} = load {self.type}, {self.pointer.type} {self.pointer.ref()}"


class Store(Instruction):
    """Store a scalar value through a pointer."""

    opcode = "store"
    __slots__ = ()

    def __init__(self, value: Value, ptr: Value):
        if not ptr.type.is_pointer:
            raise TypeError(f"store requires a pointer operand, got {ptr.type}")
        super().__init__(VOID, [value, ptr], "")

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    def __str__(self) -> str:
        return (
            f"store {self.value.type} {self.value.ref()}, "
            f"{self.pointer.type} {self.pointer.ref()}"
        )


class GEP(Instruction):
    """``getelementptr`` flattened to slot arithmetic.

    ``GEP(ptr, indices)`` produces a pointer to the addressed member.  The
    first index scales by the full pointee size (as in LLVM); each subsequent
    index steps into the aggregate.  Struct field indices must be constants;
    array indices may be dynamic values.
    """

    opcode = "gep"
    __slots__ = ()

    def __init__(self, ptr: Value, indices: Sequence[Value], result_type: IRType, name: str = ""):
        if not ptr.type.is_pointer:
            raise TypeError(f"gep requires a pointer operand, got {ptr.type}")
        super().__init__(PointerType(result_type), [ptr] + list(indices), name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> list[Value]:
        return self.operands[1:]

    @staticmethod
    def resolve_type(pointee: IRType, indices: Sequence[Value]) -> IRType:
        """Compute the element type addressed by ``indices`` (after the first)."""
        current = pointee
        for idx in indices[1:]:
            if isinstance(current, StructType):
                if not isinstance(idx, Constant):
                    raise TypeError("struct field index must be a constant")
                current = current.field_type(int(idx.value))
            elif isinstance(current, ArrayType):
                current = current.element
            else:
                raise TypeError(f"cannot index into scalar type {current}")
        return current

    def __str__(self) -> str:
        idx = ", ".join(op.ref() for op in self.indices)
        return (
            f"{self.ref()} = getelementptr {self.pointer.type.pointee}, "
            f"{self.pointer.type} {self.pointer.ref()}, {idx}"
        )


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


class Phi(Instruction):
    """SSA phi node merging values from predecessor blocks."""

    opcode = "phi"
    __slots__ = ("incoming_blocks",)

    def __init__(self, ty: IRType, name: str = ""):
        super().__init__(ty, [], name)
        #: Parallel list of predecessor blocks (operand ``i`` flows from
        #: ``incoming_blocks[i]``).
        self.incoming_blocks: list["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self.add_operand(value)
        self.incoming_blocks.append(block)
        self.notify_mutation()

    def incoming(self) -> list[tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for_block(self, block: "BasicBlock") -> Optional[Value]:
        for value, pred in self.incoming():
            if pred is block:
                return value
        return None

    def remove_incoming_block(self, block: "BasicBlock") -> None:
        """Drop the incoming edge from ``block`` (used by CFG simplification)."""
        keep_values, keep_blocks = [], []
        removed = False
        for value, pred in self.incoming():
            if pred is block:
                value.remove_use(self)
                removed = True
            else:
                keep_values.append(value)
                keep_blocks.append(pred)
        self.operands = keep_values
        self.incoming_blocks = keep_blocks
        if removed:
            self.notify_mutation()

    def __str__(self) -> str:
        pairs = ", ".join(
            f"[ {v.ref()}, %{b.name} ]" for v, b in self.incoming()
        )
        return f"{self.ref()} = phi {self.type} {pairs}"


class Branch(Instruction):
    """Unconditional branch."""

    opcode = "br"
    is_terminator = True
    __slots__ = ("targets",)

    def __init__(self, target: "BasicBlock"):
        super().__init__(VOID, [], "")
        self.targets: list["BasicBlock"] = [target]

    @property
    def target(self) -> "BasicBlock":
        return self.targets[0]

    def successors(self) -> list["BasicBlock"]:
        return list(self.targets)

    def __str__(self) -> str:
        return f"br label %{self.target.name}"


class CondBranch(Instruction):
    """Conditional branch on an i1 condition."""

    opcode = "condbr"
    is_terminator = True
    __slots__ = ("targets",)

    def __init__(self, cond: Value, true_block: "BasicBlock", false_block: "BasicBlock"):
        super().__init__(VOID, [cond], "")
        self.targets: list["BasicBlock"] = [true_block, false_block]

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_block(self) -> "BasicBlock":
        return self.targets[0]

    @property
    def false_block(self) -> "BasicBlock":
        return self.targets[1]

    def successors(self) -> list["BasicBlock"]:
        return list(self.targets)

    def __str__(self) -> str:
        return (
            f"br {self.condition.ref()}, label %{self.true_block.name}, "
            f"label %{self.false_block.name}"
        )


class Return(Instruction):
    """Return from a function, optionally with a value."""

    opcode = "ret"
    is_terminator = True
    __slots__ = ()

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [], "")

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def successors(self) -> list["BasicBlock"]:
        return []

    def __str__(self) -> str:
        if self.value is None:
            return "ret void"
        return f"ret {self.value.type} {self.value.ref()}"


class Call(Instruction):
    """Call to another IR function or to a declared intrinsic."""

    opcode = "call"
    __slots__ = ("callee",)

    def __init__(self, callee: "Function", args: Sequence[Value], name: str = ""):
        ftype = callee.type
        if not isinstance(ftype, FunctionType):
            raise TypeError("call target must be a function")
        if len(args) != len(ftype.param_types):
            raise TypeError(
                f"call to {callee.name}: expected {len(ftype.param_types)} "
                f"arguments, got {len(args)}"
            )
        super().__init__(ftype.return_type, list(args), name)
        self.callee = callee

    @property
    def args(self) -> list[Value]:
        return list(self.operands)

    def is_intrinsic(self) -> bool:
        return self.callee.intrinsic_name is not None

    def has_side_effects(self) -> bool:
        # Pure math intrinsics can be freely removed / CSE'd; PRNG calls and
        # calls to defined functions are conservatively treated as effectful.
        if self.callee.intrinsic_name in MATH_INTRINSICS:
            return False
        return True

    def __str__(self) -> str:
        args = ", ".join(f"{a.type} {a.ref()}" for a in self.operands)
        lhs = f"{self.ref()} = " if not self.type.is_void else ""
        return f"{lhs}call {self.type} @{self.callee.name}({args})"
