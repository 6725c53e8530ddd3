"""Modules, functions and basic blocks of the repro IR."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .instructions import INTRINSICS, Instruction, Phi
from .types import F64, I64, VOID, FunctionType, IRType, PointerType, StructType
from .values import Argument


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.parent = parent
        self.instructions: list[Instruction] = []

    # -- construction ---------------------------------------------------
    def append(self, instr: Instruction) -> Instruction:
        instr.parent = self
        self.instructions.append(instr)
        if self.parent is not None:
            self.parent.notify_mutation()
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        instr.parent = self
        self.instructions.insert(index, instr)
        if self.parent is not None:
            self.parent.notify_mutation()
        return instr

    def remove(self, instr: Instruction) -> Instruction:
        """Detach ``instr`` from this block without dropping its operands.

        Used by passes that *move* an instruction (LICM); pair with
        :meth:`append`/:meth:`insert` on the destination block so the owning
        function's mutation counter observes both halves of the move.
        """
        self.instructions.remove(instr)
        instr.parent = None
        if self.parent is not None:
            self.parent.notify_mutation()
        return instr

    # -- queries ----------------------------------------------------------
    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        return term.successors()

    def predecessors(self) -> list["BasicBlock"]:
        if self.parent is None:
            return []
        preds = []
        for block in self.parent.blocks:
            if self in block.successors():
                preds.append(block)
        return preds

    def phis(self) -> list[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def non_phi_instructions(self) -> list[Instruction]:
        return [i for i in self.instructions if not isinstance(i, Phi)]

    def first_non_phi_index(self) -> int:
        for i, instr in enumerate(self.instructions):
            if not isinstance(instr, Phi):
                return i
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<BasicBlock {self.name} ({len(self.instructions)} instrs)>"


class Function:
    """An IR function: a list of basic blocks plus typed arguments.

    A function with no blocks is a *declaration* – either a math/PRNG
    intrinsic (``intrinsic_name`` is set) or an external symbol.
    """

    def __init__(
        self,
        name: str,
        ftype: FunctionType,
        module: Optional["Module"] = None,
        arg_names: Optional[Iterable[str]] = None,
    ):
        self.name = name
        self.type = ftype
        self.module = module
        self.blocks: list[BasicBlock] = []
        self.intrinsic_name: Optional[str] = None
        #: Free-form attributes (e.g. ``{"alwaysinline": True}``) consumed by
        #: the inliner and the backends.
        self.attributes: dict[str, object] = {}
        #: Metadata describing loops that can be executed in parallel
        #: (populated by the model code generator for grid-search regions).
        self.parallel_regions: list[dict] = []
        names = list(arg_names) if arg_names is not None else []
        self.args: list[Argument] = []
        for i, ptype in enumerate(ftype.param_types):
            arg_name = names[i] if i < len(names) else f"arg{i}"
            self.args.append(Argument(ptype, arg_name, i))
        self._name_counter = 0
        self._mutation_count = 0

    # -- mutation tracking -------------------------------------------------
    @property
    def mutation_count(self) -> int:
        """Monotonic counter bumped by every IR mutation of this function.

        The :class:`repro.analysis.manager.AnalysisManager` keys its cached
        analyses on this counter: a cached result is valid while the counter
        has not moved since it was computed (or while intervening passes
        declared the analysis preserved).  Every mutation API in
        :mod:`repro.ir` — block/instruction insertion and removal, operand
        rewriting, phi edge edits — bumps it; code that mutates the IR
        through raw list surgery must call :meth:`notify_mutation` itself.
        """
        return self._mutation_count

    def notify_mutation(self) -> None:
        self._mutation_count += 1
        if self.module is not None:
            self.module._mutation_count += 1

    # -- block / naming management ----------------------------------------
    def append_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(name or self.next_name("bb"), self)
        self.blocks.append(block)
        return block

    def next_name(self, prefix: str = "v") -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    @property
    def entry_block(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def return_type(self) -> IRType:
        return self.type.return_type

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} @{self.name} ({self.instruction_count()} instrs)>"


class Module:
    """A collection of functions and named struct types."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.structs: dict[str, StructType] = {}
        self._mutation_count = 0

    # -- mutation tracking ---------------------------------------------------
    @property
    def mutation_count(self) -> int:
        """Monotonic counter: bumped by function-set changes and by every
        mutation of any contained function (see :meth:`Function.notify_mutation`)."""
        return self._mutation_count

    def notify_mutation(self) -> None:
        self._mutation_count += 1

    # -- functions -----------------------------------------------------------
    def add_function(
        self,
        name: str,
        ftype: FunctionType,
        arg_names: Optional[Iterable[str]] = None,
    ) -> Function:
        if name in self.functions:
            raise ValueError(f"function {name!r} already defined in module {self.name}")
        fn = Function(name, ftype, self, arg_names)
        self.functions[name] = fn
        self._mutation_count += 1
        return fn

    def get_function(self, name: str) -> Function:
        return self.functions[name]

    def declare_intrinsic(self, intrinsic: str) -> Function:
        """Get-or-create the declaration for a math/PRNG/memory intrinsic."""
        if intrinsic not in INTRINSICS:
            raise ValueError(f"unknown intrinsic {intrinsic!r}")
        name = f"repro.{intrinsic}"
        if name in self.functions:
            return self.functions[name]
        if intrinsic in ("pow", "fmin", "fmax", "copysign"):
            ftype = FunctionType(F64, [F64, F64])
        elif intrinsic in ("rng_uniform", "rng_normal"):
            ftype = FunctionType(F64, [PointerType(F64)])
        elif intrinsic == "memcpy":
            ftype = FunctionType(VOID, [PointerType(F64), PointerType(F64), I64])
        elif intrinsic == "memset":
            ftype = FunctionType(VOID, [PointerType(F64), F64, I64])
        else:
            ftype = FunctionType(F64, [F64])
        fn = Function(name, ftype, self)
        fn.intrinsic_name = intrinsic
        self.functions[name] = fn
        self._mutation_count += 1
        return fn

    # -- structs ---------------------------------------------------------------
    def add_struct(self, struct: StructType) -> StructType:
        self.structs[struct.name] = struct
        return struct

    def get_struct(self, name: str) -> StructType:
        return self.structs[name]

    # -- queries ------------------------------------------------------------
    def defined_functions(self) -> list[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.defined_functions())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{self.instruction_count()} instrs>"
        )
