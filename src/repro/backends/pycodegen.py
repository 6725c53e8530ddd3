"""Compiled execution: translate IR into flat Python source.

This backend is the reproduction's analogue of native code generation.  The
paper lowers models to LLVM IR and executes machine code; without llvmlite or
a C toolchain in this environment, the closest equivalent that preserves the
*reason* for the speedup is to emit plain Python source with

* no per-instruction dispatch (the interpreter's cost),
* no framework objects, dictionaries, Parameter descriptors or string keys —
  only local variables and flat slot buffers,
* math intrinsics inlined around the C-implemented ``math`` functions
  (calling :mod:`runtime` only at their singular points, see
  ``_INTRINSIC_FMT``) and the PRNG inlined as integer arithmetic,

compile it once with :func:`compile` and call the resulting functions.  The
per-operation overhead drops from "framework bookkeeping + dict lookups" to a
single Python bytecode operation, which is what produces the order-of-
magnitude gaps measured in the benchmark harness (absolute factors are
smaller than the paper's native-code numbers; see DESIGN.md).

Control flow is emitted **structurally**: natural loops and if/else regions
are reconstructed from the cached dominator-tree and loop-info analyses and
rendered as native Python ``while``/``if``/``else``/``continue``/``break``.
There is one region walk (:class:`_StructuredFunction`); the masked lane
emitter (:class:`_LaneFunction`) reuses it and overrides only how each
region is printed.  The walk is total on the reducible CFGs that IR
generation and the pass pipeline produce; a function it cannot express (an
irreducible CFG from hand-written IR or a user-registered pass, a loop with
several exit targets) raises :class:`~repro.errors.CompilationError`, and
such IR still runs on the ``ir-interp`` engine.  ``ir-interp`` is the
structured emitter's bitwise reference (the fuzz oracle's engine leg).

The structured emitter also plans memory and scalar traffic at codegen time:

* constant-index ``getelementptr`` chains fold to integer slot offsets (no
  run-time offset arithmetic, no ``_buf``/``_off`` pair assignments);
* every ``alloca`` receives a liveness-coalesced slot range inside one flat
  per-call ``_frame`` buffer instead of allocating its own list;
* repeated/non-finite float constants, intrinsic bindings
  (``_intrinsics["exp"]`` dict lookups become one closure cell) and
  loop-invariant ``(buffer, offset)`` call tuples are pooled into locals of
  the module factory function, captured by the generated functions' closures;
* phi copies on an edge collapse into one parallel multiple-assignment, and
  comparisons produce raw bools instead of ``1 if … else 0`` wrappers.

See DESIGN.md, "Structured emission and the frame planner".
"""

from __future__ import annotations

import math
from types import CodeType
from typing import Dict, List, Optional, Tuple

from ..errors import CompilationError
from ..ir.cfg import is_reducible
from ..ir.instructions import (
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
    Load,
    Phi,
    Return,
    Select,
    Store,
)
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import ArrayType, StructType
from ..ir.values import Constant, UndefValue, Value
from ..passes.dominators import DominatorTree
from ..passes.loopinfo import LoopInfo
from . import runtime

#: Version of the Python lowering.  Artifact-store keys include it so cached
#: compiled sources are invalidated whenever the emitter's output changes
#: (bump on any change that alters generated source or its runtime contract).
CODEGEN_VERSION = 8


#: Operands are always simple names or constants, so ``fdiv`` tests the
#: denominator inline and only calls the runtime at the singular point,
#: keeping the common case a single BINARY_OP.  ``_fdiv``, ``_frem``,
#: ``_sdiv``, ``_srem``, ``_shl`` and ``_ashr`` are :mod:`runtime`'s
#: functions (see :meth:`PythonCodeGenerator.exec_namespace`); a shift by a
#: constant amount in ``0..63`` is the bare operator (:func:`_binop_format`).
_BINOP_FMT = {
    "fadd": "({a} + {b})",
    "fsub": "({a} - {b})",
    "fmul": "({a} * {b})",
    "fdiv": "({a} / {b} if {b} else _fdiv({a}, {b}))",
    "frem": "_frem({a}, {b})",
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "sdiv": "_sdiv({a}, {b})",
    "srem": "_srem({a}, {b})",
    "and": "({a} & {b})",
    "or": "({a} | {b})",
    "xor": "({a} ^ {b})",
    "shl": "_shl({a}, {b})",
    "ashr": "_ashr({a}, {b})",
}

_IN_RANGE_SHIFT_FMT = {"shl": "({a} << {b})", "ashr": "({a} >> {b})"}


def _binop_format(instr: BinaryOp) -> str:
    """The expression template of a binop (shared by the scalar and lane
    dialects, whose namespaces bind ``_shl``/``_ashr``)."""
    rhs = instr.rhs
    if (
        instr.opcode in _IN_RANGE_SHIFT_FMT
        and isinstance(rhs, Constant)
        and 0 <= int(rhs.value) <= 63
    ):
        return _IN_RANGE_SHIFT_FMT[instr.opcode]
    return _BINOP_FMT[instr.opcode]


#: Python's (and numpy's) ``<``/``==``/... are already False for a NaN
#: operand, which is the ordered semantics; ``!=`` is True, so ``one``
#: is spelled as ``<`` or ``>`` (``|`` works on bools and lane arrays).
_FCMP_FMT = {
    "oeq": "({a} == {b})",
    "one": "(({a} < {b}) | ({a} > {b}))",
    "olt": "({a} < {b})",
    "ole": "({a} <= {b})",
    "ogt": "({a} > {b})",
    "oge": "({a} >= {b})",
}

_ICMP_FMT = {
    "eq": "({a} == {b})",
    "ne": "({a} != {b})",
    "slt": "({a} < {b})",
    "sle": "({a} <= {b})",
    "sgt": "({a} > {b})",
    "sge": "({a} >= {b})",
}

#: The scalar intrinsic lowering (the PRNG draws are inlined separately).
#: A template is an expression over the argument names ``{a}``/``{b}``, the
#: runtime implementation ``{f}`` (``runtime.INTRINSIC_IMPLS``) and the C
#: function ``{m}`` of the same name in ``math``: the fast path runs inline
#: and calls ``{f}`` only at its singular point (``x - x == 0.0`` is the
#: finiteness test; ``math.exp`` overflows past 709.78).  An intrinsic
#: without a cheap fast path is a plain call to ``{f}``.
_INTRINSIC_FMT = {
    "exp": "{m}({a}) if {a} < 700.0 else {f}({a})",
    "log": "{m}({a}) if {a} > 0.0 else {f}({a})",
    "sqrt": "{m}({a}) if {a} >= 0.0 else {f}({a})",
    "sin": "{m}({a}) if {a} - {a} == 0.0 else {f}({a})",
    "cos": "{m}({a}) if {a} - {a} == 0.0 else {f}({a})",
    "floor": "{m}({a}) + 0.0 if {a} - {a} == 0.0 else {f}({a})",
    "ceil": "{m}({a}) + 0.0 if {a} - {a} == 0.0 else {f}({a})",
    "fmin": "{b} if {b} < {a} or {a} != {a} else {a}",
    "fmax": "{b} if {b} > {a} or {a} != {a} else {a}",
    "log1p": "{f}({a})",
    "tanh": "{f}({a})",
    "fabs": "{f}({a})",
    "pow": "{f}({a}, {b})",
    "copysign": "{f}({a}, {b})",
}

#: A block-memory intrinsic (``memcpy``/``memset``) of at most this many
#: slots lowers to one multiple assignment over its slots, a longer one to
#: a list slice assignment.  Measured on CPython 3.11 with the run-time
#: offsets the driver's pointer arguments carry (``buf[off + k]``): a
#: 3-slot copy is 84 ns expanded against 177 ns as a slice, a 5-slot copy
#: 275 ns against 175 ns, and a fill crosses over at 5 slots too.
_BLOCK_EXPAND_MAX = 4

#: Finite float constants shorter than this stay literals: a ``LOAD_CONST``
#: is cheaper than a closure-cell load, so pooling only pays for long
#: mantissas (source-size + compile-time win) and non-finite values (which
#: are built by a call: ``float("inf")``, or ``_f64(bits)`` for a NaN).
_POOL_MIN_REPR = 6


class _Bailout(Exception):
    """Raised when a function cannot be expressed structurally.

    :class:`PythonCodeGenerator` turns it into a ``CompilationError`` naming
    the function; :class:`LanePythonCodeGenerator` catches it per function
    and falls back to per-lane scalar dispatch.
    """


def _block_count(instr: Call) -> int:
    """The slot count of a ``memcpy``/``memset`` call (the verifier requires
    a non-negative constant)."""
    count = instr.args[2]
    if not isinstance(count, Constant) or int(count.value) < 0:
        raise _Bailout(f"{instr.callee.intrinsic_name} count is not a non-negative constant")
    return int(count.value)


class _Ptr:
    """Symbolic pointer: buffer name + (runtime base symbol, constant delta).

    ``buf`` is a Python expression naming the slot buffer (an unpacked
    pointer argument's ``<arg>_buf`` or the function's ``_frame``).  The slot
    offset is ``base + const`` where ``base`` is either ``None`` (fully
    constant offset) or the name of a run-time offset local.
    """

    __slots__ = ("buf", "base", "const")

    def __init__(self, buf: str, base: Optional[str], const: int):
        self.buf = buf
        self.base = base
        self.const = const

    def advanced(self, delta: int) -> "_Ptr":
        return _Ptr(self.buf, self.base, self.const + delta)


class _AllocaPlan:
    __slots__ = ("start", "size", "zero_at_site")

    def __init__(self, start: int, size: int, zero_at_site: bool):
        self.start = start
        self.size = size
        self.zero_at_site = zero_at_site


class _StructuredFunction:
    """Per-function state of the structured emitter: the relooper plus the
    frame/pointer planner.  Also acts as the pointer strategy consumed by
    :meth:`PythonCodeGenerator._emit_instruction`."""

    _LOOP = "loop"
    _FOLLOW = "follow"

    def __init__(self, gen: "PythonCodeGenerator", fn: Function):
        self.gen = gen
        self.fn = fn
        self.domtree, self.loopinfo = gen._cfg_analyses(fn)
        # The dominator tree already carries the CFG walks this emitter
        # needs: its RPO (unreachable blocks trail at the end and have no
        # idom entry) and the predecessor map.  Reusing them keeps the
        # lowering stage free of redundant O(V+E) traversals.
        self._reachable_ids = {id(b) for b in fn.blocks if b in self.domtree.idom}
        self.reachable = [b for b in self.domtree.rpo if id(b) in self._reachable_ids]
        if not is_reducible(fn, self.domtree):
            raise _Bailout(f"irreducible CFG in @{fn.name}")
        rpo = self.reachable
        self.rpo_index = {id(b): i for i, b in enumerate(rpo)}
        self.preds = {
            block: [p for p in preds if id(p) in self._reachable_ids]
            for block, preds in self.domtree.preds.items()
            if id(block) in self._reachable_ids
        }
        self.loops_by_header = {id(l.header): l for l in self.loopinfo.loops}
        self.loop_follow: Dict[int, Optional[BasicBlock]] = {}
        for loop in self.loopinfo.loops:
            exits = [e for e in loop.exit_blocks() if id(e) in self._reachable_ids]
            if len(exits) > 1:
                raise _Bailout(
                    f"loop at {loop.header.name} in @{fn.name} has "
                    f"{len(exits)} distinct exit targets"
                )
            self.loop_follow[id(loop.header)] = exits[0] if exits else None
        self.emitted: set[int] = set()
        #: The region mask of the block being printed (lane emitter only).
        self.cur_mask: Optional[str] = self._ENTRY_MASK

        # -- memory / pointer planning (before any emission) -----------------
        self.frame_size = 0
        self.alloca_plans: Dict[int, _AllocaPlan] = {}
        self.ptrs: Dict[int, _Ptr] = {}
        self.gep_code: Dict[int, str] = {}
        self._arg_off_syms: set[str] = set()
        self._arg_tuple_of: Dict[str, str] = {}  # "<arg>_off" -> parameter name
        self._use_counts: Dict[Tuple[str, int], int] = {}
        self.hoisted: Dict[Tuple[str, int], str] = {}
        self._pointer_tuples: Dict[Tuple[str, Optional[str], int], str] = {}
        #: (buf, base, const, count) -> prologue flag: the block of ``count``
        #: slots at that entry-stable pointer lies inside its list.
        self._range_flags: Dict[Tuple[str, str, int, int], str] = {}
        #: id(pointer value) -> the Alloca it derives from (via GEP chains).
        self.alloca_root: Dict[int, Alloca] = {}
        self._plan_frame(rpo)
        self._plan_pointers(rpo)

        # -- sanitizer facts (sanitize mode only) --------------------------
        self.san_escaped: frozenset = frozenset()
        self.san_div_classes: Dict[int, str] = {}
        self.san_vrp = None
        if gen.sanitize:
            self._plan_sanitizer()

    # ------------------------------------------------------------------
    # Frame planning: liveness-coalesced alloca slot ranges
    # ------------------------------------------------------------------
    def _plan_frame(self, rpo: List[BasicBlock]) -> None:
        positions: Dict[int, int] = {}
        block_span: Dict[int, Tuple[int, int]] = {}
        counter = 0
        for block in rpo:
            start = counter
            for instr in block.instructions:
                positions[id(instr)] = counter
                counter += 1
            block_span[id(block)] = (start, counter - 1 if counter > start else start)

        allocas = [
            instr
            for block in rpo
            for instr in block.instructions
            if isinstance(instr, Alloca)
        ]
        if not allocas:
            return

        loop_spans = []
        loop_block_ids = []
        for loop in self.loopinfo.loops:
            spans = [block_span[id(b)] for b in loop.blocks if id(b) in block_span]
            if spans:
                loop_spans.append((min(s for s, _ in spans), max(e for _, e in spans)))
                loop_block_ids.append({id(b) for b in loop.blocks})

        intervals: Dict[int, Tuple[int, int]] = {}
        in_loop: Dict[int, bool] = {}
        for alloca in allocas:
            uses = {positions[id(alloca)]}
            stack: List[Value] = [alloca]
            seen = {id(alloca)}
            while stack:
                value = stack.pop()
                for user in value.uses:
                    pos = positions.get(id(user))
                    if pos is not None:
                        uses.add(pos)
                    if isinstance(user, GEP) and id(user) not in seen:
                        seen.add(id(user))
                        stack.append(user)
            lo, hi = min(uses), max(uses)
            # A live range that touches a loop covers the whole loop: the
            # back edge may revisit any position inside it.
            changed = True
            while changed:
                changed = False
                for span_lo, span_hi in loop_spans:
                    if lo <= span_hi and hi >= span_lo and (lo > span_lo or hi < span_hi):
                        lo, hi = min(lo, span_lo), max(hi, span_hi)
                        changed = True
            intervals[id(alloca)] = (lo, hi)
            in_loop[id(alloca)] = any(
                id(alloca.parent) in ids for ids in loop_block_ids
            )

        # Greedy slot assignment: reuse the frame range of any alloca whose
        # live interval is disjoint from ours.
        placed: List[Tuple[Tuple[int, int], int, int, Alloca]] = []
        shared: set[int] = set()
        for alloca in sorted(allocas, key=lambda a: intervals[id(a)]):
            size = max(alloca.allocated_type.slot_count(), 1)
            lo, hi = intervals[id(alloca)]
            conflicts = sorted(
                (slot_start, slot_start + slot_size)
                for (other_lo, other_hi), slot_start, slot_size, other in placed
                if not (hi < other_lo or other_hi < lo)
            )
            start = 0
            for c_start, c_end in conflicts:
                if start + size <= c_start:
                    break
                start = max(start, c_end)
            for (_, s, sz, other) in placed:
                if not (start + size <= s or start >= s + sz):
                    shared.add(id(alloca))
                    shared.add(id(other))
            placed.append(((lo, hi), start, size, alloca))
            self.frame_size = max(self.frame_size, start + size)
        for (_, start, size, alloca) in placed:
            self.alloca_plans[id(alloca)] = _AllocaPlan(
                start, size, in_loop[id(alloca)] or id(alloca) in shared
            )

    # ------------------------------------------------------------------
    # Pointer planning: GEP folding + hoist-count bookkeeping
    # ------------------------------------------------------------------
    def _plan_pointers(self, rpo: List[BasicBlock]) -> None:
        gen = self.gen
        for arg in self.fn.args:
            if arg.type.is_pointer:
                name = gen._name(arg)
                self.ptrs[id(arg)] = _Ptr(f"{name}_buf", f"{name}_off", 0)
                self._arg_off_syms.add(f"{name}_off")
                self._arg_tuple_of[f"{name}_off"] = name

        def base_ptr(value: Value) -> _Ptr:
            ptr = self.ptrs.get(id(value))
            if ptr is None:
                raise _Bailout(
                    f"unsupported pointer producer {type(value).__name__} in @{self.fn.name}"
                )
            return ptr

        for block in rpo:
            for instr in block.instructions:
                if isinstance(instr, Alloca):
                    plan = self.alloca_plans[id(instr)]
                    self.ptrs[id(instr)] = _Ptr("_frame", None, plan.start)
                    self.alloca_root[id(instr)] = instr
                elif isinstance(instr, GEP):
                    self._fold_gep(instr, base_ptr(instr.pointer))
                    root = self.alloca_root.get(id(instr.pointer))
                    if root is not None:
                        self.alloca_root[id(instr)] = root
                elif isinstance(instr, Load):
                    self._count_use(base_ptr(instr.pointer))
                elif isinstance(instr, Store):
                    self._count_use(base_ptr(instr.pointer))
                elif isinstance(instr, Call):
                    if instr.callee.intrinsic_name in ("rng_uniform", "rng_normal"):
                        state = base_ptr(instr.args[0])
                        self._count_use(state)
                        self._count_use(state.advanced(1))
                        self._count_use(state.advanced(1))
                    else:
                        for arg in instr.args:
                            if arg.type.is_pointer:
                                base_ptr(arg)  # validate producer support

        for key, count in self._use_counts.items():
            if count >= 2:
                base, const = key
                suffix = str(const) if const >= 0 else f"m{-const}"
                self.hoisted[key] = f"_{base}_{suffix}"

    def _fold_gep(self, instr: GEP, base: _Ptr) -> None:
        const, dynamic = self.gen._gep_terms(instr)
        if not dynamic:
            self.ptrs[id(instr)] = _Ptr(base.buf, base.base, base.const + const)
            return
        terms: List[str] = []
        if base.base is not None:
            terms.append(base.base)
        terms.extend(dynamic)
        total_const = base.const + const
        if total_const:
            terms.append(str(total_const))
        name = f"{self.gen._name(instr)}_off"
        self.gep_code[id(instr)] = f"{name} = " + " + ".join(terms)
        self.ptrs[id(instr)] = _Ptr(base.buf, name, 0)

    def _count_use(self, ptr: _Ptr) -> None:
        if ptr.base in self._arg_off_syms and ptr.const:
            key = (ptr.base, ptr.const)
            self._use_counts[key] = self._use_counts.get(key, 0) + 1

    def _offset_expr(self, ptr: _Ptr) -> str:
        if ptr.base is None:
            return str(ptr.const)
        if not ptr.const:
            return ptr.base
        hoisted = self.hoisted.get((ptr.base, ptr.const))
        if hoisted is not None:
            return hoisted
        if ptr.const > 0:
            return f"{ptr.base} + {ptr.const}"
        return f"{ptr.base} - {-ptr.const}"

    def prologue(self) -> List[str]:
        """Per-call setup: the frame, hoisted offsets, pooled call tuples."""
        lines = self._frame_lines()
        for (base, const), name in sorted(self.hoisted.items(), key=lambda kv: kv[1]):
            op = f"+ {const}" if const > 0 else f"- {-const}"
            lines.append(f"{name} = {base} {op}")
        for (buf, base, const), name in sorted(
            self._pointer_tuples.items(), key=lambda kv: kv[1]
        ):
            off = self._offset_expr(_Ptr(buf, base, const))
            lines.append(f"{name} = ({buf}, {off})")
        for (buf, base, const, count), name in sorted(
            self._range_flags.items(), key=lambda kv: kv[1]
        ):
            off = self._offset_expr(_Ptr(buf, base, const))
            lines.append(f"{name} = 0 <= {off} <= len({buf}) - {count}")
        return lines

    def _frame_lines(self) -> List[str]:
        if not self.frame_size:
            return []
        lines = [f"_frame = [0.0] * {self.frame_size}"]
        if self.gen.sanitize:
            # Shadow init map: one byte per frame slot, set on store.
            lines.append(f"_init = bytearray({self.frame_size})")
        return lines

    # -- pointer strategy interface ------------------------------------
    def pointer_ref(self, value: Value) -> Tuple[str, str]:
        ptr = self.ptrs[id(value)]
        return ptr.buf, self._offset_expr(ptr)

    def pointer_ref_plus1(self, value: Value) -> Tuple[str, str]:
        ptr = self.ptrs[id(value)].advanced(1)
        return ptr.buf, self._offset_expr(ptr)

    def slot_ref(self, value: Value, slot: int) -> str:
        """``buf[offset]`` of slot ``slot`` past the pointer ``value``."""
        ptr = self.ptrs[id(value)].advanced(slot)
        return f"{ptr.buf}[{self._offset_expr(ptr)}]"

    def slice_ref(self, value: Value, count: int) -> str:
        """``buf[start:end]`` of the ``count`` slots at the pointer ``value``."""
        ptr = self.ptrs[id(value)]
        end = self._offset_expr(ptr.advanced(count))
        return f"{ptr.buf}[{self._offset_expr(ptr)}:{end}]"

    def block_range_guard(self, intrinsic: str, values: List[Value], count: int) -> List[str]:
        """A line raising ``IndexError`` unless each pointer in ``values``
        has ``count`` slots inside its list.  A frame range is decided here;
        one at an argument's offset plus a constant is tested once per call
        in the prologue (the driver's loop-carried swap then costs one flag
        test per pass)."""
        checks = []
        for value in values:
            ptr = self.ptrs[id(value)]
            if ptr.base is None:
                if not 0 <= ptr.const <= self.frame_size - count:
                    checks.append("True")
            elif ptr.base in self._arg_off_syms:
                key = (ptr.buf, ptr.base, ptr.const, count)
                flag = self._range_flags.setdefault(key, f"_ok{len(self._range_flags)}")
                checks.append(f"not {flag}")
            else:
                start = self._offset_expr(ptr)
                checks.append(f"not 0 <= {start} <= len({ptr.buf}) - {count}")
        if not checks:
            return []
        msg = f"{intrinsic} of {count} slots outside its buffer"
        return [f"if {' or '.join(checks)}: raise IndexError({msg!r})"]

    def call_arg(self, value: Value) -> str:
        ptr = self.ptrs[id(value)]
        if ptr.base is not None and ptr.base not in self._arg_off_syms:
            # Offset local materialised mid-function: build the pair inline.
            return f"({ptr.buf}, {self._offset_expr(ptr)})"
        if ptr.const == 0 and ptr.base in self._arg_tuple_of:
            # The argument's own tuple can be forwarded unchanged.
            return self._arg_tuple_of[ptr.base]
        # Entry-stable pair: build it once per call in the prologue.
        key = (ptr.buf, ptr.base, ptr.const)
        name = self._pointer_tuples.get(key)
        if name is None:
            name = f"_p{len(self._pointer_tuples)}"
            self._pointer_tuples[key] = name
        return name

    def emit_alloca(self, instr: Alloca) -> List[str]:
        plan = self.alloca_plans[id(instr)]
        lines: List[str] = []
        if self.gen.sanitize and id(instr) not in self.san_escaped:
            # Executing the alloca yields fresh (uninitialised) storage in
            # the static model, so the shadow map resets here too — exactly
            # the definite-init analysis's Alloca transfer.
            lines.append(
                f"_init[{plan.start}:{plan.start + plan.size}] = bytes({plan.size})"
            )
        if not plan.zero_at_site:
            return lines  # the frame is zero-filled at function entry
        if plan.size == 1:
            lines.append(f"_frame[{plan.start}] = 0.0")
            return lines
        zeros = self.gen._zero_tuple(plan.size)
        lines.append(f"_frame[{plan.start}:{plan.start + plan.size}] = {zeros}")
        return lines

    def emit_gep(self, instr: GEP) -> List[str]:
        line = self.gep_code.get(id(instr))
        return [line] if line is not None else []

    # ------------------------------------------------------------------
    # Sanitizer instrumentation (gen.sanitize only)
    # ------------------------------------------------------------------
    def _plan_sanitizer(self) -> None:
        # Lazy import: the analysis package must not become a hard import of
        # the backend module (it pulls in the whole repro.analysis tree).
        from ..analysis.dataflow import MemoryFacts, classify_divisions
        from ..analysis.vrp import ValueRangePropagation

        facts = MemoryFacts(self.fn)
        self.san_escaped = facts.escaped
        # The sanitizer validates *assumption-free* claims only: its private
        # VRP leaves normal draws unbounded, so a trap can never be blamed on
        # the lint suite's default ±sigma noise assumption.
        self.san_vrp = ValueRangePropagation(
            self.fn, assume_normal_range=None
        ).run()
        self.san_div_classes = classify_divisions(
            self.fn, self.san_vrp, self.domtree
        )

    def _san_where(self, instr) -> str:
        node = instr.metadata.get("source_node") if instr.metadata else None
        where = f"@{self.fn.name}"
        if node is not None:
            where += f" node={node}"
        return where

    def sanitized_load(self, instr: Load, name: str) -> List[str]:
        ptr = self.ptrs[id(instr.pointer)]
        where = self._san_where(instr)
        root = self.alloca_root.get(id(instr.pointer))
        if root is not None:
            plan = self.alloca_plans[id(root)]
            lo, hi = plan.start, plan.start + plan.size
            tracked = id(root) not in self.san_escaped
            if ptr.base is None:
                slot = ptr.const
                if not (lo <= slot < hi):
                    msg = (
                        f"out-of-bounds load: slot {slot - lo} of "
                        f"{plan.size}-slot alloca {where}"
                    )
                    return [f"_san_trap({msg!r})", f"{name} = 0.0"]
                lines = []
                if tracked:
                    msg = f"use-before-init load: slot {slot - lo} of alloca {where}"
                    lines.append(f"if not _init[{slot}]: _san_trap({msg!r})")
                lines.append(f"{name} = _frame[{slot}]")
                return lines
            # Dynamic offset: bounds only.  The definite-init checker does
            # not claim anything path-sensitive about dynamic loads (it only
            # warns when *no* slot is initialised), so an init trap here
            # could fire on lint-clean models and break the cross-check.
            off = self._offset_expr(ptr)
            msg = (
                f"out-of-bounds load: dynamic slot outside "
                f"{plan.size}-slot alloca {where}"
            )
            return [
                f"_s = {off}",
                f"if _s < {lo} or _s >= {hi}: _san_trap({msg!r})",
                f"{name} = _frame[_s]",
            ]
        buf, off = self.pointer_ref(instr.pointer)
        msg = f"out-of-bounds load: offset outside buffer {where}"
        return [
            f"_s = {off}",
            f"if _s < 0 or _s >= len({buf}): _san_trap({msg!r})",
            f"{name} = {buf}[_s]",
        ]

    def sanitized_store(self, instr: Store, value_expr: str) -> List[str]:
        ptr = self.ptrs[id(instr.pointer)]
        where = self._san_where(instr)
        root = self.alloca_root.get(id(instr.pointer))
        if root is not None:
            plan = self.alloca_plans[id(root)]
            lo, hi = plan.start, plan.start + plan.size
            tracked = id(root) not in self.san_escaped
            if ptr.base is None:
                slot = ptr.const
                if not (lo <= slot < hi):
                    msg = (
                        f"out-of-bounds store: slot {slot - lo} of "
                        f"{plan.size}-slot alloca {where}"
                    )
                    return [f"_san_trap({msg!r})"]
                lines = [f"_frame[{slot}] = {value_expr}"]
                if tracked:
                    lines.append(f"_init[{slot}] = 1")
                return lines
            off = self._offset_expr(ptr)
            msg = (
                f"out-of-bounds store: dynamic slot outside "
                f"{plan.size}-slot alloca {where}"
            )
            lines = [
                f"_s = {off}",
                f"if _s < {lo} or _s >= {hi}: _san_trap({msg!r})",
                f"_frame[_s] = {value_expr}",
            ]
            if tracked:
                # The definite-init analysis models a dynamic store as
                # initialising the whole alloca; the shadow must agree or a
                # later constant-offset load would trap on a clean model.
                lines.append(f"_init[{lo}:{hi}] = b'\\x01' * {plan.size}")
            return lines
        buf, off = self.pointer_ref(instr.pointer)
        msg = f"out-of-bounds store: offset outside buffer {where}"
        return [
            f"_s = {off}",
            f"if _s < 0 or _s >= len({buf}): _san_trap({msg!r})",
            f"{buf}[_s] = {value_expr}",
        ]

    def sanitized_block(self, instr: Call, count: int) -> List[str]:
        """Bounds checks of a ``memcpy``/``memset``: every slot of each range
        must lie inside its alloca or buffer.  An alloca operand is escaped
        (:class:`~repro.analysis.dataflow.MemoryFacts` counts any call
        argument as an escape), so no shadow init state moves."""
        if not count:
            return []
        intrinsic = instr.callee.intrinsic_name
        operands = [("destination", instr.args[0])]
        if intrinsic == "memcpy":
            operands.append(("source", instr.args[1]))
        lines: List[str] = []
        for role, value in operands:
            ptr = self.ptrs[id(value)]
            root = self.alloca_root.get(id(value))
            if root is not None:
                plan = self.alloca_plans[id(root)]
                lo, hi = plan.start, plan.start + plan.size
                region = f"{plan.size}-slot alloca"
            else:
                lo, hi = 0, f"len({ptr.buf})"
                region = "buffer"
            msg = (
                f"out-of-bounds {intrinsic}: {count}-slot {role} range outside "
                f"{region} {self._san_where(instr)}"
            )
            if root is not None and ptr.base is None:
                if not (lo <= ptr.const and ptr.const + count <= hi):
                    lines.append(f"_san_trap({msg!r})")
                continue
            lines.append(f"_s = {self._offset_expr(ptr)}")
            lines.append(f"if _s < {lo} or _s + {count} > {hi}: _san_trap({msg!r})")
        return lines

    def sanitized_binop(self, instr: BinaryOp, name: str, line: str) -> List[str]:
        lines: List[str] = []
        if instr.opcode in ("fdiv", "frem", "sdiv", "srem"):
            # Only divisions the analyses *proved* zero-free are trapped;
            # "safe-select" divisions legitimately see a zero divisor (the
            # select discards the poisoned result), and "zero-maybe"/
            # "unknown" ones carry a lint finding already.
            if self.san_div_classes.get(id(instr)) in ("safe-range", "safe-guard"):
                b = self.gen._name(instr.rhs)
                zero = "0.0" if instr.opcode in ("fdiv", "frem") else "0"
                msg = (
                    f"zero-divisor: {instr.opcode} divisor proven nonzero "
                    f"was zero {self._san_where(instr)}"
                )
                lines.append(f"if {b} == {zero}: _san_trap({msg!r})")
        lines.append(line)
        lines.extend(self._san_result_checks(instr, name))
        return lines

    def _san_result_checks(self, instr, name: str) -> List[str]:
        if not instr.type.is_float:
            return []
        rng = self.san_vrp.range_of(instr)
        if not rng.definitely_not_nan():
            return []
        where = self._san_where(instr)
        if rng.is_finite():
            isfinite = self.gen._alias("_isfinite", "math.isfinite")
            msg = f"non-finite result: value proven finite was not {where}"
            return [f"if not {isfinite}({name}): _san_trap({msg!r})"]
        msg = f"non-finite result: value proven not-NaN was NaN {where}"
        return [f"if {name} != {name}: _san_trap({msg!r})"]

    # ------------------------------------------------------------------
    # The relooper: one region walk.  Every decision (bails, loop follows,
    # merge selection, edge realization, goto resolution) lives here; how a
    # region is *printed* is delegated to the hooks below, which
    # :class:`_LaneFunction` overrides.  ``mask`` is the lane emitter's
    # region mask and stays ``None`` in the scalar walk.
    #
    # A walk step is ``(block, ctx, mask)``.  Only a loop body and a
    # conditional's arms open a nested chain (and are printed indented);
    # the tail positions — a branch to its sole forward successor, the
    # merges after a conditional, a loop's follow — continue the current
    # chain's loop, so recursion depth is the region nesting depth.
    # ------------------------------------------------------------------
    def emit(self) -> List[str]:
        lines = self._emit_chain(self.fn.entry_block, (), self._ENTRY_MASK)
        if len(self.emitted) != len(self.reachable):
            raise _Bailout(
                f"structured emission missed blocks in @{self.fn.name}"
            )
        return lines

    def _emit_chain(
        self, block: BasicBlock, ctx: tuple, mask: Optional[str], in_loop: bool = False
    ) -> List[str]:
        """The lines of the chain of regions starting at ``block``.

        ``in_loop``: ``block`` is a loop header already entered by
        :meth:`_emit_loop`, and the chain is that loop's body.
        """
        lines: List[str] = []
        pending: List[tuple] = []  # merge steps still due here, the next last
        while True:
            if in_loop:
                in_loop = False
                step = self._emit_block_code(block, ctx, mask, lines, pending)
            else:
                if id(block) in self.emitted:
                    raise _Bailout(f"block {block.name} reached twice in @{self.fn.name}")
                self.emitted.add(id(block))
                if id(block) in self.loops_by_header:
                    step = self._emit_loop(block, ctx, mask, lines)
                else:
                    step = self._emit_block_code(block, ctx, mask, lines, pending)
            if step is None:
                if not pending:
                    return lines
                step = pending.pop()
            block, ctx, mask = step

    def _emit_loop(
        self, header: BasicBlock, ctx: tuple, mask: Optional[str], lines: List[str]
    ) -> Optional[tuple]:
        """Append the loop to ``lines``; the chain's next step."""
        follow = self.loop_follow[id(header)]
        entry, body_mask, exit_mask = self._open_loop(header, follow)
        body = self._emit_chain(header, ctx + (entry,), body_mask, in_loop=True)
        lines.extend(self._loop_lines(entry, mask, body))
        if follow is None:
            return None
        # Phi copies for the exit edges were emitted at the break sites;
        # here the follow either continues the enclosing construct or is
        # the chain's next step.
        jump = self._try_goto(follow, ctx, [], exit_mask)
        if jump is not None:
            lines.extend(jump)
            return None
        return follow, ctx, exit_mask

    def _emit_block_code(
        self,
        block: BasicBlock,
        ctx: tuple,
        mask: Optional[str],
        lines: List[str],
        pending: List[tuple],
    ) -> Optional[tuple]:
        """Append ``block``'s code to ``lines``; the chain's next step."""
        gen = self.gen
        self.cur_mask = mask
        term = None
        for instr in block.instructions:
            if isinstance(instr, Phi):
                continue
            if instr.is_terminator:
                term = instr
                break
            lines.extend(gen._emit_instruction(instr, self))
        if term is None:
            raise _Bailout(f"block {block.name} has no terminator")
        if isinstance(term, Return):
            lines.extend(self._return_lines(term, mask))
            return None
        if isinstance(term, Branch):
            return self._realize_edge(block, term.target, ctx, mask, lines)
        if isinstance(term, CondBranch):
            return self._emit_cond(block, term, ctx, mask, lines, pending)
        raise _Bailout(f"unsupported terminator {term.opcode}")

    def _emit_cond(
        self,
        block: BasicBlock,
        term: CondBranch,
        ctx: tuple,
        mask: Optional[str],
        lines: List[str],
        pending: List[tuple],
    ) -> Optional[tuple]:
        """Append the conditional to ``lines``; the chain's next step is
        its first merge, and the later merges go to ``pending``."""
        deferred = self._deferred_ids(ctx)
        merges = [
            child
            for child in self.domtree.children.get(block, [])
            if id(child) in self._reachable_ids
            and id(child) not in self.emitted
            and id(child) not in deferred
            and len(self._forward_preds(child)) >= 2
        ]
        merges.sort(key=lambda b: self.rpo_index[id(b)])
        open_lines, tmask, fmask, merge_masks = self._open_cond(term.condition, mask, merges)
        lines.extend(open_lines)
        follows = [(self._FOLLOW, m, acc) for m, acc in zip(merges, merge_masks)]
        arm_ctx = ctx + tuple(reversed(follows))
        true_lines = self._emit_arm(block, term.true_block, arm_ctx, tmask)
        false_lines = self._emit_arm(block, term.false_block, arm_ctx, fmask)
        lines.extend(
            self._cond_lines(term.condition, tmask, fmask, true_lines, false_lines)
        )
        # Each merge falls through to the next one, so merge ``i`` runs with
        # the later merges still pending in its context.
        steps = [
            (merge, ctx + tuple(reversed(follows[i + 1 :])), merge_masks[i])
            for i, merge in enumerate(merges)
        ]
        if not steps:
            return None
        pending.extend(reversed(steps[1:]))
        return steps[0]

    def _emit_arm(
        self, source: BasicBlock, target: BasicBlock, ctx: tuple, mask: Optional[str]
    ) -> List[str]:
        """The lines of one conditional arm: a nested chain."""
        lines: List[str] = []
        step = self._realize_edge(source, target, ctx, mask, lines)
        if step is not None:
            lines.extend(self._emit_chain(*step))
        return lines

    def _realize_edge(
        self,
        source: BasicBlock,
        target: BasicBlock,
        ctx: tuple,
        mask: Optional[str],
        lines: List[str],
    ) -> Optional[tuple]:
        """Append the edge's jump to ``lines``, or its phi copies when
        ``target`` is emitted next (the returned step)."""
        copies = self._edge_copies(source, target, mask)
        jump = self._try_goto(target, ctx, copies, mask)
        if jump is not None:
            lines.extend(jump)
            return None
        forward = self._forward_preds(target)
        if id(target) in self.emitted or len(forward) != 1 or forward[0] is not source:
            raise _Bailout(
                f"edge {source.name} -> {target.name} in @{self.fn.name} is "
                f"not expressible structurally"
            )
        lines.extend(copies)
        return target, ctx, mask

    def _try_goto(
        self, target: BasicBlock, ctx: tuple, copies: List[str], mask: Optional[str]
    ) -> Optional[List[str]]:
        """Realize a jump using the enclosing constructs, if possible.

        Falling off the end of the current arm reaches only the innermost
        pending follow; ``continue``/``break`` reach only the innermost loop.
        """
        allow_fallthrough = True
        for entry in reversed(ctx):
            if entry[0] == self._FOLLOW:
                if allow_fallthrough and entry[1] is target:
                    return copies + self._fallthrough_lines(entry, mask)
                allow_fallthrough = False
            else:  # loop
                header, follow = entry[1], entry[2]
                if header is target:
                    return copies + self._continue_lines(entry, mask)
                if follow is target:
                    return copies + self._break_lines(entry, mask)
                return None
        return None

    def _deferred_ids(self, ctx: tuple) -> set:
        deferred = set()
        for entry in ctx:
            if entry[0] == self._FOLLOW:
                deferred.add(id(entry[1]))
            elif entry[2] is not None:
                deferred.add(id(entry[2]))
        return deferred

    def _forward_preds(self, target: BasicBlock) -> List[BasicBlock]:
        preds = self.preds.get(target, [])
        loop = self.loops_by_header.get(id(target))
        if loop is None:
            return preds
        return [p for p in preds if not loop.contains(p)]

    # -- region printing hooks (scalar Python control flow) ------------
    # Context entries are ``(_LOOP, header, follow, ...)`` and
    # ``(_FOLLOW, block, merge_mask)``; the lane emitter appends its names.

    #: The mask the walk starts from (``None``: scalar code has no mask).
    _ENTRY_MASK: Optional[str] = None

    def _open_loop(self, header: BasicBlock, follow: Optional[BasicBlock]):
        """The loop's context entry, its body mask and its exit mask."""
        return (self._LOOP, header, follow), None, None

    def _loop_lines(self, entry: tuple, mask: Optional[str], body: List[str]) -> List[str]:
        return ["while True:"] + [f"    {line}" for line in (body or ["pass"])]

    def _open_cond(self, cond: Value, mask: Optional[str], merges: List[BasicBlock]):
        """Lines before the arms, the true/false arm masks and each merge's
        entry mask."""
        return [], None, None, [None] * len(merges)

    def _cond_lines(
        self, cond: Value, tmask, fmask, true_lines: List[str], false_lines: List[str]
    ) -> List[str]:
        cond = self.gen._name(cond)
        lines: List[str] = []
        if true_lines and false_lines:
            lines.append(f"if {cond}:")
            lines.extend(f"    {line}" for line in true_lines)
            lines.append("else:")
            lines.extend(f"    {line}" for line in false_lines)
        elif true_lines:
            lines.append(f"if {cond}:")
            lines.extend(f"    {line}" for line in true_lines)
        elif false_lines:
            lines.append(f"if not {cond}:")
            lines.extend(f"    {line}" for line in false_lines)
        # Both arms empty: both targets fall through to the same merge with
        # no phi traffic — the branch is a no-op.
        return lines

    def _return_lines(self, term: Return, mask: Optional[str]) -> List[str]:
        if term.value is None:
            return ["return None"]
        return [f"return {self.gen._name(term.value)}"]

    def _edge_copies(self, source: BasicBlock, target: BasicBlock, mask) -> List[str]:
        return self.gen._phi_copies(source, target)

    def _fallthrough_lines(self, entry: tuple, mask: Optional[str]) -> List[str]:
        return []

    def _continue_lines(self, entry: tuple, mask: Optional[str]) -> List[str]:
        return ["continue"]

    def _break_lines(self, entry: tuple, mask: Optional[str]) -> List[str]:
        return ["break"]


class _LaneFunction(_StructuredFunction):
    """Masked (SIMT) variant of the structured emitter for the lane backend.

    Inherits the region walk, frame planner and pointer planner of
    :class:`_StructuredFunction` and overrides only the region printing
    hooks, rendering every structured region under an explicit *lane mask*
    (carried as the walk's ``mask``): an ``(n_lanes,)`` bool array naming
    which lanes are executing the region.  Control transfers become mask
    algebra instead of Python control flow:

    * a conditional splits the current mask into complementary arm masks and
      runs both arms (each skipped entirely when no lane takes it);
    * ``continue``/``break``/fall-through-to-merge accumulate the jumping
      lanes into the target region's entry-mask accumulator;
    * a loop iterates ``while`` any lane's mask is live;
    * ``return`` folds the returning lanes' value into an ``_rv`` accumulator
      (they drop out of every mask naturally — no further accumulation).

    SSA temps are computed full-width (inactive lanes produce garbage that is
    never observed: every *use* executes under a mask that is a subset of the
    def's region mask within the same loop iteration).  The one place that
    invariant breaks is a value defined inside a loop and read after it — a
    later iteration recomputes the variable full-width, clobbering lanes that
    already left.  Those *live-outs* are therefore captured per lane at each
    break site (``v__xN = where(break_mask, v, v__xN)``) and rebound after
    the loop.  Capture sites always read a well-defined current-iteration
    value: a def used past the loop must dominate the loop's single exit
    target, hence every break-site block.
    """

    def __init__(self, gen: "PythonCodeGenerator", fn: Function):
        super().__init__(gen, fn)
        self._loop_counter = 0
        self._cond_counter = 0
        #: id(loop header) -> runtime local names live-out of that loop.
        self.loop_liveouts: Dict[int, List[str]] = {}
        self._plan_liveouts()

    # ------------------------------------------------------------------
    # Loop live-out planning
    # ------------------------------------------------------------------
    def _plan_liveouts(self) -> None:
        gen = self.gen
        for loop in self.loopinfo.loops:
            member_ids = {id(b) for b in loop.blocks}
            outs: List[str] = []
            seen: set[str] = set()
            for block in loop.blocks:
                if id(block) not in self._reachable_ids:
                    continue
                for instr in block.instructions:
                    if instr.type.is_void or isinstance(instr, Alloca):
                        continue
                    if isinstance(instr, GEP):
                        # Only a dynamic GEP materialises a runtime local.
                        if id(instr) not in self.gep_code:
                            continue
                        local = f"{gen._name(instr)}_off"
                    else:
                        local = gen._name(instr)
                    if local in seen:
                        continue
                    if self._used_outside(instr, member_ids):
                        seen.add(local)
                        outs.append(local)
            self.loop_liveouts[id(loop.header)] = outs

    def _used_outside(self, instr, member_ids: set) -> bool:
        for user in instr.uses:
            if isinstance(user, Phi):
                blocks = [b for v, b in user.incoming() if v is instr]
            else:
                blocks = [user.parent] if user.parent is not None else []
            for block in blocks:
                if id(block) in self._reachable_ids and id(block) not in member_ids:
                    return True
        return False

    # ------------------------------------------------------------------
    # Per-call prologue (lane layout: 2-D frame, no sanitizer)
    # ------------------------------------------------------------------
    def _frame_lines(self) -> List[str]:
        lines = ["_zf = _np.zeros(len(_m), dtype=bool)"]
        if self.frame_size:
            lines.append(f"_frame = _np.zeros((len(_m), {self.frame_size}))")
        return lines

    def emit_alloca(self, instr: Alloca) -> List[str]:
        plan = self.alloca_plans[id(instr)]
        if not plan.zero_at_site:
            return []  # the frame is zero-filled at function entry
        if plan.size == 1:
            return [f"_frame[{self.cur_mask}, {plan.start}] = 0.0"]
        return [
            f"_frame[{self.cur_mask}, {plan.start}:{plan.start + plan.size}] = 0.0"
        ]

    # ------------------------------------------------------------------
    # Masked region printing (the walk itself is inherited)
    # ------------------------------------------------------------------
    _ENTRY_MASK = "_m"

    def _open_loop(self, header: BasicBlock, follow: Optional[BasicBlock]):
        index = self._loop_counter
        self._loop_counter += 1
        return (self._LOOP, header, follow, index), f"_lm{index}", f"_bm{index}"

    def _loop_lines(self, entry: tuple, mask: Optional[str], body: List[str]) -> List[str]:
        header, index = entry[1], entry[3]
        live, brk, cont = f"_lm{index}", f"_bm{index}", f"_cm{index}"
        outs = self.loop_liveouts.get(id(header), [])
        # Int inits: np.where promotes to float on the first capture of a
        # float value, while a float init would poison int live-outs.
        lines = [f"{name}__x{index} = 0" for name in outs]
        lines += [f"{live} = {mask}", f"{brk} = _zf", f"while {live}.any():"]
        body = [f"{cont} = _zf"] + body + [f"{live} = {cont}"]
        lines.extend(f"    {line}" for line in body)
        lines.extend(f"{name} = {name}__x{index}" for name in outs)
        return lines

    def _open_cond(self, cond: Value, mask: Optional[str], merges: List[BasicBlock]):
        merge_masks = [f"_fm{self.rpo_index[id(m)]}" for m in merges]
        index = self._cond_counter
        self._cond_counter += 1
        tmask, fmask = f"_tm{index}", f"_em{index}"
        lines = [f"{acc} = _zf" for acc in merge_masks]
        lines.append(f"{tmask}, {fmask} = _bmask({mask}, {self.gen._name(cond)})")
        return lines, tmask, fmask, merge_masks

    def _cond_lines(
        self, cond: Value, tmask, fmask, true_lines: List[str], false_lines: List[str]
    ) -> List[str]:
        # Each arm is skipped wholesale when no lane takes it — safe because
        # everything dominated by an arm entry is emitted textually inside
        # the arm, so a skipped arm can't strand a later (unguarded) use.
        lines: List[str] = []
        if true_lines:
            lines.append(f"if {tmask}.any():")
            lines.extend(f"    {line}" for line in true_lines)
        if false_lines:
            lines.append(f"if {fmask}.any():")
            lines.extend(f"    {line}" for line in false_lines)
        return lines

    def _return_lines(self, term: Return, mask: Optional[str]) -> List[str]:
        # Returned lanes simply join no accumulator and die out.
        if term.value is None:
            return []
        return [f"_rv = _w({mask}, {self.gen._name(term.value)}, _rv)"]

    def _edge_copies(self, source: BasicBlock, target: BasicBlock, mask) -> List[str]:
        moves = self.gen._phi_moves(source, target)
        if not moves:
            return []
        targets = ", ".join(phi for phi, _ in moves)
        sources = ", ".join(f"_w({mask}, {value}, {phi})" for phi, value in moves)
        return [f"{targets} = {sources}"]

    def _fallthrough_lines(self, entry: tuple, mask: Optional[str]) -> List[str]:
        accumulator = entry[2]
        return [f"{accumulator} = {accumulator} | {mask}"]

    def _continue_lines(self, entry: tuple, mask: Optional[str]) -> List[str]:
        cont = f"_cm{entry[3]}"
        return [f"{cont} = {cont} | {mask}"]

    def _break_lines(self, entry: tuple, mask: Optional[str]) -> List[str]:
        header, index = entry[1], entry[3]
        brk = f"_bm{index}"
        captures = [
            f"{name}__x{index} = _w({mask}, {name}, {name}__x{index})"
            for name in self.loop_liveouts.get(id(header), [])
        ]
        return captures + [f"{brk} = {brk} | {mask}"]


def reachable_functions(module: Module, *roots: str) -> List[Function]:
    """The defined functions of ``module`` reachable through calls from the
    functions named in ``roots`` (themselves included), in module order."""
    seen = set(roots)
    work = [module.functions[root] for root in seen]
    while work:
        for instr in work.pop().instructions():
            if isinstance(instr, Call):
                callee = instr.callee
                if callee.name not in seen and not callee.is_declaration:
                    seen.add(callee.name)
                    work.append(callee)
    return [fn for fn in module.defined_functions() if fn.name in seen]


class PythonCodeGenerator:
    """Translates defined functions of a module into Python source.

    ``functions`` selects the functions to lower (every defined function by
    default); a call to any other function is a bare reference to its
    Python name, resolved in the exec namespace (``extra_symbols``).

    Loops and conditionals are reconstructed from the dominator tree and
    loop info — served by ``analysis_manager`` when one is supplied, so a
    compile reuses the pipeline's cached analyses — and alloca frames, GEP
    offsets, pooled constants and intrinsic bindings are planned at
    emission time.  A function the relooper cannot express raises
    ``CompilationError``.
    """

    def __init__(
        self,
        module: Module,
        prefix: str = "ir",
        analysis_manager=None,
        sanitize: bool = False,
        functions: Optional[List[Function]] = None,
    ):
        self.module = module
        self.functions = module.defined_functions() if functions is None else list(functions)
        self._lowered_names = {fn.name for fn in self.functions}
        #: IR name -> Python name of every function the generated source
        #: calls without lowering it: the exec namespace must bind them.
        self.links: Dict[str, str] = {}
        self.prefix = prefix
        self.sanitize = sanitize
        self.analysis_manager = analysis_manager
        self._value_names: Dict[int, str] = {}
        self._counter = 0
        # -- factory-level pools --------------------------------------------
        self._float_uses = self._count_float_uses()
        self._pool: Dict[str, str] = {}
        self._prelude_lines: List[str] = []
        self._aliases: Dict[str, str] = {}
        self._zero_tuples: Dict[int, str] = {}
        #: The code object :meth:`exec_source` last compiled, and the
        #: namespace it ran in.
        self.code: Optional[CodeType] = None
        self.namespace: Optional[Dict[str, object]] = None

    # -- analyses -----------------------------------------------------------------
    def _cfg_analyses(self, fn: Function) -> Tuple[DominatorTree, LoopInfo]:
        am = self.analysis_manager
        if am is not None:
            return am.get("domtree", fn), am.get("loopinfo", fn)
        domtree = DominatorTree(fn)
        return domtree, LoopInfo(fn, domtree=domtree)

    # -- constant / helper pooling -------------------------------------------------
    def _count_float_uses(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for fn in self.functions:
            for instr in fn.instructions():
                for op in instr.operands:
                    if isinstance(op, Constant) and isinstance(op.value, float):
                        key = self._float_key(op.value)
                        counts[key] = counts.get(key, 0) + 1
        return counts

    @staticmethod
    def _float_key(v: float) -> str:
        if math.isnan(v):
            # Every NaN payload (and sign) is its own constant.
            return f"nan:{runtime.float_bits(v):#x}"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)

    def _float_expr(self, v: float) -> str:
        key = self._float_key(v)
        if math.isnan(v):
            literal = f"_f64({runtime.float_bits(v):#x})"
        elif math.isinf(v):
            literal = 'float("inf")' if v > 0 else 'float("-inf")'
        else:
            literal = key
        pooled = self._pool.get(key)
        if pooled is not None:
            return pooled
        if math.isfinite(v) and (
            len(literal) < _POOL_MIN_REPR or self._float_uses.get(key, 0) < 2
        ):
            return literal
        name = f"_c{len(self._pool)}"
        self._pool[key] = name
        self._prelude_lines.append(f"{name} = {literal}")
        return name

    def _alias(self, name: str, expr: str) -> str:
        """A factory-local binding for a hot helper (one closure cell)."""
        if name not in self._aliases:
            self._aliases[name] = expr
            self._prelude_lines.append(f"{name} = {expr}")
        return name

    def _zero_tuple(self, size: int) -> str:
        name = self._zero_tuples.get(size)
        if name is None:
            name = f"_z{size}"
            self._zero_tuples[size] = name
            self._prelude_lines.append(f"{name} = (0.0,) * {size}")
        return name

    def _name(self, value: Value) -> str:
        if isinstance(value, Constant):
            v = value.value
            if isinstance(v, float):
                return self._float_expr(v)
            return repr(v)
        if isinstance(value, UndefValue):
            return "0.0" if value.type.is_float else "0"
        key = id(value)
        if key not in self._value_names:
            self._counter += 1
            self._value_names[key] = f"v{self._counter}"
        return self._value_names[key]

    def _gep_terms(self, instr: GEP) -> Tuple[int, List[str]]:
        """A GEP's slot offset from its base: the constant part and the
        dynamic ``index * stride`` terms."""
        pointee = instr.pointer.type.pointee
        indices = instr.indices
        const = 0
        dynamic: List[str] = []

        def add_index(idx: Value, stride: int) -> None:
            nonlocal const
            if isinstance(idx, Constant):
                const += int(idx.value) * stride
            elif stride == 1:
                dynamic.append(self._name(idx))
            else:
                dynamic.append(f"{self._name(idx)} * {stride}")

        add_index(indices[0], pointee.slot_count())
        current = pointee
        for idx in indices[1:]:
            if isinstance(current, StructType):
                if not isinstance(idx, Constant):
                    raise NotImplementedError("dynamic struct indices are not supported")
                field_index = int(idx.value)
                const += current.field_slot_offset(field_index)
                current = current.field_type(field_index)
            elif isinstance(current, ArrayType):
                add_index(idx, current.element.slot_count())
                current = current.element
            else:
                raise NotImplementedError(f"cannot index into {current}")
        return const, dynamic

    # -- source emission -------------------------------------------------------------
    def generate_source(self) -> str:
        functions = self.functions
        sources = [self._emit_function(fn) for fn in functions]
        lines = [
            "# Generated by repro.backends.pycodegen — do not edit.",
            "import math",
        ]
        if not functions:
            for source in sources:
                lines.append("")
                lines.extend(source)
            return "\n".join(lines)
        names = ", ".join(self._py_name(fn) for fn in functions)
        if len(functions) == 1:
            names += ","
        # All generated functions live inside one factory: pooled constants
        # and intrinsic bindings are factory locals captured by the
        # functions' closures, and cross-function calls resolve through
        # closure cells instead of module-global lookups.
        lines.append("")
        lines.append("def _distill_module():")
        body: List[str] = list(self._prelude_lines)
        for source in sources:
            body.append("")
            body.extend(source)
        body.append("")
        body.append(f"return ({names})")
        lines.extend(f"    {line}" if line else "" for line in body)
        lines.append("")
        lines.append(f"({names}) = _distill_module()")
        return "\n".join(lines)

    def compile(self, extra_symbols: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Compile the generated source and return the callables by IR name.

        ``extra_symbols`` pre-seeds the exec namespace.  The incremental
        recompiler uses this to patch a live model: a *patch module* contains
        declarations for unchanged functions, whose call sites emit bare
        ``ir_<name>`` references that resolve as globals of this namespace —
        seeding those names with the previously compiled callables links the
        regenerated functions against the surviving ones.
        """
        source = self.generate_source()
        return self.exec_source(source, extra_symbols)

    def exec_source(
        self, source: str, extra_symbols: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """Compile and exec generated source; the callables by IR name.

        The compiled code object is kept in :attr:`code`, so the artifact
        store can persist it and a store hit can skip ``compile()``, and the
        namespace it was linked in is kept in :attr:`namespace`.
        """
        self.code = compile(source, f"<distill:{self.module.name}>", "exec")
        self.namespace = self.exec_namespace(extra_symbols)
        return exec_code(self.code, self.namespace, self.py_names())

    def py_names(self) -> Dict[str, str]:
        """IR function name -> Python name, for every lowered function."""
        return {fn.name: self._py_name(fn) for fn in self.functions}

    @staticmethod
    def exec_namespace(extra_symbols: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """The runtime bindings generated source is linked against."""
        namespace: Dict[str, object] = {
            "math": math,
            "_fdiv": runtime.fdiv,
            "_frem": runtime.frem,
            "_sdiv": runtime.sdiv,
            "_srem": runtime.srem,
            "_shl": runtime.shl,
            "_ashr": runtime.ashr,
            "_fptosi": runtime.fptosi,
            "_fptrunc": runtime.fptrunc,
            "_intrinsics": runtime.INTRINSIC_IMPLS,
            "_san_trap": runtime.sanitizer_trap,
            "_f64": runtime.float_from_bits,
        }
        if extra_symbols:
            namespace.update(extra_symbols)
        return namespace

    def _py_name(self, fn: Function) -> str:
        return f"{self.prefix}_{fn.name}".replace(".", "_")

    # -- per function ------------------------------------------------------------------
    def _emit_function(self, fn: Function) -> List[str]:
        try:
            emitter = _StructuredFunction(self, fn)
            body = emitter.emit()
        except _Bailout as exc:
            raise CompilationError(f"cannot lower @{fn.name}: {exc}") from None
        args = ", ".join(self._name(arg) for arg in fn.args)
        lines = [f"def {self._py_name(fn)}({args}):"]
        prologue = self._unpack_pointer_args(fn) + emitter.prologue()
        lines.extend(f"    {line}" for line in prologue + body)
        return lines

    def _unpack_pointer_args(self, fn: Function) -> List[str]:
        """Unpack each pointer argument into its ``(buffer, offset)`` pair."""
        return [
            f"{name}_buf, {name}_off = {name}"
            for name in (self._name(arg) for arg in fn.args if arg.type.is_pointer)
        ]

    def _emit_instruction(self, instr, ptrs) -> List[str]:
        """One instruction in the one scalar dialect.

        ``ptrs`` is the function's :class:`_StructuredFunction`: its frame
        and pointer planner resolves pointers, and under ``sanitize`` it
        supplies the checks.
        """
        name = self._name(instr)
        if isinstance(instr, BinaryOp):
            line = f"{name} = " + _binop_format(instr).format(
                a=self._name(instr.lhs), b=self._name(instr.rhs)
            )
            if self.sanitize:
                return ptrs.sanitized_binop(instr, name, line)
            return [line]
        if isinstance(instr, FCmp):
            a, b = self._name(instr.lhs), self._name(instr.rhs)
            if instr.predicate in _FCMP_FMT:
                return [f"{name} = " + _FCMP_FMT[instr.predicate].format(a=a, b=b)]
            # x == x is the NaN self-test: no math.isnan call needed.
            op = "and" if instr.predicate == "ord" else "or"
            eq = "==" if instr.predicate == "ord" else "!="
            return [f"{name} = ({a} {eq} {a} {op} {b} {eq} {b})"]
        if isinstance(instr, ICmp):
            expr = _ICMP_FMT[instr.predicate].format(
                a=self._name(instr.lhs), b=self._name(instr.rhs)
            )
            return [f"{name} = {expr}"]
        if isinstance(instr, Select):
            return [
                f"{name} = {self._name(instr.true_value)} if {self._name(instr.condition)} "
                f"else {self._name(instr.false_value)}"
            ]
        if isinstance(instr, Cast):
            return [self._emit_cast(instr, name)]
        if isinstance(instr, Alloca):
            return ptrs.emit_alloca(instr)
        if isinstance(instr, Load):
            if self.sanitize:
                return ptrs.sanitized_load(instr, name)
            buf, off = ptrs.pointer_ref(instr.pointer)
            return [f"{name} = {buf}[{off}]"]
        if isinstance(instr, Store):
            if self.sanitize:
                return ptrs.sanitized_store(instr, self._name(instr.value))
            buf, off = ptrs.pointer_ref(instr.pointer)
            return [f"{buf}[{off}] = {self._name(instr.value)}"]
        if isinstance(instr, GEP):
            return ptrs.emit_gep(instr)
        if isinstance(instr, Call):
            lines = self._emit_call(instr, name, ptrs)
            if (
                self.sanitize
                and not instr.type.is_void
                and instr.type.is_float
                and instr.callee.intrinsic_name is not None
            ):
                lines = lines + ptrs._san_result_checks(instr, name)
            return lines
        raise NotImplementedError(f"cannot generate Python for {instr.opcode}")

    def _emit_cast(self, instr: Cast, name: str) -> str:
        source = self._name(instr.value)
        if instr.opcode == "sitofp":
            return f"{name} = float({source})"
        if instr.opcode == "fptosi":
            # In range, int() truncates; NaN fails both comparisons and,
            # with out-of-range values, takes the saturating runtime cast.
            width = instr.type.width
            bound = float(1 << (width - 1))
            return (
                f"{name} = int({source}) if {-bound!r} <= {source} < {bound!r} "
                f"else _fptosi({source}, {width})"
            )
        if instr.opcode == "fptrunc":
            return f"{name} = _fptrunc({source})"
        if instr.opcode in ("zext", "sext", "bitcast", "fpext"):
            return f"{name} = {source}"
        if instr.opcode == "trunc":
            mask = (1 << instr.type.width) - 1
            return f"{name} = int({source}) & {mask}"
        raise NotImplementedError(f"cast {instr.opcode}")

    def _emit_call(self, instr: Call, name: str, ptrs) -> List[str]:
        callee = instr.callee
        intrinsic = callee.intrinsic_name
        # The PRNG draws and the block intrinsics address their pointers
        # slot by slot: they never build a ``(buffer, offset)`` call tuple.
        if intrinsic in ("rng_uniform", "rng_normal"):
            buf, off = ptrs.pointer_ref(instr.args[0])
            buf1, off1 = ptrs.pointer_ref_plus1(instr.args[0])
            return self._emit_rng_inline(intrinsic, name, buf, off, buf1, off1)
        if intrinsic in MEMORY_INTRINSICS:
            return self._emit_block_memory(instr, ptrs)
        arg_exprs = [
            ptrs.call_arg(arg) if arg.type.is_pointer else self._name(arg)
            for arg in instr.args
        ]
        if intrinsic is not None:
            fmt = _INTRINSIC_FMT[intrinsic]
            bindings = dict(zip("ab", arg_exprs))
            if "{f}" in fmt:
                bindings["f"] = self._alias(f"_i_{intrinsic}", f"_intrinsics[{intrinsic!r}]")
            if "{m}" in fmt:
                bindings["m"] = self._alias(f"_m_{intrinsic}", f"math.{intrinsic}")
            return [f"{name} = " + fmt.format(**bindings)]
        target = self._py_name(callee)
        if callee.name not in self._lowered_names:
            self.links[callee.name] = target
        call = f"{target}({', '.join(arg_exprs)})"
        if instr.type.is_void:
            return [call]
        return [f"{name} = {call}"]

    def _emit_block_memory(self, instr: Call, ptrs) -> List[str]:
        """``memcpy``/``memset`` as one multiple assignment over the slots
        (at most :data:`_BLOCK_EXPAND_MAX` of them) or one list slice
        assignment.

        Both forms read the whole source before writing: a slice on the
        right is a new list, and a multiple assignment builds its right-hand
        tuple first.  A slice past the end of a list would silently resize
        it, so the slice form first checks every range and raises
        ``IndexError`` as a slot index and ``ir-interp`` do.
        """
        count = _block_count(instr)
        lines = ptrs.sanitized_block(instr, count) if self.sanitize else []
        if not count:
            return lines
        dst = instr.args[0]
        intrinsic = instr.callee.intrinsic_name
        if count > _BLOCK_EXPAND_MAX and not self.sanitize:
            operands = [dst] if intrinsic == "memset" else [dst, instr.args[1]]
            lines = ptrs.block_range_guard(intrinsic, operands, count)
        if intrinsic == "memset":
            value = instr.args[1]
            if count <= _BLOCK_EXPAND_MAX:
                targets = " = ".join(ptrs.slot_ref(dst, i) for i in range(count))
                return lines + [f"{targets} = {self._name(value)}"]
            positive_zero = (
                isinstance(value, Constant) and value.value == 0.0
                and math.copysign(1.0, value.value) > 0.0
            )
            fill = (
                self._zero_tuple(count) if positive_zero
                else f"({self._name(value)},) * {count}"
            )
            return lines + [f"{ptrs.slice_ref(dst, count)} = {fill}"]
        src = instr.args[1]
        if count <= _BLOCK_EXPAND_MAX:
            targets = ", ".join(ptrs.slot_ref(dst, i) for i in range(count))
            sources = ", ".join(ptrs.slot_ref(src, i) for i in range(count))
            return lines + [f"{targets} = {sources}"]
        return lines + [f"{ptrs.slice_ref(dst, count)} = {ptrs.slice_ref(src, count)}"]

    def _emit_rng_inline(
        self, intrinsic: str, name: str, buf: str, off: str, buf1: str, off1: str
    ) -> List[str]:
        """Inline the counter-based PRNG as straight-line integer arithmetic.

        Bit-identical to :func:`repro.cogframe.prng.uniform_from_state` /
        ``normal_from_state`` but with zero Python call frames per draw —
        the draws dominate the run time of every stochastic model, so this
        is the single largest per-operation overhead the compiled backend
        can remove (profile: ~60% of a predator-prey trial was spent inside
        the helper call stack).
        """

        def mix(z: str, counter_expr: str) -> List[str]:
            return [
                f"{z} = (_rk * 0x9E3779B97F4A7C15 + {counter_expr} * "
                f"0xBF58476D1CE4E5B9 + 0x632BE59BD9B4E019) & 0xFFFFFFFFFFFFFFFF",
                f"{z} ^= {z} >> 30",
                f"{z} = ({z} * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF",
                f"{z} ^= {z} >> 27",
                f"{z} = ({z} * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF",
                f"{z} ^= {z} >> 31",
            ]

        lines = [f"_rk = int({buf}[{off}])", f"_rc = int({buf1}[{off1}])"]
        if intrinsic == "rng_uniform":
            lines += mix("_rz", "_rc")
            lines.append(f"{name} = (_rz >> 11) * 1.1102230246251565e-16")
            lines.append(f"{buf1}[{off1}] = _rc + 1")
            return lines
        sqrt = self._alias("_m_sqrt", "math.sqrt")
        log = self._alias("_m_log", "math.log")
        cos = self._alias("_m_cos", "math.cos")
        lines += mix("_rz", "_rc")
        lines.append("_ru = (_rz >> 11) * 1.1102230246251565e-16")
        lines += mix("_rz", "(_rc + 1)")
        lines.append("_rv = (_rz >> 11) * 1.1102230246251565e-16")
        lines.append("_ru = 1e-300 if _ru < 1e-300 else _ru")
        lines.append(
            f"{name} = {sqrt}(-2.0 * {log}(_ru)) * {cos}(6.283185307179586 * _rv)"
        )
        lines.append(f"{buf1}[{off1}] = _rc + 2")
        return lines

    # -- phi copies ------------------------------------------------------------------------
    def _phi_moves(self, source: BasicBlock, target: BasicBlock) -> List[Tuple[str, str]]:
        """``(phi, incoming value)`` local pairs the edge must assign."""
        moves: List[Tuple[str, str]] = []
        for phi in target.phis():
            incoming = phi.incoming_for_block(source)
            if incoming is None:
                continue
            phi_name = self._name(phi)
            value_name = self._name(incoming)
            if phi_name != value_name:
                moves.append((phi_name, value_name))
        return moves

    def _phi_copies(self, source: BasicBlock, target: BasicBlock) -> List[str]:
        """The edge's phi copies as one parallel multiple-assignment: the RHS
        tuple is evaluated in full before any phi local is written, which is
        exactly the simultaneous-assignment semantics of phi nodes."""
        moves = self._phi_moves(source, target)
        if not moves:
            return []
        targets = ", ".join(phi for phi, _ in moves)
        sources = ", ".join(value for _, value in moves)
        return [f"{targets} = {sources}"]

#: Lane-mode binops that lower through the scalar templates (the lane
#: namespace binds ``_shl``/``_ashr`` to lane-aware helpers).  Division and
#: remainder need helpers (IEEE semantics / masked zero checks), so they are
#: handled explicitly in :meth:`LanePythonCodeGenerator._emit_instruction`.
_LANE_INLINE_BINOPS = frozenset(
    ("fadd", "fsub", "fmul", "add", "sub", "mul", "and", "or", "xor", "shl", "ashr")
)


class LanePythonCodeGenerator(PythonCodeGenerator):
    """Lane-emission mode: lower structured codegen to numpy array programs.

    Every IR value becomes an ``(n_lanes,)`` array (or a lane-uniform Python
    scalar, e.g. a constant), every generated function takes a trailing lane
    mask ``_m``, allocas share one ``(n_lanes, frame_size)`` array using the
    structured planner's slot offsets, and the splitmix PRNG draws through
    :func:`repro.cogframe.prng.vectorized_uniform` / ``vectorized_normal``
    with per-lane counters bit-identical to the scalar inline emission.
    Uniform draws and IEEE-exact ops are bitwise; normal draws and the
    transcendental intrinsics (``LANE_INTRINSICS``) run numpy's kernels and
    may differ from libm in the final ulp (:data:`repro.fuzz.oracle.LANE_RTOL`).

    A function with an instruction the lane dialect cannot lower (an
    intrinsic outside ``LANE_INTRINSICS``, an unsupported cast) is emitted
    as a per-lane wrapper that dispatches each active lane to the scalar
    compiled program, recorded in :attr:`lane_fallbacks`.  Control flow
    never causes one: the lane emitter shares the scalar relooper walk, and
    the scalar compile already refused any function the walk cannot express.
    """

    def __init__(self, module: Module, prefix: str = "lane", analysis_manager=None):
        super().__init__(module, prefix=prefix, analysis_manager=analysis_manager)
        #: Functions emitted as per-lane scalar-dispatch wrappers.
        self.lane_fallbacks: List[str] = []
        #: function name -> the lowering bail reason.
        self.lane_fallback_reasons: Dict[str, str] = {}
        #: exec-namespace symbol -> IR function name of the scalar callable
        #: the symbol must be bound to (fed from ``CompiledModel._compiled``).
        self.scalar_symbols: Dict[str, str] = {}

    # -- linking -------------------------------------------------------
    def exec_namespace(self, extra_symbols: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        from . import lane as lane_runtime

        namespace: Dict[str, object] = dict(lane_runtime.LANE_NAMESPACE)
        namespace["math"] = math
        if extra_symbols:
            namespace.update(extra_symbols)
        return namespace

    # -- per function --------------------------------------------------
    def _emit_function(self, fn: Function) -> List[str]:
        try:
            return self._emit_function_lane(fn)
        except _Bailout as exc:
            self.lane_fallbacks.append(fn.name)
            self.lane_fallback_reasons[fn.name] = str(exc)
            return self._emit_function_per_lane(fn)

    def _emit_function_lane(self, fn: Function) -> List[str]:
        emitter = _LaneFunction(self, fn)
        body = emitter.emit()
        arg_names = [self._name(arg) for arg in fn.args]
        lines = [f"def {self._py_name(fn)}({', '.join(arg_names + ['_m'])}):"]
        prologue = self._unpack_pointer_args(fn) + emitter.prologue()
        # Phi locals must exist before their first masked np.where update
        # (lanes outside the update mask read the previous binding).
        for block in fn.blocks:
            if id(block) not in emitter._reachable_ids:
                continue
            for phi in block.phis():
                init = "0.0" if phi.type.is_float else "0"
                prologue.append(f"{self._name(phi)} = {init}")
        returns_float = any(
            isinstance(instr, Return)
            and instr.value is not None
            and instr.value.type.is_float
            for instr in fn.instructions()
        )
        if not fn.return_type.is_void:
            prologue.append("_rv = 0.0" if returns_float else "_rv = 0")
            body = body + ["return _rv"]
        lines.extend(f"    {line}" for line in prologue + body)
        return lines

    def _emit_function_per_lane(self, fn: Function) -> List[str]:
        """Fallback wrapper: dispatch each active lane to the scalar program."""
        arg_names = [self._name(arg) for arg in fn.args]
        ptr_flags = tuple(bool(arg.type.is_pointer) for arg in fn.args)
        scalar_sym = f"_scalar_{fn.name}".replace(".", "_")
        self.scalar_symbols[scalar_sym] = fn.name
        packed = ", ".join(arg_names)
        if len(arg_names) == 1:
            packed += ","
        return [
            f"def {self._py_name(fn)}({', '.join(arg_names + ['_m'])}):",
            f"    return _per_lane({scalar_sym}, ({packed}), {ptr_flags!r}, _m)",
        ]

    # -- per instruction ------------------------------------------------
    def _emit_instruction(self, instr, ptrs) -> List[str]:
        name = self._name(instr)
        mask = ptrs.cur_mask
        if isinstance(instr, BinaryOp):
            a, b = self._name(instr.lhs), self._name(instr.rhs)
            op = instr.opcode
            if op in _LANE_INLINE_BINOPS:
                return [f"{name} = " + _binop_format(instr).format(a=a, b=b)]
            if op in ("fdiv", "frem"):
                return [f"{name} = _l{op}({a}, {b})"]
            # sdiv/srem: the zero check must ignore inactive lanes.
            return [f"{name} = _l{op}({a}, {b}, {mask})"]
        if isinstance(instr, FCmp):
            a, b = self._name(instr.lhs), self._name(instr.rhs)
            if instr.predicate in _FCMP_FMT:
                # The ordered formats hold elementwise too (see _FCMP_FMT).
                return [f"{name} = " + _FCMP_FMT[instr.predicate].format(a=a, b=b)]
            combine = "&" if instr.predicate == "ord" else "|"
            eq = "==" if instr.predicate == "ord" else "!="
            return [f"{name} = (({a} {eq} {a}) {combine} ({b} {eq} {b}))"]
        if isinstance(instr, ICmp):
            expr = _ICMP_FMT[instr.predicate].format(
                a=self._name(instr.lhs), b=self._name(instr.rhs)
            )
            return [f"{name} = {expr}"]
        if isinstance(instr, Select):
            return [
                f"{name} = _lsel({self._name(instr.condition)}, "
                f"{self._name(instr.true_value)}, {self._name(instr.false_value)})"
            ]
        if isinstance(instr, Cast):
            return [self._emit_lane_cast(instr, name)]
        if isinstance(instr, Alloca):
            return ptrs.emit_alloca(instr)
        if isinstance(instr, Load):
            ptr = ptrs.ptrs[id(instr.pointer)]
            buf, off = ptrs.pointer_ref(instr.pointer)
            if ptr.base is None:
                # .copy(): basic slicing aliases the buffer, and a later
                # masked store to the slot must not rewrite loaded values.
                return [f"{name} = {buf}[:, {off}].copy()"]
            # An arg-relative or GEP-relative offset may be a lane array at
            # run time (callers pass divergent pointer offsets): gather.
            # A dynamic GEP offset may be a lane array: gather per lane.
            return [f"{name} = _lload({buf}, {off}, {mask})"]
        if isinstance(instr, Store):
            buf, off = ptrs.pointer_ref(instr.pointer)
            return [f"_lstore({buf}, {off}, {self._name(instr.value)}, {mask})"]
        if isinstance(instr, GEP):
            return ptrs.emit_gep(instr)
        if isinstance(instr, Call):
            return self._emit_lane_call(instr, name, ptrs, mask)
        raise _Bailout(f"cannot lane-lower {instr.opcode}")

    def _emit_lane_cast(self, instr: Cast, name: str) -> str:
        source = self._name(instr.value)
        if instr.opcode == "sitofp":
            return f"{name} = _lfloat({source})"
        if instr.opcode == "fptosi":
            return f"{name} = _lint({source}, {instr.type.width})"
        if instr.opcode in ("zext", "sext"):
            # i1 sources may be bool arrays; ``+ 0`` promotes them to int
            # lanes exactly as Python bools promote in the scalar emitter.
            if getattr(instr.value.type, "width", None) == 1:
                return f"{name} = ({source} + 0)"
            return f"{name} = {source}"
        if instr.opcode == "fptrunc":
            return f"{name} = _lfptrunc({source})"
        if instr.opcode in ("bitcast", "fpext"):
            return f"{name} = {source}"
        if instr.opcode == "trunc":
            mask = (1 << instr.type.width) - 1
            return f"{name} = _ltrunc({source}, {mask})"
        raise _Bailout(f"cast {instr.opcode}")

    def _emit_lane_call(self, instr: Call, name: str, ptrs, mask: str) -> List[str]:
        callee = instr.callee
        if callee.intrinsic_name is not None:
            intrinsic = callee.intrinsic_name
            if intrinsic in ("rng_uniform", "rng_normal"):
                buf, off = ptrs.pointer_ref(instr.args[0])
                buf1, off1 = ptrs.pointer_ref_plus1(instr.args[0])
                helper = "_lrng_u" if intrinsic == "rng_uniform" else "_lrng_n"
                call = f"{helper}({buf}, {off}, {buf1}, {off1}, {mask})"
            elif intrinsic in MEMORY_INTRINSICS:
                count = _block_count(instr)
                if not count:
                    return []
                dbuf, doff = ptrs.pointer_ref(instr.args[0])
                if intrinsic == "memcpy":
                    sbuf, soff = ptrs.pointer_ref(instr.args[1])
                    return [f"_lcopy({dbuf}, {doff}, {sbuf}, {soff}, {count}, {mask})"]
                value = self._name(instr.args[1])
                return [f"_lset({dbuf}, {doff}, {value}, {count}, {mask})"]
            else:
                from . import lane as lane_runtime

                if intrinsic not in lane_runtime.LANE_INTRINSICS:
                    raise _Bailout(f"no lane lowering for intrinsic {intrinsic}")
                target = self._alias(
                    f"_li_{intrinsic}", f"_lane_intrinsics[{intrinsic!r}]"
                )
                args = ", ".join(self._name(arg) for arg in instr.args)
                call = f"{target}({args})"
            if instr.type.is_void:
                return [call]
            return [f"{name} = {call}"]
        arg_exprs = [
            ptrs.call_arg(arg) if arg.type.is_pointer else self._name(arg)
            for arg in instr.args
        ]
        call = f"{self._py_name(callee)}({', '.join(arg_exprs + [mask])})"
        if instr.type.is_void:
            return [call]
        return [f"{name} = {call}"]


def exec_code(
    code: CodeType, namespace: Dict[str, object], py_names: Dict[str, str]
) -> Dict[str, object]:
    """Exec a compiled generated module into ``namespace``.

    Returns the callables by IR name (``py_names`` maps IR names to the
    Python names the code defines).  Every lowering links through here:
    :meth:`PythonCodeGenerator.exec_source` on freshly compiled source, a
    model-entry store hit on the stored (marshalled) code object.
    """
    exec(code, namespace)
    return {name: namespace[py_name] for name, py_name in py_names.items()}


def compile_module_to_python(module: Module) -> Dict[str, object]:
    """Compile every defined function of ``module`` to Python callables."""
    return PythonCodeGenerator(module).compile()


# ---------------------------------------------------------------------------
# Engine registration (see repro.driver.engines)
# ---------------------------------------------------------------------------

from ..driver.engines import EngineCapabilities, EngineInstance, register_engine  # noqa: E402
from .grid_driver import drive_elements  # noqa: E402


class _WholeModelInstance(EngineInstance):
    def execute(self, buffers, num_trials, **options):
        self.model._run_whole_compiled(buffers, num_trials)


@register_engine
class CompiledEngine:
    """Whole-model compiled execution (``compiled``, CPython-DISTILL)."""

    name = "compiled"

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            name=self.name,
            description=(
                "whole-model compiled code: every node and the scheduler lowered "
                "to flat Python with no per-instruction dispatch (CPython-DISTILL)"
            ),
        )

    def prepare(self, model) -> EngineInstance:
        return _WholeModelInstance(self.name, model)


class _PerNodeInstance(EngineInstance):
    def execute(self, buffers, num_trials, **options):
        self.execute_batch([(buffers, num_trials)], **options)

    def execute_batch(self, elements, **options):
        drive_elements(self.model, elements)


@register_engine
class PerNodeEngine:
    """Compiled nodes driven by a Python scheduler (``per-node``, Figure 5b)."""

    name = "per-node"

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            name=self.name,
            description=(
                "compiled node functions with interpretive Python scheduling "
                "(CPython-DISTILL-per-node; shows why model-wide optimisation matters)"
            ),
        )

    def prepare(self, model) -> EngineInstance:
        return _PerNodeInstance(self.name, model)
