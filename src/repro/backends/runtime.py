"""Shared runtime support for the execution backends.

Both the IR interpreter and the compiled Python backend use the same runtime
model:

* memory is a set of flat *slot buffers* (plain Python lists),
* a pointer is a ``(buffer, offset)`` pair,
* ``getelementptr`` becomes slot-offset arithmetic with statically known
  strides, and
* every scalar operation with an edge case (``fdiv``, ``frem``, ``sdiv``,
  ``srem``, the casts and the math intrinsics) and the PRNG intrinsics are
  the functions defined here.

Keeping these semantics in one module guarantees that the interpreter,
constant folding, the generated code and the lane helpers agree
bit-for-bit, which the differential tests rely on.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import List, Sequence, Tuple

from ..cogframe import prng
from ..ir import types as ir_types
from ..ir.types import ArrayType, IRType, PointerType, StructType

Pointer = Tuple[list, int]


# ---------------------------------------------------------------------------
# Memory helpers
# ---------------------------------------------------------------------------

def allocate(ty: IRType) -> Pointer:
    """Allocate a zero-initialised slot buffer for a value of type ``ty``."""
    return ([0.0] * max(ty.slot_count(), 1), 0)


def allocate_buffer(num_slots: int) -> list:
    """Allocate a raw zero-initialised slot buffer."""
    return [0.0] * max(int(num_slots), 1)


def load_slot(ptr: Pointer):
    buffer, offset = ptr
    return buffer[offset]

def store_slot(ptr: Pointer, value) -> None:
    buffer, offset = ptr
    buffer[offset] = value


#: Memoization tables for :func:`gep_offset` / :func:`gep_strides`.  Both
#: helpers are pure functions of ``(type, indices)`` and sit on the
#: per-instruction hot path of the IR interpreter, which re-walks the same
#: aggregate types millions of times per run.  The
#: tables key on ``id(pointee)`` (O(1), no recursive type hashing) and pin
#: the type object in the entry so the id cannot be recycled.  Cached
#: offsets depend on ``slot_count()``, which in-place type mutation
#: (``StructType.add_field``) changes — so both tables are dropped whenever
#: :data:`repro.ir.types.TYPE_MUTATION_EPOCH` moves.
_GEP_OFFSET_CACHE: dict = {}
_GEP_STRIDES_CACHE: dict = {}
_GEP_CACHE_EPOCH = -1

#: Entry cap: a fuzz campaign compiles thousands of throwaway modules whose
#: types would otherwise stay pinned forever; past the cap the table is
#: simply dropped (the next runs re-warm it).
_GEP_CACHE_LIMIT = 4096


def _check_gep_cache_epoch() -> None:
    global _GEP_CACHE_EPOCH
    _GEP_OFFSET_CACHE.clear()
    _GEP_STRIDES_CACHE.clear()
    _GEP_CACHE_EPOCH = ir_types.TYPE_MUTATION_EPOCH


def gep_offset(pointee: IRType, indices: Sequence[int]) -> int:
    """Slot offset addressed by a ``getelementptr`` with constant indices.

    The first index scales by the full pointee size (LLVM semantics); each
    further index walks into the aggregate.  Results are memoized per
    ``(type, indices)``.
    """
    if not indices:
        return 0
    if ir_types.TYPE_MUTATION_EPOCH != _GEP_CACHE_EPOCH:
        _check_gep_cache_epoch()
    key = tuple(indices) if not isinstance(indices, tuple) else indices
    entry = _GEP_OFFSET_CACHE.get(id(pointee))
    if entry is None:
        if len(_GEP_OFFSET_CACHE) >= _GEP_CACHE_LIMIT:
            _GEP_OFFSET_CACHE.clear()
        entry = _GEP_OFFSET_CACHE[id(pointee)] = (pointee, {})
    cached = entry[1].get(key)
    if cached is not None:
        return cached
    offset = int(key[0]) * pointee.slot_count()
    current = pointee
    for idx in key[1:]:
        idx = int(idx)
        if isinstance(current, StructType):
            offset += current.field_slot_offset(idx)
            current = current.field_type(idx)
        elif isinstance(current, ArrayType):
            offset += idx * current.element.slot_count()
            current = current.element
        else:
            raise TypeError(f"cannot index into scalar type {current}")
    entry[1][key] = offset
    return offset


def gep_strides(pointee: IRType, num_indices: int) -> List[Tuple[int, int]]:
    """Static ``(stride, base_adjustment)`` description of a GEP.

    Returns a list with one entry per index: the slot stride that index is
    multiplied by.  Struct indices must be resolved separately because their
    offset is not a linear function of the index; the code generator folds
    constant struct indices before calling this helper.  Results are
    memoized per ``(type, num_indices)``.
    """
    if ir_types.TYPE_MUTATION_EPOCH != _GEP_CACHE_EPOCH:
        _check_gep_cache_epoch()
    entry = _GEP_STRIDES_CACHE.get(id(pointee))
    if entry is None:
        if len(_GEP_STRIDES_CACHE) >= _GEP_CACHE_LIMIT:
            _GEP_STRIDES_CACHE.clear()
        entry = _GEP_STRIDES_CACHE[id(pointee)] = (pointee, {})
    cached = entry[1].get(num_indices)
    if cached is not None:
        return cached
    strides: List[Tuple[int, int]] = [(pointee.slot_count(), 0)]
    current = pointee
    for _ in range(1, num_indices):
        if isinstance(current, ArrayType):
            strides.append((current.element.slot_count(), 0))
            current = current.element
        else:
            raise TypeError(
                "dynamic struct indexing is not supported; struct field "
                "indices must be constants"
            )
    entry[1][num_indices] = strides
    return strides


# ---------------------------------------------------------------------------
# Sanitizer support (``flags={"sanitize": True}`` in the compiled backend)
# ---------------------------------------------------------------------------


class SanitizerTrap(RuntimeError):
    """A sanitizer-instrumented model violated a static claim at runtime.

    The sanitizer codegen mode (:mod:`repro.backends.pycodegen` with
    ``sanitize=True``) instruments the generated Python with checks that
    mirror what the lint suite proved statically: frame accesses stay inside
    their alloca's slot range, constant-offset frame loads only read slots
    the definite-initialisation analysis says were stored, divisions the
    analyses classified as zero-free really are, and results whose value
    range excluded NaN/Inf really are finite.  A trap on a model with no
    lint findings is therefore always an analysis false negative — the fuzz
    oracle's sanitizer leg turns it into a campaign failure.

    The message starts with the trap kind (``out-of-bounds``,
    ``use-before-init``, ``zero-divisor`` or ``non-finite``) so reports can
    group traps by class.
    """


def sanitizer_trap(message: str) -> None:
    """Raise :class:`SanitizerTrap` (bound as ``_san_trap`` in generated code)."""
    raise SanitizerTrap(message)


def float_bits(x: float) -> int:
    """The IEEE-754 binary64 bit pattern of ``x`` (NaN payload and sign kept)."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def float_from_bits(bits: int) -> float:
    """The float with binary64 bit pattern ``bits`` (bound as ``_f64`` in
    generated code, which rebuilds a NaN constant from its bits)."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# ---------------------------------------------------------------------------
# Scalar operation semantics (DESIGN.md, "Scalar operation semantics")
# ---------------------------------------------------------------------------
#
# Every function is total except ``sdiv``/``srem`` by zero, which raise
# ``ZeroDivisionError`` (the IR's one trapping arithmetic).


def fdiv(a: float, b: float) -> float:
    """IEEE division: ``x/±0`` is ±inf by the operand signs, ``0/0`` and
    ``NaN/0`` are NaN."""
    if b == 0.0:
        if a == 0.0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def frem(a: float, b: float) -> float:
    """C ``fmod``: NaN for a zero divisor, an infinite dividend or a NaN
    operand; ``fmod(x, ±inf) == x`` for finite ``x``."""
    if b == 0.0 or math.isinf(a):
        return math.nan
    return math.fmod(a, b)


def shl(a: int, b: int) -> int:
    """``a << b``; an amount outside ``0..63`` gives 0 (numpy's shift of
    an int64 lane array)."""
    return a << b if 0 <= b <= 63 else 0


def ashr(a: int, b: int) -> int:
    """Arithmetic ``a >> b``; an amount outside ``0..63`` fills with the
    sign (numpy's shift of an int64 lane array)."""
    if 0 <= b <= 63:
        return a >> b
    return -1 if a < 0 else 0


def sdiv(a: int, b: int) -> int:
    """Truncating signed division; a zero divisor raises."""
    if b == 0:
        raise ZeroDivisionError("integer division by zero in IR execution")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def srem(a: int, b: int) -> int:
    """C-style signed remainder (the sign of the dividend); a zero divisor
    raises."""
    if b == 0:
        raise ZeroDivisionError("integer remainder by zero in IR execution")
    return a - sdiv(a, b) * b


def fptosi(x: float, width: int) -> int:
    """``llvm.fptosi.sat``: truncate toward zero, NaN to 0, everything else
    saturated to the signed ``width``-bit range."""
    if x != x:
        return 0
    bound = 1 << (width - 1)
    if x >= bound:
        return bound - 1
    if x < -bound:
        return -bound
    return int(x)


_BINARY32 = struct.Struct("f")


def fptrunc(x: float) -> float:
    """``fptrunc`` to ``float``: the nearest binary32 value (ties to even);
    magnitudes past the binary32 range overflow to ±inf, NaN stays NaN and
    the sign of zero is kept."""
    try:
        return _BINARY32.unpack(_BINARY32.pack(x))[0]
    except OverflowError:  # rounds past FLT_MAX
        return math.copysign(math.inf, x)


def cast(opcode: str, value, ty: IRType):
    """The cast ``opcode`` of ``value`` to type ``ty``."""
    if opcode == "sitofp":
        return float(int(value))
    if opcode == "fptosi":
        return fptosi(float(value), ty.width)
    if opcode == "trunc":
        # The low bits, read as an unsigned value.
        return int(value) & ((1 << ty.width) - 1)
    if opcode in ("zext", "sext"):
        return int(value)
    if opcode == "fptrunc":
        return fptrunc(float(value))
    if opcode == "fpext":
        return float(value)
    if opcode == "bitcast":
        return value
    raise ValueError(f"unsupported cast {opcode}")


def intrinsic_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def intrinsic_log(x: float) -> float:
    if x < 0.0:
        return math.nan
    if x == 0.0:
        return -math.inf
    return math.log(x)


def intrinsic_log1p(x: float) -> float:
    if x < -1.0:
        return math.nan
    if x == -1.0:
        return -math.inf
    return math.log1p(x)


def intrinsic_sqrt(x: float) -> float:
    if x < 0.0:
        return math.nan
    return math.sqrt(x)


# ``x - x == 0.0`` is the finiteness test.  ``sin``/``cos`` of ±inf are NaN
# (``math.sin`` raises); ``floor``/``ceil`` return floats and pass NaN and
# ±inf through, a zero result being +0.0 (``ceil(-0.5)``) as from an int.


def intrinsic_sin(x: float) -> float:
    return math.sin(x) if x - x == 0.0 else math.nan


def intrinsic_cos(x: float) -> float:
    return math.cos(x) if x - x == 0.0 else math.nan


def intrinsic_floor(x: float) -> float:
    return float(math.floor(x)) if x - x == 0.0 else x


def intrinsic_ceil(x: float) -> float:
    return float(math.ceil(x)) if x - x == 0.0 else x


def intrinsic_pow(x: float, y: float) -> float:
    try:
        return math.pow(x, y)
    except (OverflowError, ValueError):
        return math.nan


# A NaN operand yields the other one; of two equal operands, the first.


def intrinsic_fmin(x: float, y: float) -> float:
    return y if y < x or x != x else x


def intrinsic_fmax(x: float, y: float) -> float:
    return y if y > x or x != x else x


def rng_uniform_ptr(state: Pointer) -> float:
    """``rng_uniform`` intrinsic: advance the state in place, return a draw."""
    buffer, offset = state
    key = int(buffer[offset])
    counter = int(buffer[offset + 1])
    value, counter = prng.uniform_from_state(key, counter)
    buffer[offset + 1] = counter
    return value


def rng_normal_ptr(state: Pointer) -> float:
    """``rng_normal`` intrinsic: advance the state in place, return a draw."""
    buffer, offset = state
    key = int(buffer[offset])
    counter = int(buffer[offset + 1])
    value, counter = prng.normal_from_state(key, counter)
    buffer[offset + 1] = counter
    return value


def _block_range(ptr: Pointer, count: int) -> Tuple[list, int, int]:
    buffer, offset = ptr
    end = offset + count
    if offset < 0 or end > len(buffer):
        raise IndexError(
            f"block of {count} slots at offset {offset} outside a "
            f"{len(buffer)}-slot buffer"
        )
    return buffer, offset, end


def memcpy_ptr(dst: Pointer, src: Pointer, count: int) -> None:
    """``memcpy`` intrinsic: copy ``count`` slots; the source slice is taken
    in full before the destination is written (``memmove`` semantics)."""
    src_buffer, src_start, src_end = _block_range(src, count)
    dst_buffer, dst_start, dst_end = _block_range(dst, count)
    dst_buffer[dst_start:dst_end] = src_buffer[src_start:src_end]


def memset_ptr(dst: Pointer, value: float, count: int) -> None:
    """``memset`` intrinsic: write ``value`` to ``count`` slots."""
    buffer, start, end = _block_range(dst, count)
    buffer[start:end] = [value] * count


#: Dispatch table used by the interpreter, constant folding, generated code
#: and the lane helpers.  Keys are intrinsic names as they appear in
#: :data:`repro.ir.instructions.INTRINSICS`.  ``tanh``, ``fabs`` and
#: ``copysign`` are total as C functions and bound directly.
INTRINSIC_IMPLS = {
    "exp": intrinsic_exp,
    "log": intrinsic_log,
    "log1p": intrinsic_log1p,
    "sqrt": intrinsic_sqrt,
    "sin": intrinsic_sin,
    "cos": intrinsic_cos,
    "tanh": math.tanh,
    "fabs": abs,
    "floor": intrinsic_floor,
    "ceil": intrinsic_ceil,
    "pow": intrinsic_pow,
    "fmin": intrinsic_fmin,
    "fmax": intrinsic_fmax,
    "copysign": math.copysign,
    "rng_uniform": rng_uniform_ptr,
    "rng_normal": rng_normal_ptr,
    "memcpy": memcpy_ptr,
    "memset": memset_ptr,
}


#: Opcode -> implementation of every binop (the float and int opcodes are
#: disjoint), for the interpreter and the constant folder.
BINOP_IMPLS = {
    "fadd": operator.add,
    "fsub": operator.sub,
    "fmul": operator.mul,
    "fdiv": fdiv,
    "frem": frem,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "sdiv": sdiv,
    "srem": srem,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": shl,
    "ashr": ashr,
}


def eval_fcmp(predicate: str, a: float, b: float) -> int:
    unordered = math.isnan(a) or math.isnan(b)
    if predicate == "ord":
        return 0 if unordered else 1
    if predicate == "uno":
        return 1 if unordered else 0
    if unordered:
        return 0
    if predicate == "oeq":
        return int(a == b)
    if predicate == "one":
        return int(a != b)
    if predicate == "olt":
        return int(a < b)
    if predicate == "ole":
        return int(a <= b)
    if predicate == "ogt":
        return int(a > b)
    if predicate == "oge":
        return int(a >= b)
    raise ValueError(f"unknown fcmp predicate {predicate}")


def eval_icmp(predicate: str, a: int, b: int) -> int:
    if predicate == "eq":
        return int(a == b)
    if predicate == "ne":
        return int(a != b)
    if predicate == "slt":
        return int(a < b)
    if predicate == "sle":
        return int(a <= b)
    if predicate == "sgt":
        return int(a > b)
    if predicate == "sge":
        return int(a >= b)
    raise ValueError(f"unknown icmp predicate {predicate}")
