"""Type system for the repro IR.

The repro IR mirrors the subset of LLVM's type system that Distill relies on:
scalar integer and floating point types, booleans, pointers, fixed-size arrays
and named structures.  Types are immutable value objects: two structurally
identical types compare equal and hash equally, which the verifier, the clone
detector and the code generators all rely on.

A central concept used throughout the backends is the *slot layout*.  Rather
than modelling byte-addressable memory, aggregate types are flattened into a
linear sequence of scalar slots (one slot per scalar leaf).  ``slot_count``
returns the number of slots occupied by a type and ``field_slot_offset`` /
``element_slot_offset`` compute the linear offset of a member, which is what
the ``getelementptr`` instruction lowers to in every execution engine.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Monotonic counter bumped whenever a type is mutated in place (today only
#: ``StructType.add_field``).  Consumers that memoize derived facts about
#: types compare this epoch and drop their memos when it moves, because
#: appending a field changes ``slot_count()`` and therefore every offset
#: that scales by the whole aggregate (including transitively, via arrays of
#: structs).  The consumers are:
#:
#: * ``repro.backends.runtime``'s GEP-offset tables;
#: * ``StructType``'s field layout (behind ``slot_count``,
#:   ``field_slot_offset``, ``field_at_slot`` and ``field_index``), memoized
#:   per struct and extended in place by ``add_field`` (a struct embedding
#:   no other struct needs no epoch check: only its own ``add_field`` can
#:   move its layout);
#: * ``repro.ir.fingerprint.type_signature``'s expanded struct bodies,
#:   memoized per struct.
#:
#: The per-struct memos live on the struct object, not in an ``id()``-keyed
#: table: every GEP builds a fresh ``PointerType``, so identity keys miss.
TYPE_MUTATION_EPOCH = 0


def bump_type_mutation_epoch() -> None:
    global TYPE_MUTATION_EPOCH
    TYPE_MUTATION_EPOCH += 1



class IRType:
    """Base class of every type in the repro IR."""

    #: True for types that occupy exactly one memory slot.
    is_scalar = False
    #: True for floating point types.
    is_float = False
    #: True for integer types (including booleans).
    is_int = False
    #: True for pointer types.
    is_pointer = False
    #: True for aggregate (array/struct) types.
    is_aggregate = False
    #: True for the void type.
    is_void = False

    def slot_count(self) -> int:
        """Number of scalar memory slots this type occupies when stored."""
        raise NotImplementedError

    def default_value(self):
        """The zero-initialised Python value for a scalar of this type."""
        raise NotImplementedError("only scalar types have default values")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{self.__class__.__name__} {self}>"


class VoidType(IRType):
    """The type of functions that return no value."""

    is_void = True

    def slot_count(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"

    def __eq__(self, other) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")


class IntType(IRType):
    """An integer type of a fixed bit width.

    Width 1 is the boolean type produced by comparisons.  The interpreter and
    the Python backend use ordinary Python integers to hold these values, but
    the width still matters for overflow semantics of ``trunc`` and for the
    printer/clone-detector, so it is part of the type identity.
    """

    is_scalar = True
    is_int = True

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError(f"integer width must be positive, got {width}")
        self.width = int(width)

    def slot_count(self) -> int:
        return 1

    def default_value(self) -> int:
        return 0

    def __str__(self) -> str:
        return f"i{self.width}"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntType) and other.width == self.width

    def __hash__(self) -> int:
        return hash(("int", self.width))


class FloatType(IRType):
    """An IEEE-754 floating point type (``float`` = f32, ``double`` = f64)."""

    is_scalar = True
    is_float = True

    def __init__(self, width: int):
        if width not in (32, 64):
            raise ValueError(f"float width must be 32 or 64, got {width}")
        self.width = int(width)

    def slot_count(self) -> int:
        return 1

    def default_value(self) -> float:
        return 0.0

    def __str__(self) -> str:
        return "float" if self.width == 32 else "double"

    def __eq__(self, other) -> bool:
        return isinstance(other, FloatType) and other.width == self.width

    def __hash__(self) -> int:
        return hash(("float", self.width))


class PointerType(IRType):
    """A pointer to a value of ``pointee`` type.

    Pointers are represented at run time as ``(buffer, offset)`` pairs where
    ``buffer`` is a flat slot container.  Pointer values occupy one slot when
    stored (although models never store pointers into aggregates in practice).
    """

    is_scalar = True
    is_pointer = True

    def __init__(self, pointee: IRType):
        if pointee is None:
            raise ValueError("pointer must have a pointee type")
        self.pointee = pointee

    def slot_count(self) -> int:
        return 1

    def default_value(self):
        return None

    def __str__(self) -> str:
        return f"{self.pointee}*"

    def __eq__(self, other) -> bool:
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))


class ArrayType(IRType):
    """A fixed-length homogeneous array ``[count x element]``."""

    is_aggregate = True

    def __init__(self, element: IRType, count: int):
        if count < 0:
            raise ValueError(f"array length must be non-negative, got {count}")
        self.element = element
        self.count = int(count)

    def slot_count(self) -> int:
        return self.count * self.element.slot_count()

    def element_slot_offset(self, index: int) -> int:
        """Linear slot offset of ``array[index]`` within the array."""
        return index * self.element.slot_count()

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.count == self.count
            and other.element == self.element
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self.count))


class StructType(IRType):
    """A named structure with ordered, named fields.

    Distill's static data-structure conversion (paper section 3.3) lowers the
    dynamic dicts and lists used by cognitive models into structs of this
    kind.  Field names are retained so that generated IR stays readable and
    so that the control/data-flow analyses can report results in terms of the
    original model parameters.
    """

    is_aggregate = True

    #: Epoch-stamped memos, ``(TYPE_MUTATION_EPOCH, ...)`` or ``None``: the
    #: field layout — cumulative slot offsets, the name -> index map and
    #: whether a field embeds another struct — and the expanded
    #: ``type_signature`` body.  Class-level defaults so unpickled structs
    #: (whose memos :meth:`__getstate__` strips) start empty.
    _layout_memo: Optional[Tuple[int, List[int], Dict[str, int], bool]] = None
    signature_memo: Optional[Tuple[int, str]] = None

    def __init__(self, name: str, fields: Sequence[Tuple[str, IRType]] = ()):
        self.name = name
        self.fields: list[Tuple[str, IRType]] = list(fields)

    def __getstate__(self):
        # An epoch stamp means nothing in another process.
        state = dict(self.__dict__)
        state.pop("_layout_memo", None)
        state.pop("signature_memo", None)
        return state

    # -- construction -------------------------------------------------
    def add_field(self, name: str, ftype: IRType) -> int:
        """Append a field and return its index."""
        offsets, index = self._layout()
        if name in index:
            raise ValueError(f"duplicate field {name!r} in struct {self.name}")
        nested = self._layout_memo[3] or _embeds_struct(ftype)
        self.fields.append((name, ftype))
        bump_type_mutation_epoch()
        # Only this struct changed since the memo was current, so extend it
        # rather than rebuild it: layouts grow one field at a time.
        offsets.append(offsets[-1] + ftype.slot_count())
        index[name] = len(self.fields) - 1
        self._layout_memo = (TYPE_MUTATION_EPOCH, offsets, index, nested)
        return len(self.fields) - 1

    # -- queries ------------------------------------------------------
    def _layout(self) -> Tuple[List[int], Dict[str, int]]:
        """Cumulative slot offsets (entry ``i`` is field ``i``'s offset, the
        last entry the struct's ``slot_count``) and the name -> index map.

        A struct that embeds no other struct skips the epoch check: only its
        own :meth:`add_field` can move its layout, and that keeps the memo
        current.  Layout construction interleaves appends to several
        structs, so an epoch check alone would rebuild on every probe.
        """
        memo = self._layout_memo
        if memo is not None and (memo[0] == TYPE_MUTATION_EPOCH or not memo[3]):
            return memo[1], memo[2]
        offsets = [0]
        index: Dict[str, int] = {}
        nested = False
        for i, (fname, ftype) in enumerate(self.fields):
            offsets.append(offsets[-1] + ftype.slot_count())
            index.setdefault(fname, i)
            nested = nested or _embeds_struct(ftype)
        self._layout_memo = (TYPE_MUTATION_EPOCH, offsets, index, nested)
        return offsets, index

    def field_index(self, name: str) -> int:
        try:
            return self._layout()[1][name]
        except KeyError:
            raise KeyError(f"struct {self.name} has no field {name!r}") from None

    def field_type(self, index: int) -> IRType:
        return self.fields[index][1]

    def field_names(self) -> list[str]:
        return [name for name, _ in self.fields]

    def slot_count(self) -> int:
        return self._layout()[0][-1]

    def field_slot_offset(self, index: int) -> int:
        """Linear slot offset of field ``index`` within the struct."""
        if index < 0 or index >= len(self.fields):
            raise IndexError(
                f"field index {index} out of range for struct {self.name}"
            )
        return self._layout()[0][index]

    def field_at_slot(self, slot: int) -> Tuple[int, int]:
        """``(field index, slot within that field)`` of linear ``slot``."""
        offsets = self._layout()[0]
        if slot < 0 or slot >= offsets[-1]:
            raise IndexError(f"slot {slot} out of range for struct {self.name}")
        # The last field starting at or before ``slot``: zero-slot fields
        # share their successor's offset and are skipped over.
        index = bisect_right(offsets, slot, 0, len(self.fields)) - 1
        return index, slot - offsets[index]

    def __str__(self) -> str:
        return f"%{self.name}"

    def describe(self) -> str:
        """Full textual definition used by the module printer."""
        body = ", ".join(f"{ftype} {fname}" for fname, ftype in self.fields)
        return f"%{self.name} = type {{ {body} }}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructType)
            and other.name == self.name
            and other.fields == self.fields
        )

    def __hash__(self) -> int:
        return hash(("struct", self.name, tuple(self.fields)))


def _embeds_struct(ty: IRType) -> bool:
    """True when ``ty``'s slots include a struct's (directly or in arrays);
    a pointer is one slot whatever it points to."""
    while isinstance(ty, ArrayType):
        ty = ty.element
    return isinstance(ty, StructType)


class FunctionType(IRType):
    """The type of an IR function: a return type plus parameter types."""

    def __init__(self, return_type: IRType, param_types: Iterable[IRType]):
        self.return_type = return_type
        self.param_types: list[IRType] = list(param_types)

    def slot_count(self) -> int:
        raise TypeError("function types are not storable")

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types)
        return f"{self.return_type} ({params})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.return_type == self.return_type
            and other.param_types == self.param_types
        )

    def __hash__(self) -> int:
        return hash(("fn", self.return_type, tuple(self.param_types)))


# --------------------------------------------------------------------------
# Singletons for the common types.  Using shared instances keeps type
# comparison cheap and makes IR dumps compact.
# --------------------------------------------------------------------------
VOID = VoidType()
BOOL = IntType(1)
I8 = IntType(8)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)


def pointer(pointee: IRType) -> PointerType:
    """Convenience constructor for pointer types."""
    return PointerType(pointee)


def array(element: IRType, count: int) -> ArrayType:
    """Convenience constructor for array types."""
    return ArrayType(element, count)


def slots_of(ty: IRType) -> int:
    """Number of scalar slots occupied by ``ty`` (module-level convenience)."""
    return ty.slot_count()
