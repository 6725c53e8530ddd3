"""Tests for the IR type system and slot layout computation."""

import pickle

import pytest

from repro.ir import (
    BOOL,
    F32,
    F64,
    I32,
    I64,
    VOID,
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
)
from repro.ir import types as ir_types
from repro.ir.fingerprint import type_signature


class TestScalarTypes:
    def test_int_equality_by_width(self):
        assert IntType(64) == I64
        assert IntType(32) == I32
        assert IntType(32) != IntType(64)

    def test_float_equality_by_width(self):
        assert FloatType(64) == F64
        assert FloatType(32) == F32
        assert F32 != F64

    def test_bool_is_i1(self):
        assert BOOL.width == 1
        assert BOOL.is_int

    def test_scalars_occupy_one_slot(self):
        for ty in (BOOL, I32, I64, F32, F64):
            assert ty.slot_count() == 1
            assert ty.is_scalar

    def test_void_has_no_slots(self):
        assert VOID.slot_count() == 0
        assert VOID.is_void

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            IntType(0)
        with pytest.raises(ValueError):
            FloatType(16)

    def test_default_values(self):
        assert F64.default_value() == 0.0
        assert I64.default_value() == 0

    def test_types_are_hashable(self):
        mapping = {F64: "double", I64: "long", BOOL: "bool"}
        assert mapping[FloatType(64)] == "double"
        assert mapping[IntType(64)] == "long"

    def test_str_forms(self):
        assert str(F64) == "double"
        assert str(F32) == "float"
        assert str(I64) == "i64"
        assert str(BOOL) == "i1"


class TestPointerTypes:
    def test_pointer_equality(self):
        assert PointerType(F64) == PointerType(F64)
        assert PointerType(F64) != PointerType(I64)

    def test_pointer_str(self):
        assert str(PointerType(F64)) == "double*"

    def test_pointer_is_scalar_slot(self):
        assert PointerType(F64).slot_count() == 1
        assert PointerType(F64).is_pointer


class TestAggregateTypes:
    def test_array_slots(self):
        assert ArrayType(F64, 5).slot_count() == 5
        assert ArrayType(ArrayType(F64, 3), 4).slot_count() == 12

    def test_array_element_offsets(self):
        nested = ArrayType(ArrayType(F64, 3), 4)
        assert nested.element_slot_offset(2) == 6

    def test_struct_slots_and_offsets(self):
        s = StructType("s", [("a", F64), ("b", ArrayType(F64, 3)), ("c", I64)])
        assert s.slot_count() == 5
        assert s.field_slot_offset(0) == 0
        assert s.field_slot_offset(1) == 1
        assert s.field_slot_offset(2) == 4

    def test_struct_field_lookup(self):
        s = StructType("s", [("a", F64), ("b", I64)])
        assert s.field_index("b") == 1
        assert s.field_type(1) == I64
        with pytest.raises(KeyError):
            s.field_index("missing")

    def test_struct_duplicate_field_rejected(self):
        s = StructType("s", [("a", F64)])
        with pytest.raises(ValueError):
            s.add_field("a", F64)

    def test_struct_add_field_returns_index(self):
        s = StructType("s")
        assert s.add_field("x", F64) == 0
        assert s.add_field("y", F64) == 1

    def test_nested_struct_slots(self):
        inner = StructType("inner", [("u", F64), ("v", F64)])
        outer = StructType("outer", [("head", F64), ("body", inner), ("tail", ArrayType(inner, 2))])
        assert outer.slot_count() == 1 + 2 + 4
        assert outer.field_slot_offset(2) == 3

    def test_struct_describe(self):
        s = StructType("params", [("gain", F64), ("bias", F64)])
        assert s.describe() == "%params = type { double gain, double bias }"


class TestFunctionTypes:
    def test_equality(self):
        a = FunctionType(F64, [F64, F64])
        b = FunctionType(F64, [F64, F64])
        c = FunctionType(F64, [F64])
        assert a == b
        assert a != c

    def test_str(self):
        assert str(FunctionType(F64, [F64, I64])) == "double (double, i64)"

    def test_not_storable(self):
        with pytest.raises(TypeError):
            FunctionType(F64, []).slot_count()


class TestMemosFollowTheMutationEpoch:
    """Struct layouts and expanded ``type_signature`` bodies are memoized on
    the struct and stamped with ``TYPE_MUTATION_EPOCH``: an ``add_field`` on
    an embedded struct must reach every struct that embeds it."""

    @staticmethod
    def facts(struct):
        last = struct.slot_count() - 1
        return (
            struct.slot_count(),
            [struct.field_slot_offset(i) for i in range(len(struct.fields))],
            [struct.field_at_slot(slot) for slot in range(last + 1)],
            type_signature(struct),
            type_signature(PointerType(struct)),
        )

    @staticmethod
    def recomputed(struct):
        """The same facts from a struct that has never memoized anything."""
        return TestMemosFollowTheMutationEpoch.facts(StructType(struct.name, struct.fields))

    def test_add_field_on_the_struct_itself(self):
        struct = StructType("direct", [("a", F64), ("b", ArrayType(F64, 3))])
        before = self.facts(struct)
        assert before[0] == 4 and struct.field_at_slot(3) == (1, 2)
        epoch = ir_types.TYPE_MUTATION_EPOCH
        struct.add_field("c", ArrayType(F64, 2))
        assert ir_types.TYPE_MUTATION_EPOCH > epoch
        after = self.facts(struct)
        assert after == self.recomputed(struct)
        assert after[0] == 6
        assert struct.field_at_slot(5) == (2, 1)
        assert struct.field_index("c") == 2
        assert "c:[2xdouble]" in after[3] and after[3] != before[3]

    @pytest.mark.parametrize(
        "embed",
        [lambda inner: ArrayType(inner, 2), PointerType],
        ids=["array", "pointer"],
    )
    def test_add_field_on_an_embedded_struct(self, embed):
        inner = StructType("inner", [("x", F64)])
        outer = StructType("outer", [("head", F64), ("body", embed(inner)), ("tail", F64)])
        before = self.facts(outer)
        inner.add_field("y", ArrayType(F64, 2))
        after = self.facts(outer)
        assert after == self.recomputed(outer)
        # The expanded body always moves; the layout moves only where the
        # struct's slots are embedded (a pointer is one slot).
        assert after[3] != before[3] and "y:[2xdouble]" in after[3]
        assert after[4] != before[4]
        if isinstance(outer.field_type(1), ArrayType):
            assert (before[0], after[0]) == (4, 8)
            assert outer.field_at_slot(6) == (1, 5)
            assert outer.field_slot_offset(2) == 7
        else:
            assert before[:3] == after[:3]

    def test_slot_lookup_skips_zero_slot_fields(self):
        struct = StructType(
            "gaps",
            [("a", ArrayType(F64, 0)), ("b", F64), ("c", ArrayType(F64, 0)), ("d", ArrayType(F64, 2))],
        )
        assert [struct.field_at_slot(s) for s in range(3)] == [(1, 0), (3, 0), (3, 1)]
        with pytest.raises(IndexError):
            struct.field_at_slot(3)

    def test_memos_do_not_travel_with_a_pickle(self):
        struct = StructType("travel", [("a", F64)])
        self.facts(struct)
        state = struct.__getstate__()
        assert state == {"name": "travel", "fields": [("a", F64)]}
        clone = pickle.loads(pickle.dumps(struct))
        assert self.facts(clone) == self.facts(struct)
