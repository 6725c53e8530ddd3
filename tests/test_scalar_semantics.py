"""Cross-engine sweep of every scalar operation's edge cases.

:mod:`repro.backends.runtime` is the one definition of each scalar
operation (DESIGN.md, "Scalar operation semantics").  This sweep runs every
float and int binop, every cast and every non-PRNG intrinsic as a
one-instruction function over the edge inputs — ±0, ±0.5, ±1, ±1e308, 1e30,
the smallest subnormal, ±inf and NaN — on the reference interpreter,
constant folding, the structured ``compiled`` lowering and the ``lane``
program (lane arrays and lane-uniform scalars), and requires the same result everywhere: the same bits (sign of
zero included, NaN for NaN) or the same exception type.

The one tolerance is the lane engine's documented one: over lane arrays,
numpy's transcendental kernels may differ from libm in the final ulp
(:data:`repro.fuzz.oracle.LANE_RTOL`); NaN, ±inf and ±0 still match exactly.
"""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np
import pytest

from repro.backends.interp import Interpreter
from repro.backends.lane import compile_lane_program
from repro.backends.pycodegen import PythonCodeGenerator
from repro.fuzz.oracle import LANE_RTOL
from repro.ir import F64, I32, I64, VOID, ArrayType, FunctionType, IRBuilder, Module, PointerType
from repro.ir.instructions import (
    FLOAT_BINOPS,
    INT_BINOPS,
    MATH_INTRINSICS,
    BinaryOp,
    Cast,
)
from repro.ir.types import F32
from repro.ir.values import Constant
from repro.ir.verifier import verify_module
from repro.passes.constprop import fold_instruction

EDGE_FLOATS = (
    0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1e308, -1e308, 1e30, 5e-324,
    math.inf, -math.inf, math.nan,
)

#: Integer operands: zero (the divisor edge), both signs, and a magnitude
#: that exercises truncating division.
EDGE_INTS = (0, 1, -1, 7, -7)

#: Shift amounts add the first amounts past 63 (with the negative ones,
#: the out-of-range amounts the runtime defines).
SHIFT_AMOUNTS = EDGE_INTS + (64, 65, 100)

#: Integer cast sources add the i64 extremes.
CAST_INTS = EDGE_INTS + (2**63 - 1, -(2**63))

#: Intrinsics whose lane-array results come from numpy's transcendental
#: kernels (within LANE_RTOL of libm).
TRANSCENDENTAL = frozenset(("exp", "log", "log1p", "tanh", "pow", "sin", "cos"))

#: Cast case -> ``(source type, target type, inputs)``; the opcode is the
#: case name up to an ``_`` suffix.
CASTS = {
    "sitofp": (I64, F64, CAST_INTS),
    "fptosi": (F64, I64, EDGE_FLOATS),
    "fptosi_i32": (F64, I32, EDGE_FLOATS),
    "fpext": (F32, F64, EDGE_FLOATS),
    "fptrunc": (F64, F32, EDGE_FLOATS + (0.1,)),
    "zext": (I32, I64, EDGE_INTS),
    "sext": (I32, I64, EDGE_INTS),
    "trunc": (I64, I32, CAST_INTS),
    "bitcast": (F64, F64, EDGE_FLOATS),
}

#: Results pinned independently of the runtime, ``(op, args) -> value``:
#: ``fptrunc`` to ``float`` rounds to binary32 (overflowing to ±inf).
PINNED = {
    ("fptrunc", (1e308,)): math.inf,
    ("fptrunc", (-1e308,)): -math.inf,
    ("fptrunc", (0.1,)): 0.10000000149011612,
}


def _op_cases():
    for op in FLOAT_BINOPS:
        yield pytest.param("binop", op, id=op)
    for op in INT_BINOPS:
        yield pytest.param("binop", op, id=op)
    for op in CASTS:
        yield pytest.param("cast", op, id=op)
    for op in MATH_INTRINSICS:
        yield pytest.param("intrinsic", op, id=op)


# ---------------------------------------------------------------------------
# One-instruction functions
# ---------------------------------------------------------------------------


def _signature(kind, op):
    """``(param types, result type, input tuples)`` of an op."""
    if kind == "binop":
        if op in FLOAT_BINOPS:
            return [F64, F64], F64, list(itertools.product(EDGE_FLOATS, repeat=2))
        if op in ("shl", "ashr"):
            return [I64, I64], I64, list(itertools.product(EDGE_INTS, SHIFT_AMOUNTS))
        return [I64, I64], I64, list(itertools.product(EDGE_INTS, repeat=2))
    if kind == "cast":
        src, dst, inputs = CASTS[op]
        return [src], dst, [(x,) for x in inputs]
    arity = 2 if op in ("pow", "fmin", "fmax", "copysign") else 1
    return [F64] * arity, F64, list(itertools.product(EDGE_FLOATS, repeat=arity))


def _emit(b, kind, op, result_type, operands):
    if kind == "binop":
        return b._insert(BinaryOp(op, operands[0], operands[1]))
    if kind == "cast":
        return b._insert(Cast(op.split("_")[0], operands[0], result_type))
    return b.intrinsic(op, operands)


def build_op_module(kind, op):
    """``f(args) = op(args)`` as a verified module."""
    params, result, _ = _signature(kind, op)
    module = Module(f"sweep_{op}")
    names = [f"a{i}" for i in range(len(params))]
    fn = module.add_function("f", FunctionType(result, params), names)
    b = IRBuilder(fn.append_block("entry"))
    b.ret(_emit(b, kind, op, result, list(fn.args)))
    verify_module(module)
    return module


def fold_op(kind, op, args):
    """Constant folding of ``op`` on constant operands (``None``: unfolded)."""
    params, result, _ = _signature(kind, op)
    module = Module(f"fold_{op}")
    fn = module.add_function("k", FunctionType(result, []), [])
    b = IRBuilder(fn.append_block("entry"))
    instr = _emit(b, kind, op, result, [Constant(t, a) for t, a in zip(params, args)])
    b.ret(instr)
    folded = fold_instruction(instr)
    return None if folded is None else folded.value


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the exception type is the result
        return exc


def _lane_scalar(value, result):
    value = np.asarray(value).reshape(-1)[0]
    return float(value) if result.is_float else int(value)


def run_engines(kind, op):
    """``{engine: [outcome per input tuple]}`` plus the input tuples."""
    params, result, inputs = _signature(kind, op)
    module = build_op_module(kind, op)
    interp = Interpreter(module)
    compiled = PythonCodeGenerator(module).compile()["f"]
    program = compile_lane_program(module, lambda name: compiled)
    assert program.fallbacks == []
    lane = program.functions["f"]
    dtypes = [np.float64 if t.is_float else np.int64 for t in params]
    one = np.ones(1, dtype=bool)
    engines = ("ir-interp", "constprop", "compiled", "lane", "lane-uniform")
    outcomes = {engine: [] for engine in engines}
    for args in inputs:
        outcomes["ir-interp"].append(_outcome(lambda: interp.call("f", list(args))))
        outcomes["constprop"].append(_outcome(lambda: fold_op(kind, op, args)))
        outcomes["compiled"].append(_outcome(lambda: compiled(*args)))
        arrays = [np.array([a], dtype=d) for a, d in zip(args, dtypes)]
        with np.errstate(all="ignore"):  # as the lane engine runs its programs
            outcomes["lane"].append(
                _outcome(lambda: _lane_scalar(lane(*arrays, one), result))
            )
            outcomes["lane-uniform"].append(
                _outcome(lambda: _lane_scalar(lane(*args, one), result))
            )
    return inputs, result, outcomes


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def same(expected, got, result, rtol=0.0):
    if isinstance(expected, Exception) or isinstance(got, Exception):
        return type(expected) is type(got)
    if not result.is_float:
        return int(expected) == int(got)
    expected, got = float(expected), float(got)
    if math.isnan(expected) or math.isnan(got):
        return math.isnan(expected) and math.isnan(got)
    if expected == got:
        return math.copysign(1.0, expected) == math.copysign(1.0, got)
    if rtol and math.isfinite(expected) and math.isfinite(got) and expected and got:
        return abs(got - expected) <= rtol * abs(expected)
    return False


@pytest.mark.parametrize("kind, op", list(_op_cases()))
def test_every_engine_agrees_with_the_runtime(kind, op):
    inputs, result, outcomes = run_engines(kind, op)
    reference = outcomes["ir-interp"]
    mismatches = [
        ("pinned", args, PINNED[op, args], expected)
        for args, expected in zip(inputs, reference)
        if (op, args) in PINNED and not same(PINNED[op, args], expected, result)
    ]
    for engine, values in outcomes.items():
        rtol = LANE_RTOL if engine == "lane" and op in TRANSCENDENTAL else 0.0
        for args, expected, got in zip(inputs, reference, values):
            if engine == "constprop":
                if got is None and isinstance(expected, Exception):
                    continue  # a trapping op stays unfolded
                if got is None or isinstance(got, Exception):
                    mismatches.append((engine, args, expected, got or "unfolded"))
                    continue
            if not same(expected, got, result, rtol):
                mismatches.append((engine, args, expected, got))
    assert not mismatches, mismatches[:10]


def test_vrp_maps_fptrunc_through_the_rounding():
    from repro.analysis.intervals import Interval
    from repro.analysis.vrp import ValueRangePropagation

    fn = build_op_module("cast", "fptrunc").functions["f"]
    vrp = ValueRangePropagation(
        fn, arg_ranges={"a0": Interval(0.1, 1e308)}, assume_normal_range=None
    ).run()
    assert (vrp.return_range.lo, vrp.return_range.hi) == (0.10000000149011612, math.inf)


def test_only_integer_division_by_zero_traps():
    """Every float binop, cast and intrinsic is total on the reference;
    ``sdiv``/``srem`` raise ``ZeroDivisionError`` exactly on a zero divisor."""
    for case in _op_cases():
        kind, op = case.values
        interp = Interpreter(build_op_module(kind, op))
        for args in _signature(kind, op)[2]:
            outcome = _outcome(lambda: interp.call("f", list(args)))
            if op in ("sdiv", "srem") and args[1] == 0:
                assert isinstance(outcome, ZeroDivisionError), (op, args, outcome)
            else:
                assert not isinstance(outcome, Exception), (op, args, outcome)


@pytest.mark.xfail(
    strict=True, reason="i64 overflow: scalar engines keep Python ints, lane arrays wrap"
)
def test_i64_overflow_agrees_across_engines():
    """``add``/``mul`` past 2**63: ``ir-interp`` and ``compiled`` compute
    unbounded Python ints, lane arrays wrap at 64 bits."""
    for op, args in (("add", (2**62, 2**62)), ("mul", (2**62, 4))):
        module = build_op_module("binop", op)
        compiled = PythonCodeGenerator(module).compile()["f"]
        lane = compile_lane_program(module, lambda name: compiled).functions["f"]
        arrays = [np.array([a], dtype=np.int64) for a in args]
        with np.errstate(all="ignore"):
            assert int(lane(*arrays, np.ones(1, dtype=bool))[0]) == compiled(*args)


# ---------------------------------------------------------------------------
# Block memory intrinsics
# ---------------------------------------------------------------------------

#: A quiet NaN with a nonzero payload: a copy must keep every bit.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0123))[0]

#: The buffer every block case starts from: signed zeros, the NaN payload,
#: infinities and distinct finite values.
BLOCK_BUFFER = [-0.0, NAN_PAYLOAD, math.inf, -math.inf, 0.0] + [i + 0.25 for i in range(19)]

#: ``(intrinsic, dst, src, count)``: overlapping copies in both directions
#: on both sides of the per-slot expansion bound (4), count 0, 4, 5, 8
#: and 9.
BLOCK_CASES = [
    ("memcpy", 1, 0, 3),
    ("memcpy", 0, 1, 3),
    ("memcpy", 3, 0, 12),
    ("memcpy", 0, 3, 12),
    ("memcpy", 5, 5, 9),
    ("memcpy", 10, 0, 0),
    ("memcpy", 12, 0, 4),
    ("memcpy", 12, 0, 5),
    ("memcpy", 12, 0, 8),
    ("memcpy", 12, 0, 9),
    ("memset", 4, None, 0),
    ("memset", 4, None, 4),
    ("memset", 4, None, 5),
    ("memset", 4, None, 9),
]

#: ``memset`` values: both zeros (a ``+0.0`` fill has its own lowering) and
#: the NaN payload.
MEMSET_VALUES = (0.0, -0.0, NAN_PAYLOAD)

def build_block_module(intrinsic, count, dst=None, src=None, value=None):
    """``f(buf, dst, src, value)``: one ``memcpy``/``memset`` of ``count``
    slots of ``buf``.  An offset or value given here is baked in as a
    constant; ``None`` reads the argument."""
    module = Module(f"block_{intrinsic}")
    fn = module.add_function(
        "f",
        FunctionType(VOID, [PointerType(F64), I64, I64, F64]),
        ["buf", "dst", "src", "value"],
    )
    b = IRBuilder(fn.append_block("entry"))
    buf, dst_arg, src_arg, value_arg = fn.args

    def at(offset, arg):
        return b.gep(buf, [arg if offset is None else b.i64(offset)])

    if intrinsic == "memcpy":
        b.memcpy(at(dst, dst_arg), at(src, src_arg), count)
    else:
        b.memset(at(dst, dst_arg), value_arg if value is None else b.f64(value), count)
    b.ret()
    verify_module(module)
    return module


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _block_cases():
    for intrinsic, dst, src, count in BLOCK_CASES:
        values = MEMSET_VALUES if intrinsic == "memset" else (0.0,)
        for value, baked in itertools.product(values, (False, True)):
            case = f"{intrinsic}-{dst}-{src}-{count}-{value!r}-{'const' if baked else 'arg'}"
            yield pytest.param(intrinsic, dst, src, count, value, baked, id=case)


@pytest.mark.parametrize("intrinsic, dst, src, count, value, baked", list(_block_cases()))
def test_block_intrinsics_agree_bitwise(intrinsic, dst, src, count, value, baked):
    """``memcpy``/``memset`` give the same bits on every engine, with the
    offsets as constants (folded pointers) or as arguments (run-time
    offsets), and the source read in full before the destination is
    written."""
    if baked:
        module = build_block_module(intrinsic, count, dst, src if src is not None else 0, value)
    else:
        module = build_block_module(intrinsic, count)
    args = (dst, src if src is not None else 0, value)
    expected = list(BLOCK_BUFFER)
    if intrinsic == "memcpy":
        expected[dst : dst + count] = BLOCK_BUFFER[src : src + count]
    else:
        expected[dst : dst + count] = [value] * count

    compiled = PythonCodeGenerator(module).compile()["f"]
    outcomes = {}
    for engine, call in (
        ("ir-interp", lambda ptr: Interpreter(module).call("f", [ptr, *args])),
        ("compiled", lambda ptr: compiled(ptr, *args)),
        ("sanitize", lambda ptr: PythonCodeGenerator(module, sanitize=True).compile()["f"](ptr, *args)),
    ):
        buffer = list(BLOCK_BUFFER)
        call((buffer, 0))
        outcomes[engine] = buffer
    program = compile_lane_program(module, lambda name: compiled)
    assert program.fallbacks == []
    lanes = np.array([BLOCK_BUFFER] * 2)
    program.functions["f"]((lanes, 0), *args, np.ones(2, dtype=bool))
    outcomes["lane"] = lanes[0]
    outcomes["lane (second lane)"] = lanes[1]
    for engine, buffer in outcomes.items():
        assert bits(buffer) == bits(expected), engine


#: ``(intrinsic, dst, src, count)`` ranges outside the 24-slot
#: :data:`BLOCK_BUFFER`: a destination or source past its end, and a
#: negative start, in the slice form (more than 4 slots).
OUT_OF_RANGE_CASES = [
    ("memcpy", 20, 0, 5),
    ("memcpy", 0, 20, 5),
    ("memcpy", -2, 0, 5),
    ("memcpy", 0, -2, 9),
    ("memset", 21, None, 5),
    ("memset", -1, None, 9),
]


@pytest.mark.parametrize("baked", [False, True], ids=["arg", "const"])
@pytest.mark.parametrize("intrinsic, dst, src, count", OUT_OF_RANGE_CASES)
def test_block_intrinsic_out_of_range_raises(intrinsic, dst, src, count, baked):
    """A range outside its buffer raises ``IndexError`` on ``compiled`` as
    on ``ir-interp``, and neither resizes nor writes the buffer."""
    src = 0 if src is None else src
    if baked:
        module = build_block_module(intrinsic, count, dst, src, 1.5)
    else:
        module = build_block_module(intrinsic, count)
    args = (dst, src, 1.5)
    compiled = PythonCodeGenerator(module).compile()["f"]
    for engine, call in (
        ("ir-interp", lambda ptr: Interpreter(module).call("f", [ptr, *args])),
        ("compiled", lambda ptr: compiled(ptr, *args)),
    ):
        buffer = list(BLOCK_BUFFER)
        with pytest.raises(IndexError):
            call((buffer, 0))
        assert bits(buffer) == bits(BLOCK_BUFFER), engine


def test_nan_constants_keep_their_bits():
    """Each NaN constant pools once per bit pattern (payload and sign) and
    stores the same bits on every engine."""
    nans = [
        NAN_PAYLOAD,
        struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0042))[0],
        float("nan"),
    ]
    module = Module("nan_constants")
    fn = module.add_function("f", FunctionType(VOID, [PointerType(F64)]), ["buf"])
    b = IRBuilder(fn.append_block("entry"))
    (buf,) = fn.args
    stored = nans + nans
    for slot, value in enumerate(stored):
        b.store(b.f64(value), b.gep(buf, [b.i64(slot)]))
    b.ret()
    verify_module(module)
    generator = PythonCodeGenerator(module)
    assert generator.generate_source().count("_f64(") == len(nans)
    compiled = generator.compile()["f"]
    outcomes = {}
    for engine, call in (
        ("ir-interp", lambda ptr: Interpreter(module).call("f", [ptr])),
        ("compiled", compiled),
    ):
        buffer = [0.0] * len(stored)
        call((buffer, 0))
        outcomes[engine] = buffer
    program = compile_lane_program(module, lambda name: compiled)
    lanes = np.zeros((2, len(stored)))
    program.functions["f"]((lanes, 0), np.ones(2, dtype=bool))
    outcomes["lane"] = lanes[1]
    for engine, buffer in outcomes.items():
        assert bits(buffer) == bits(stored), engine


def test_block_intrinsic_past_an_alloca_raises():
    """A 5-slot ``memset`` at slot 1 of a 4-slot alloca raises on
    ``compiled`` (the whole frame is that alloca) as on ``ir-interp``."""
    module = Module("block_alloca")
    fn = module.add_function("f", FunctionType(F64, []), [])
    b = IRBuilder(fn.append_block("entry"))
    arr = b.alloca(ArrayType(F64, 4), "arr")
    b.memset(b.gep(arr, [b.i64(0), b.i64(1)]), b.f64(1.0), 5)
    b.ret(b.load(b.gep(arr, [b.i64(0), b.i64(0)])))
    verify_module(module)
    with pytest.raises(IndexError):
        Interpreter(module).call("f", [])
    with pytest.raises(IndexError):
        PythonCodeGenerator(module).compile()["f"]()


@pytest.mark.parametrize("intrinsic", ["memcpy", "memset"])
def test_lane_block_intrinsics_with_divergent_offsets_under_a_partial_mask(intrinsic):
    """Per-lane offsets and values: every active lane matches the scalar
    program on its own row, and inactive lanes (here with out-of-range
    offsets) are not touched."""
    module = build_block_module(intrinsic, 9)
    compiled = PythonCodeGenerator(module).compile()["f"]
    program = compile_lane_program(module, lambda name: compiled)
    assert program.fallbacks == []
    dsts = np.array([0, 100, 3, 12, 9])
    srcs = np.array([5, -7, 0, 1, 9])
    values = np.array([-0.0, 1.0, NAN_PAYLOAD, 2.5, math.inf])
    mask = np.array([True, False, True, True, True])
    rows = np.array([BLOCK_BUFFER[i:] + BLOCK_BUFFER[:i] for i in range(len(mask))])
    expected = rows.copy()
    for lane in np.nonzero(mask)[0]:
        row = expected[lane].tolist()
        compiled((row, 0), int(dsts[lane]), int(srcs[lane]), float(values[lane]))
        expected[lane] = row
    with np.errstate(all="ignore"):
        program.functions["f"]((rows, 0), dsts, srcs, values, mask)
    assert rows.tobytes() == expected.tobytes()
