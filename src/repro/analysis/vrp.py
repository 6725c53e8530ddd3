"""Floating-point value range propagation (VRP).

LLVM's range propagation handles integers only; the paper extends it to
floating point types and operations (section 4.1) so that

* model-level questions ("what values can this output take for this range of
  a parameter?") can be answered without running the model,
* fast-math flags can be applied per operation when NaN/Inf are provably
  absent (see :mod:`repro.analysis.fastmath`), and
* adaptive mesh refinement can progressively narrow a parameter subspace
  (see :mod:`repro.analysis.mesh_refine`).

The implementation is a forward dataflow analysis over a function:  every SSA
value is mapped to an :class:`~repro.analysis.intervals.Interval`, phi nodes
join their incoming ranges (with widening after a few iterations to guarantee
termination), and a simple form of branch refinement narrows ranges in blocks
guarded by comparisons against constants.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from ..backends import runtime
from ..ir.cfg import predecessor_map, reverse_post_order
from ..ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
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
from ..ir.module import BasicBlock, Function
from ..ir.values import Argument, Constant, UndefValue, Value
from .intervals import Interval


def _may_be_infinite(iv: Interval) -> bool:
    return not iv.is_empty_range() and (math.isinf(iv.lo) or math.isinf(iv.hi))


#: Number of fixpoint iterations before widening kicks in.
WIDENING_DELAY = 4
#: Hard cap on fixpoint iterations (with widening this is rarely reached).
MAX_ITERATIONS = 32


class VRPResult:
    """Result of a value-range propagation run."""

    def __init__(self, function: Function, ranges: Dict[int, Interval], return_range: Interval):
        self.function = function
        self._ranges = ranges
        self.return_range = return_range

    def range_of(self, value: Value) -> Interval:
        """The inferred range of an SSA value (TOP if unknown)."""
        if isinstance(value, Constant):
            if value.type.is_float or value.type.is_int:
                return Interval.point(float(value.value))
        return self._ranges.get(id(value), Interval.top())

    def all_ranges(self) -> Dict[int, Interval]:
        """The full interval environment: ``id(value) -> Interval``.

        This is what the analysis manager serves under the ``intervals``
        name; the returned dict is a snapshot, safe to mutate.
        """
        return dict(self._ranges)

    def range_of_name(self, name: str) -> Interval:
        """Range of the first value whose name matches ``name``."""
        for block in self.function.blocks:
            for instr in block.instructions:
                if instr.name == name:
                    return self.range_of(instr)
        for arg in self.function.args:
            if arg.name == name:
                return self.range_of(arg)
        raise KeyError(f"no value named {name!r} in @{self.function.name}")


class ValueRangePropagation:
    """Forward interval analysis for one function.

    Parameters
    ----------
    function:
        The function to analyse.
    arg_ranges:
        Optional mapping from argument name (or index) to an assumed
        :class:`Interval`.  Unlisted arguments start at TOP.
    assume_normal_range:
        The range assumed for ``rng_normal`` draws, expressed in standard
        deviations.  The paper's convergence analyses implicitly bound noise;
        we make the bound explicit (default ±6σ).  Set to ``None`` to treat
        normal draws as unbounded.
    """

    def __init__(
        self,
        function: Function,
        arg_ranges: Optional[Dict[object, Interval]] = None,
        assume_normal_range: Optional[float] = 6.0,
    ):
        self.function = function
        self.arg_ranges = arg_ranges or {}
        self.assume_normal_range = assume_normal_range
        self._ranges: Dict[int, Interval] = {}
        self._iteration = 0

    # -- public API ----------------------------------------------------------------
    def run(self) -> VRPResult:
        self._seed_arguments()
        rpo = reverse_post_order(self.function)
        preds = predecessor_map(self.function)

        for iteration in range(MAX_ITERATIONS):
            self._iteration = iteration
            changed = False
            for block in rpo:
                refinements = self._edge_refinements(block, preds)
                for instr in block.instructions:
                    new_range = self._transfer(instr, refinements)
                    if new_range is None:
                        continue
                    old = self._ranges.get(id(instr))
                    if old is not None and iteration >= WIDENING_DELAY:
                        new_range = new_range.widen(old) if self._grew(old, new_range) else new_range
                    if old is None or not self._same(old, new_range):
                        self._ranges[id(instr)] = new_range
                        changed = True
            if not changed:
                break

        return VRPResult(self.function, dict(self._ranges), self._compute_return_range())

    # -- seeding --------------------------------------------------------------------
    def _seed_arguments(self) -> None:
        for i, arg in enumerate(self.function.args):
            interval = None
            if arg.name in self.arg_ranges:
                interval = self.arg_ranges[arg.name]
            elif i in self.arg_ranges:
                interval = self.arg_ranges[i]
            if interval is None:
                interval = Interval.top() if not arg.type.is_pointer else Interval.top()
            self._ranges[id(arg)] = interval

    # -- helpers ----------------------------------------------------------------------
    @staticmethod
    def _same(a: Interval, b: Interval) -> bool:
        return a == b

    @staticmethod
    def _grew(old: Interval, new: Interval) -> bool:
        if old.is_empty_range():
            return False
        return new.lo < old.lo or new.hi > old.hi

    def _value_range(self, value: Value, refinements: Dict[int, Interval]) -> Interval:
        if isinstance(value, Constant):
            if value.type.is_float or value.type.is_int:
                return Interval.point(float(value.value))
            return Interval.top()
        if isinstance(value, UndefValue):
            return Interval.top()
        base = self._ranges.get(id(value), Interval.top())
        refined = refinements.get(id(value))
        if refined is not None:
            return base.intersect(refined)
        return base

    # -- branch refinement --------------------------------------------------------------
    def _edge_refinements(
        self, block: BasicBlock, preds: Dict[BasicBlock, list]
    ) -> Dict[int, Interval]:
        """Ranges implied by the branch guarding entry into ``block``.

        Only the simple—but most common—case is handled: the block has a
        unique predecessor ending in a conditional branch whose condition is
        a comparison of a value against a constant.
        """
        predecessors = preds.get(block, [])
        if len(predecessors) != 1:
            return {}
        pred = predecessors[0]
        term = pred.terminator
        if not isinstance(term, CondBranch):
            return {}
        cond = term.condition
        if not isinstance(cond, (FCmp, ICmp)):
            return {}
        on_true = term.true_block is block and term.false_block is not block
        on_false = term.false_block is block and term.true_block is not block
        if not (on_true or on_false):
            return {}

        lhs, rhs = cond.lhs, cond.rhs
        if isinstance(rhs, Constant):
            value, bound, swapped = lhs, float(rhs.value), False
        elif isinstance(lhs, Constant):
            value, bound, swapped = rhs, float(lhs.value), True
        else:
            return {}

        predicate = cond.predicate
        refinement = self._refine_for_predicate(predicate, bound, swapped, taken=on_true)
        if refinement is None:
            return {}
        return {id(value): refinement}

    @staticmethod
    def _refine_for_predicate(
        predicate: str, bound: float, swapped: bool, taken: bool
    ) -> Optional[Interval]:
        """Interval implied for the non-constant operand of ``x <pred> bound``."""
        # Normalise so the tracked value is on the left-hand side.
        pred_map_swap = {
            "olt": "ogt", "ole": "oge", "ogt": "olt", "oge": "ole",
            "slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle",
            "oeq": "oeq", "one": "one", "eq": "eq", "ne": "ne",
        }
        if swapped:
            predicate = pred_map_swap.get(predicate, predicate)
        if not taken:
            negation = {
                "olt": "oge", "ole": "ogt", "ogt": "ole", "oge": "olt",
                "slt": "sge", "sle": "sgt", "sgt": "sle", "sge": "slt",
                "oeq": "one", "one": "oeq", "eq": "ne", "ne": "eq",
            }
            predicate = negation.get(predicate)
            if predicate is None:
                return None
        if predicate in ("olt", "slt"):
            return Interval(-math.inf, bound)
        if predicate in ("ole", "sle"):
            return Interval(-math.inf, bound)
        if predicate in ("ogt", "sgt"):
            return Interval(bound, math.inf)
        if predicate in ("oge", "sge"):
            return Interval(bound, math.inf)
        if predicate in ("oeq", "eq"):
            return Interval(bound, bound)
        return None

    # -- transfer functions ------------------------------------------------------------------
    def _transfer(self, instr, refinements: Dict[int, Interval]) -> Optional[Interval]:
        get = lambda v: self._value_range(v, refinements)  # noqa: E731

        if isinstance(instr, BinaryOp):
            a, b = get(instr.lhs), get(instr.rhs)
            if instr.opcode in ("fadd", "add"):
                return a.add(b)
            if instr.opcode in ("fsub", "sub"):
                return a.sub(b)
            if instr.opcode in ("fmul", "mul"):
                return a.mul(b)
            if instr.opcode in ("fdiv", "sdiv"):
                return a.div(b)
            if instr.opcode in ("frem", "srem"):
                bound = max(abs(b.lo), abs(b.hi)) if b.is_finite() else math.inf
                # fmod is NaN for a NaN operand, a zero divisor or an
                # infinite dividend.
                may_nan = a.may_nan or b.may_nan or b.contains(0.0) or _may_be_infinite(a)
                return Interval(-bound, bound, may_nan)
            return Interval.top()
        if isinstance(instr, (FCmp, ICmp)):
            return Interval(0.0, 1.0)
        if isinstance(instr, Select):
            return get(instr.true_value).join(get(instr.false_value))
        if isinstance(instr, Phi):
            incoming = [get(v) for v, _ in instr.incoming()]
            if not incoming:
                return Interval.top()
            result = incoming[0]
            for iv in incoming[1:]:
                result = result.join(iv)
            return result
        if isinstance(instr, Cast):
            base = get(instr.value)
            if instr.opcode == "fptosi":
                # The saturating cast is monotone; NaN converts to 0.
                ends = [runtime.fptosi(x, instr.type.width) for x in (base.lo, base.hi)]
                ends += [0] if base.may_nan else []
                return Interval(float(min(ends)), float(max(ends)))
            if instr.opcode == "fptrunc":
                # Rounding to binary32 is monotone; NaN stays NaN.
                return Interval(
                    runtime.fptrunc(base.lo), runtime.fptrunc(base.hi), base.may_nan
                )
            return base
        if isinstance(instr, Call):
            return self._transfer_call(instr, get)
        if isinstance(instr, Load):
            return Interval.top()
        if isinstance(instr, (Store, Return, GEP, Alloca)):
            return None
        if instr.is_terminator:
            return None
        return Interval.top()

    def _transfer_call(self, instr: Call, get) -> Interval:
        name = instr.callee.intrinsic_name
        if name is None:
            return Interval.top()
        if name == "exp":
            return get(instr.args[0]).exp()
        if name in ("log", "log1p"):
            return get(instr.args[0]).log()
        if name == "sqrt":
            return get(instr.args[0]).sqrt()
        if name == "tanh":
            return get(instr.args[0]).tanh()
        if name == "fabs":
            return get(instr.args[0]).fabs()
        if name in ("sin", "cos"):
            arg = get(instr.args[0])
            return Interval(-1.0, 1.0, arg.may_nan or _may_be_infinite(arg))
        if name == "floor" or name == "ceil":
            base = get(instr.args[0])
            if base.is_finite():
                return Interval(math.floor(base.lo), math.ceil(base.hi))
            return base
        if name == "fmin":
            return get(instr.args[0]).minimum(get(instr.args[1]))
        if name == "fmax":
            return get(instr.args[0]).maximum(get(instr.args[1]))
        if name == "copysign":
            magnitude = get(instr.args[0]).fabs()
            return Interval(-magnitude.hi, magnitude.hi, magnitude.may_nan)
        if name == "pow":
            base, exponent = get(instr.args[0]), get(instr.args[1])
            if base.non_negative() and exponent.is_finite():
                candidates = []
                for a in (base.lo, base.hi):
                    for b in (exponent.lo, exponent.hi):
                        try:
                            candidates.append(math.pow(a, b))
                        except (OverflowError, ValueError):
                            candidates.append(math.inf)
                return Interval(min(candidates), max(candidates), base.may_nan or exponent.may_nan)
            return Interval.top()
        if name == "rng_uniform":
            return Interval(0.0, 1.0)
        if name == "rng_normal":
            if self.assume_normal_range is None:
                return Interval(-math.inf, math.inf)
            k = float(self.assume_normal_range)
            return Interval(-k, k)
        return Interval.top()

    # -- return range -----------------------------------------------------------------------
    def _compute_return_range(self) -> Interval:
        result: Optional[Interval] = None
        for block in self.function.blocks:
            term = block.terminator
            if isinstance(term, Return) and term.value is not None:
                r = self._value_range(term.value, {})
                result = r if result is None else result.join(r)
        return result if result is not None else Interval.top()


def analyze_ranges(
    function: Function,
    arg_ranges: Optional[Dict[object, Interval]] = None,
    assume_normal_range: Optional[float] = 6.0,
) -> VRPResult:
    """Convenience wrapper: run VRP on ``function`` and return the result."""
    return ValueRangePropagation(function, arg_ranges, assume_normal_range).run()
