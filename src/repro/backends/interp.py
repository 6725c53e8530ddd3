"""Reference interpreter for repro IR.

The interpreter executes IR one instruction at a time.  It is the semantic
oracle of the project: every optimisation pass and every faster backend is
tested against it.  It also plays the role of a *generic* dynamic-compilation
baseline in the benchmark harness (a JIT without domain knowledge still pays
per-operation dispatch overhead — exactly the effect the interpreter
exhibits), standing in for PyPy/Pyston which cannot be installed in this
environment (see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..ir.instructions import (
    GEP,
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
from ..ir.values import Argument, Constant, UndefValue, Value
from . import runtime


class InterpreterError(Exception):
    """Raised when the interpreter encounters invalid IR or diverges."""


class ExecutionLimitExceeded(InterpreterError):
    """Raised when execution exceeds the configured instruction budget."""


class Interpreter:
    """Executes functions of a :class:`~repro.ir.module.Module`.

    Parameters
    ----------
    module:
        The module whose functions should be executable.
    max_steps:
        Upper bound on the number of executed instructions per top-level call
        (guards against accidentally non-terminating generated loops).
    """

    def __init__(self, module: Module, max_steps: int = 200_000_000):
        self.module = module
        self.max_steps = max_steps
        self._steps = 0
        #: Number of instructions executed by the most recent top-level call.
        self.last_step_count = 0

    # -- public API -----------------------------------------------------------
    def call(self, function: Function | str, args: Sequence[object]) -> object:
        """Call ``function`` with Python argument values.

        Scalar arguments are Python ints/floats; pointer arguments are
        ``(buffer, offset)`` pairs as produced by
        :func:`repro.backends.runtime.allocate`.
        """
        if isinstance(function, str):
            function = self.module.get_function(function)
        self._steps = 0
        result = self._call_function(function, list(args))
        self.last_step_count = self._steps
        return result

    # -- function execution ------------------------------------------------------
    def _call_function(self, fn: Function, args: list) -> object:
        if fn.is_declaration:
            return self._call_declaration(fn, args)
        if len(args) != len(fn.args):
            raise InterpreterError(
                f"call to @{fn.name}: expected {len(fn.args)} args, got {len(args)}"
            )
        env: Dict[int, object] = {}
        for formal, actual in zip(fn.args, args):
            env[id(formal)] = actual

        block = fn.entry_block
        prev_block: Optional[BasicBlock] = None
        while True:
            next_block, returned, value = self._run_block(fn, block, prev_block, env)
            if returned:
                return value
            prev_block, block = block, next_block

    def _call_declaration(self, fn: Function, args: list) -> object:
        name = fn.intrinsic_name
        if name is None:
            raise InterpreterError(
                f"cannot execute declaration @{fn.name} (no intrinsic binding)"
            )
        impl = runtime.INTRINSIC_IMPLS.get(name)
        if impl is None:
            raise InterpreterError(f"no implementation for intrinsic {name}")
        return impl(*args)

    # -- block execution ----------------------------------------------------------
    def _run_block(
        self,
        fn: Function,
        block: BasicBlock,
        prev_block: Optional[BasicBlock],
        env: Dict[int, object],
    ):
        # Phi nodes are evaluated simultaneously against the edge just taken.
        phis = block.phis()
        if phis:
            if prev_block is None:
                raise InterpreterError(
                    f"entry block {block.name} of @{fn.name} contains phi nodes"
                )
            staged = []
            for phi in phis:
                incoming = phi.incoming_for_block(prev_block)
                if incoming is None:
                    raise InterpreterError(
                        f"phi {phi.ref()} in {block.name} has no incoming value "
                        f"for predecessor {prev_block.name}"
                    )
                staged.append((phi, self._value(incoming, env)))
            for phi, value in staged:
                env[id(phi)] = value

        for instr in block.instructions:
            if isinstance(instr, Phi):
                continue
            self._steps += 1
            if self._steps > self.max_steps:
                raise ExecutionLimitExceeded(
                    f"exceeded {self.max_steps} executed instructions in @{fn.name}"
                )
            if isinstance(instr, Return):
                value = self._value(instr.value, env) if instr.value is not None else None
                return None, True, value
            if isinstance(instr, Branch):
                return instr.target, False, None
            if isinstance(instr, CondBranch):
                cond = self._value(instr.condition, env)
                target = instr.true_block if cond else instr.false_block
                return target, False, None
            env[id(instr)] = self._execute(fn, instr, env)
        raise InterpreterError(f"block {block.name} in @{fn.name} has no terminator")

    # -- instruction semantics ------------------------------------------------------
    def _value(self, value: Value, env: Dict[int, object]):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, UndefValue):
            return 0.0 if value.type.is_float else 0
        if id(value) in env:
            return env[id(value)]
        raise InterpreterError(f"use of undefined value {value.ref()}")

    def _execute(self, fn: Function, instr, env: Dict[int, object]):
        if isinstance(instr, BinaryOp):
            a = self._value(instr.lhs, env)
            b = self._value(instr.rhs, env)
            convert = float if instr.opcode.startswith("f") else int
            return runtime.BINOP_IMPLS[instr.opcode](convert(a), convert(b))
        if isinstance(instr, FCmp):
            a = float(self._value(instr.lhs, env))
            b = float(self._value(instr.rhs, env))
            return runtime.eval_fcmp(instr.predicate, a, b)
        if isinstance(instr, ICmp):
            a = int(self._value(instr.lhs, env))
            b = int(self._value(instr.rhs, env))
            return runtime.eval_icmp(instr.predicate, a, b)
        if isinstance(instr, Select):
            cond = self._value(instr.condition, env)
            return (
                self._value(instr.true_value, env)
                if cond
                else self._value(instr.false_value, env)
            )
        if isinstance(instr, Cast):
            value = self._value(instr.value, env)
            return runtime.cast(instr.opcode, value, instr.type)
        if isinstance(instr, Alloca):
            return runtime.allocate(instr.allocated_type)
        if isinstance(instr, Load):
            ptr = self._value(instr.pointer, env)
            return runtime.load_slot(ptr)
        if isinstance(instr, Store):
            ptr = self._value(instr.pointer, env)
            runtime.store_slot(ptr, self._value(instr.value, env))
            return None
        if isinstance(instr, GEP):
            return self._gep(instr, env)
        if isinstance(instr, Call):
            args = [self._value(a, env) for a in instr.args]
            return self._call_function(instr.callee, args)
        raise InterpreterError(f"unsupported instruction {instr.opcode}")

    def _gep(self, instr: GEP, env: Dict[int, object]):
        buffer, base = self._value(instr.pointer, env)
        pointee = instr.pointer.type.pointee
        indices = [int(self._value(idx, env)) for idx in instr.indices]
        offset = runtime.gep_offset(pointee, indices)
        return (buffer, base + offset)


def run_function(module: Module, name: str, args: Sequence[object], max_steps: int = 200_000_000):
    """One-shot convenience wrapper: interpret ``module.name(args)``."""
    return Interpreter(module, max_steps=max_steps).call(name, args)


# ---------------------------------------------------------------------------
# Engine registration (see repro.driver.engines)
# ---------------------------------------------------------------------------

from ..driver.engines import EngineCapabilities, EngineInstance, register_engine  # noqa: E402


class _InterpreterInstance(EngineInstance):
    """Reuses one :class:`Interpreter` across ``run()``/``run_batch()`` calls
    (the interpreter holds no run state; only the per-run buffers do)."""

    def __init__(self, engine_name: str, model):
        super().__init__(engine_name, model)
        self._interpreter = Interpreter(model.module)

    def execute(self, buffers, num_trials, **options):
        self._interpreter.call("run_model", self.model._model_args(buffers, num_trials))


@register_engine
class IRInterpreterEngine:
    """The per-instruction interpreter as an execution engine (``ir-interp``)."""

    name = "ir-interp"

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            name=self.name,
            description=(
                "per-instruction IR interpreter: the semantic reference and the "
                "generic-JIT baseline stand-in (PyPy/Pyston role in Figure 4)"
            ),
            parallel=False,
            supports_workers=False,
            compiled=False,
        )

    def prepare(self, model) -> EngineInstance:
        return _InterpreterInstance(self.name, model)
