"""Shared helpers for the test suite: small IR and model builders, and a
worker killer for the process-pool engines."""

from __future__ import annotations

import os
import signal

import numpy as np

from repro.ir import (
    F64,
    I64,
    ArrayType,
    FunctionType,
    IRBuilder,
    Module,
    StructType,
)


def build_deterministic_cascade(passes: int = 8):
    """A small RNG-free model (transfer functions only) with feedback.

    Every state slot of an RNG-free model is reset at trial entry, so its
    trials are independent — the precondition for folding ``num_trials``
    onto the lane axis.  Also the serving suite's fast custom model (the
    registry models all carry RNG state).
    """
    from repro.cogframe import AfterNPasses, Composition, ProcessingMechanism
    from repro.cogframe.functions import Linear, Logistic

    comp = Composition("det_cascade")
    src = ProcessingMechanism("src", Linear(slope=1.1, intercept=0.05), size=2)
    comp.add_node(src, is_input=True)
    mid = ProcessingMechanism("mid", Logistic(gain=1.7, bias=0.2), size=2)
    comp.add_node(mid, monitor=True)
    out = ProcessingMechanism("out", Linear(slope=0.9, intercept=-0.1), size=2)
    comp.add_node(out, is_output=True, monitor=True)
    comp.add_projection(src, mid)
    comp.add_projection(mid, out)
    comp.add_projection(out, mid, matrix=np.array([[0.3, -0.2], [0.1, 0.4]]))
    comp.set_termination(AfterNPasses(passes), max_passes=passes)
    return comp


def build_affine_function(module: Module, name: str = "affine"):
    """``f(x, y) = 3*x + y - 2`` as straight-line IR."""
    fn = module.add_function(name, FunctionType(F64, [F64, F64]), ["x", "y"])
    block = fn.append_block("entry")
    b = IRBuilder(block)
    x, y = fn.args
    t0 = b.fmul(b.f64(3.0), x)
    t1 = b.fadd(t0, y)
    t2 = b.fsub(t1, b.f64(2.0))
    b.ret(t2)
    return fn


def build_loop_sum_function(module: Module, name: str = "loop_sum", iters: int = 10):
    """``f(x, y) = sum_{i<iters} (x*y + exp(x))`` with an explicit loop."""
    fn = module.add_function(name, FunctionType(F64, [F64, F64]), ["x", "y"])
    entry = fn.append_block("entry")
    loop = fn.append_block("loop")
    exit_block = fn.append_block("exit")
    b = IRBuilder(entry)
    x, y = fn.args
    b.br(loop)

    b.position_at_end(loop)
    i = b.phi(I64, "i")
    acc = b.phi(F64, "acc")
    prod = b.fmul(x, y)
    e = b.exp(x)
    term = b.fadd(prod, e)
    acc_next = b.fadd(acc, term)
    i_next = b.add(i, b.i64(1))
    cond = b.icmp("slt", i_next, b.i64(iters))
    b.cond_br(cond, loop, exit_block)
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(i_next, loop)
    acc.add_incoming(b.f64(0.0), entry)
    acc.add_incoming(acc_next, loop)

    b.position_at_end(exit_block)
    b.ret(acc_next)
    return fn


def build_branchy_function(module: Module, name: str = "branchy"):
    """``f(x, y) = (x > y) ? x*2 : y + 1`` built with real control flow."""
    fn = module.add_function(name, FunctionType(F64, [F64, F64]), ["x", "y"])
    entry = fn.append_block("entry")
    then_block = fn.append_block("then")
    else_block = fn.append_block("else")
    merge = fn.append_block("merge")
    b = IRBuilder(entry)
    x, y = fn.args
    cond = b.fcmp("ogt", x, y)
    b.cond_br(cond, then_block, else_block)

    b.position_at_end(then_block)
    then_val = b.fmul(x, b.f64(2.0))
    b.br(merge)

    b.position_at_end(else_block)
    else_val = b.fadd(y, b.f64(1.0))
    b.br(merge)

    b.position_at_end(merge)
    phi = b.phi(F64, "result")
    phi.add_incoming(then_val, then_block)
    phi.add_incoming(else_val, else_block)
    b.ret(phi)
    return fn


def build_alloca_function(module: Module, name: str = "with_allocas"):
    """Computes ``x*x + y`` through scratch allocas (exercises mem2reg)."""
    fn = module.add_function(name, FunctionType(F64, [F64, F64]), ["x", "y"])
    entry = fn.append_block("entry")
    then_block = fn.append_block("then")
    else_block = fn.append_block("else")
    merge = fn.append_block("merge")
    b = IRBuilder(entry)
    x, y = fn.args
    slot = b.alloca(F64, "slot")
    b.store(b.fmul(x, x), slot)
    cond = b.fcmp("olt", y, b.f64(0.0))
    b.cond_br(cond, then_block, else_block)

    b.position_at_end(then_block)
    b.store(b.fadd(b.load(slot), b.fneg(y)), slot)
    b.br(merge)

    b.position_at_end(else_block)
    b.store(b.fadd(b.load(slot), y), slot)
    b.br(merge)

    b.position_at_end(merge)
    b.ret(b.load(slot))
    return fn


def build_struct_sum_function(module: Module, name: str = "struct_sum"):
    """Sums the three fields of a struct argument through GEPs."""
    struct = StructType(f"{name}_params", [("a", F64), ("b", F64), ("c", ArrayType(F64, 2))])
    module.add_struct(struct)
    from repro.ir import pointer

    fn = module.add_function(name, FunctionType(F64, [pointer(struct)]), ["p"])
    block = fn.append_block("entry")
    b = IRBuilder(block)
    (p,) = fn.args
    a = b.load_field(p, "a")
    b_field = b.load_field(p, "b")
    c_ptr = b.struct_field_ptr(p, "c")
    c0 = b.load(b.gep(c_ptr, [b.i64(0), b.i64(0)]))
    c1 = b.load(b.gep(c_ptr, [b.i64(0), b.i64(1)]))
    total = b.fadd(b.fadd(a, b_field), b.fadd(c0, c1))
    b.ret(total)
    return fn


# ---------------------------------------------------------------------------
# Forced worker death in the process-pool engines (mcpu, lane)
# ---------------------------------------------------------------------------
#
# The engines resolve their pool task function through a module global at
# map time and start their pools with fork on Linux, so patching that global
# BEFORE a pool starts puts ``kill_worker_if_armed`` into every worker (the
# ``worker_killer`` fixture in conftest.py does this).  It is module-level so
# the workers unpickle it by qualified name, and it reads the sentinel path
# and the original task function from the globals below, which the fork
# copied.  The first worker to run a task while the sentinel file exists
# unlinks it and SIGKILLs itself; later tasks and a restarted pool run clean.

_KILL_SENTINEL = None
_KILL_ORIGINAL = None


def kill_worker_if_armed(task):
    sentinel = _KILL_SENTINEL
    if sentinel and os.path.exists(sentinel):
        try:
            os.unlink(sentinel)
        except OSError:
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _KILL_ORIGINAL(task)

