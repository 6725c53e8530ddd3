"""Sanitizer codegen mode tests (``flags={"sanitize": True}``).

The sanitizer instruments structured codegen with runtime checks for
exactly the claims the lint suite makes statically: bounds on every
alloca access, use-before-init shadow tracking, zero-divisor guards on
divisions the static classifier called safe, and non-finite traps on
values VRP claims finite.  These tests prove the three contracts:

* seeded dynamic bugs trap, with the right message kind;
* traps imply lint findings (a trap on a lint-clean program would be a
  lint false negative — the fuzz oracle's sanitizer leg checks this at
  campaign scale);
* instrumentation never changes clean-model results: bitwise identical
  buffers with and without the sanitizer.
"""

from __future__ import annotations

import pytest

from repro.backends import runtime
from repro.backends.pycodegen import PythonCodeGenerator
from repro.core.distill import compile_composition
from repro.errors import CompilationError
from repro.fuzz.oracle import OracleConfig, buffers_equal, check_composition, raw_buffers
from repro.ir import F64, I64, VOID, ArrayType, FunctionType, IRBuilder, Module, PointerType
from repro.ir.diagnostics import DEFAULT_SEVERITY, at_or_above
from repro.ir.verifier import verify_module
from repro.lint import run_lint
from repro.models import MODEL_REGISTRY
from test_structured_codegen import build_irreducible_function, build_loop_alloca_function

QUICK_MODELS = ("necker_cube_s", "botvinick_stroop")


def sanitized_compile(module):
    return PythonCodeGenerator(module, sanitize=True).compile()


# ---------------------------------------------------------------------------
# Trap machinery
# ---------------------------------------------------------------------------


def test_sanitizer_trap_raises():
    with pytest.raises(runtime.SanitizerTrap, match="use-before-init"):
        runtime.sanitizer_trap("use-before-init: synthetic")
    assert issubclass(runtime.SanitizerTrap, RuntimeError)


# ---------------------------------------------------------------------------
# Seeded dynamic bugs trap — and lint agrees (trap => lint-flagged)
# ---------------------------------------------------------------------------


def build_use_before_init(module):
    """Loads an alloca slot that is stored only on the x > 0 path."""
    fn = module.add_function("ubi", FunctionType(F64, [F64]), ["x"])
    entry = fn.append_block("entry")
    then_block = fn.append_block("then")
    merge = fn.append_block("merge")
    b = IRBuilder(entry)
    (x,) = fn.args
    cell = b.alloca(F64, "cell")
    b.cond_br(b.fcmp("ogt", x, b.f64(0.0)), then_block, merge)
    b.position_at_end(then_block)
    b.store(x, cell)
    b.br(merge)
    b.position_at_end(merge)
    b.ret(b.load(cell))
    return fn


def test_use_before_init_traps_and_lint_agrees():
    module = Module("seeded")
    build_use_before_init(module)
    compiled = sanitized_compile(module)
    assert compiled["ubi"](3.0) == 3.0  # initialised path: no trap
    with pytest.raises(runtime.SanitizerTrap, match="use-before-init"):
        compiled["ubi"](-1.0)
    # Cross-validation: the trap is NOT a lint false negative.
    gating = at_or_above(run_lint(module), DEFAULT_SEVERITY)
    assert any(d.check == "use-before-init" for d in gating)


def test_dynamic_out_of_bounds_traps_and_lint_agrees():
    module = Module("seeded")
    fn = module.add_function("oob", FunctionType(F64, [I64]), ["i"])
    b = IRBuilder(fn.append_block("entry"))
    (i,) = fn.args
    arr = b.alloca(ArrayType(F64, 2), "arr")
    b.store(b.f64(1.0), b.gep(arr, [b.i64(0), b.i64(0)]))
    b.store(b.f64(2.0), b.gep(arr, [b.i64(0), b.i64(1)]))
    b.ret(b.load(b.gep(arr, [b.i64(0), i])))

    compiled = sanitized_compile(module)
    assert compiled["oob"](1) == 2.0
    with pytest.raises(runtime.SanitizerTrap, match="out-of-bounds"):
        compiled["oob"](5)
    # An unbounded dynamic index is statically visible too: VRP gives the
    # argument TOP, so gep-bounds cannot prove containment — but the index
    # range is unbounded rather than provably outside, so the static side
    # reports the load's init state instead.  The trap therefore pairs with
    # the dynamic-load note/warning rather than a gep-bounds error.
    assert run_lint(module)  # not silent


def test_memcpy_past_its_buffer_traps_naming_the_instruction():
    """A ``memcpy`` range is checked whole: one slot past the end of the
    source buffer traps, and the message names the intrinsic and function."""
    module = Module("seeded")
    fn = module.add_function(
        "copy", FunctionType(VOID, [PointerType(F64), I64]), ["buf", "src"]
    )
    b = IRBuilder(fn.append_block("entry"))
    buf, src = fn.args
    b.memcpy(buf, b.gep(buf, [src]), 4)
    b.ret()
    verify_module(module)
    compiled = sanitized_compile(module)

    buffer = [float(i) for i in range(8)]
    compiled["copy"]((buffer, 0), 4)  # the last in-bounds source range
    assert buffer == [4.0, 5.0, 6.0, 7.0, 4.0, 5.0, 6.0, 7.0]
    with pytest.raises(
        runtime.SanitizerTrap, match=r"out-of-bounds memcpy: 4-slot source range .*@copy"
    ):
        compiled["copy"]((buffer, 0), 5)
    assert buffer == [4.0, 5.0, 6.0, 7.0, 4.0, 5.0, 6.0, 7.0]  # trapped before writing


def test_memset_past_its_alloca_traps():
    module = Module("seeded")
    fn = module.add_function("fill", FunctionType(F64, []), [])
    b = IRBuilder(fn.append_block("entry"))
    arr = b.alloca(ArrayType(F64, 4), "arr")
    b.memset(b.gep(arr, [b.i64(0), b.i64(1)]), b.f64(1.0), 4)
    b.ret(b.load(b.gep(arr, [b.i64(0), b.i64(0)])))
    verify_module(module)
    with pytest.raises(
        runtime.SanitizerTrap, match=r"out-of-bounds memset: 4-slot destination range"
    ):
        sanitized_compile(module)["fill"]()


def test_zero_divisor_guard_emitted_for_statically_safe_division():
    module = Module("seeded")
    fn = module.add_function("gdiv", FunctionType(F64, [F64, F64]), ["x", "y"])
    entry = fn.append_block("entry")
    safe = fn.append_block("safe")
    merge = fn.append_block("merge")
    b = IRBuilder(entry)
    x, y = fn.args
    b.cond_br(b.fcmp("one", y, b.f64(0.0)), safe, merge)
    b.position_at_end(safe)
    quotient = b.fdiv(x, y)
    b.br(merge)
    b.position_at_end(merge)
    phi = b.phi(F64, "r")
    phi.add_incoming(quotient, safe)
    phi.add_incoming(b.f64(0.0), entry)
    b.ret(phi)

    gen = PythonCodeGenerator(module, sanitize=True)
    source = gen.generate_source()
    # The division is classified safe-guard: the sanitizer validates that
    # claim with a runtime zero check (which a correct guard never fires).
    assert "zero-divisor" in source
    compiled = gen.compile()
    assert compiled["gdiv"](6.0, 2.0) == 3.0
    assert compiled["gdiv"](6.0, 0.0) == 0.0  # guard takes the safe arm


# ---------------------------------------------------------------------------
# Flag plumbing
# ---------------------------------------------------------------------------


def test_sanitize_refuses_a_relooper_bail():
    # A function the relooper cannot express has no checked lowering: a
    # sanitized compile must fail loudly rather than read "trap-free" as
    # clean, and must name the function and the reason.
    module = Module("m")
    build_irreducible_function(module, "irr")
    build_loop_alloca_function(module)
    verify_module(module)
    with pytest.raises(CompilationError, match=r"cannot lower @irr: irreducible CFG in @irr"):
        PythonCodeGenerator(module, sanitize=True).generate_source()
    # The reducible function alone still lowers with the sanitizer on.
    clean = Module("clean")
    build_loop_alloca_function(clean)
    verify_module(clean)
    assert "loop_alloca" in PythonCodeGenerator(clean, sanitize=True).compile()


# ---------------------------------------------------------------------------
# Clean models: no traps, bitwise-identical buffers
# ---------------------------------------------------------------------------


def _assert_sanitizer_transparent(name):
    entry = MODEL_REGISTRY[name]
    inputs = entry.inputs()
    plain = compile_composition(entry.build(), pipeline="default<O2>")
    instrumented = compile_composition(
        entry.build(), pipeline="default<O2>", flags={"sanitize": True}
    )
    try:
        base = raw_buffers(plain, inputs, entry.num_trials, 0, "compiled")
        san = raw_buffers(instrumented, inputs, entry.num_trials, 0, "compiled")
    finally:
        plain.close_engines()
        instrumented.close_engines()
    for got, want in zip(san, base):
        assert buffers_equal(got, want) is None


@pytest.mark.parametrize("name", QUICK_MODELS)
def test_sanitizer_transparent_on_clean_models(name):
    _assert_sanitizer_transparent(name)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", sorted(n for n in MODEL_REGISTRY if n not in QUICK_MODELS)
)
def test_sanitizer_transparent_on_all_models(name):
    _assert_sanitizer_transparent(name)


def test_oracle_sanitizer_leg_clean_on_registered_model():
    entry = MODEL_REGISTRY["necker_cube_s"]
    config = OracleConfig(
        pipelines=("default<O2>",),
        engines=("compiled",),
        check_reference=False,
        check_sanitizer=True,
    )
    verdict = check_composition(
        entry.build, entry.inputs, entry.num_trials, 0, config, entry.name
    )
    assert verdict.ok, [d.describe() for d in verdict.divergences]
