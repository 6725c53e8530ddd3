"""Static safety suite tests: seeded bugs, stability, baseline, CLI.

The heart of this file is the seeded-bug matrix: for every shipped checker
a minimal IR program carrying exactly that checker's bug class, pinned to
the precise diagnostic it must produce.  Around it: registry behaviour,
cold-vs-cached bitwise stability, the zero-findings guarantee for every
registered model, verifier diagnostics coordinates, the baseline workflow
and the ``python -m repro.lint`` entry point.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.manager import AnalysisManager
from repro.core.distill import compile_composition
from repro.ir import F64, I64, ArrayType, FunctionType, IRBuilder, Module
from repro.ir.diagnostics import DEFAULT_SEVERITY, at_or_above, render_json
from repro.ir.verifier import verify_module_diagnostics
from repro.lint import (
    LintReport,
    lint_function,
    load_baseline,
    new_against_baseline,
    register_check,
    registered_checks,
    run_lint,
    write_baseline,
)
from repro.lint.__main__ import main as lint_main
from repro.models import MODEL_REGISTRY

from helpers import build_branchy_function


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def findings(module, check, severity=None):
    diags = [d for d in run_lint(module) if d.check == check]
    if severity is not None:
        diags = [d for d in diags if d.severity == severity]
    return diags


# ---------------------------------------------------------------------------
# Seeded bugs: every checker catches its own bug class
# ---------------------------------------------------------------------------


class TestSeededBugs:
    def test_use_before_init(self):
        module = Module("seeded")
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

        diags = findings(module, "use-before-init")
        assert len(diags) == 1
        diag = diags[0]
        assert diag.severity == "warning"
        assert diag.function == "ubi" and diag.block == "merge"
        assert "slot 0 of alloca 'cell'" in diag.message

    def test_gep_bounds_constant_oob(self):
        module = Module("seeded")
        fn = module.add_function("oob", FunctionType(F64, []), [])
        b = IRBuilder(fn.append_block("entry"))
        arr = b.alloca(ArrayType(F64, 4), "arr")
        b.store(b.f64(1.0), b.gep(arr, [b.i64(0), b.i64(0)]))
        bad = b.gep(arr, [b.i64(0), b.i64(5)])
        b.ret(b.load(bad))

        diags = findings(module, "gep-bounds")
        assert len(diags) == 1
        diag = diags[0]
        assert diag.severity == "error"
        assert "offset 5 is outside alloca 'arr' (4 slots)" in diag.message
        assert diag.function == "oob" and diag.opcode == "gep"

    def test_zero_divisor_unguarded(self):
        module = Module("seeded")
        fn = module.add_function("zdiv", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        (x,) = fn.args
        # tanh's range [-1, 1] straddles zero; nothing guards the division.
        b.ret(b.fdiv(x, b.tanh(x)))

        diags = findings(module, "zero-divisor", severity="warning")
        assert len(diags) == 1
        assert "includes zero" in diags[0].message
        assert diags[0].opcode == "fdiv"

    def test_zero_divisor_guarded_is_clean(self):
        module = Module("seeded")
        fn = module.add_function("gdiv", FunctionType(F64, [F64]), ["x"])
        entry = fn.append_block("entry")
        safe = fn.append_block("safe")
        merge = fn.append_block("merge")
        b = IRBuilder(entry)
        (x,) = fn.args
        divisor = b.tanh(x)
        b.cond_br(b.fcmp("one", divisor, b.f64(0.0)), safe, merge)
        b.position_at_end(safe)
        quotient = b.fdiv(x, divisor)
        b.br(merge)
        b.position_at_end(merge)
        phi = b.phi(F64, "r")
        phi.add_incoming(quotient, safe)
        phi.add_incoming(b.f64(0.0), entry)
        b.ret(phi)

        assert findings(module, "zero-divisor", severity="warning") == []

    def test_dead_store(self):
        module = Module("seeded")
        fn = module.add_function("ds", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        (x,) = fn.args
        cell = b.alloca(F64, "cell")
        b.store(b.f64(1.0), cell)  # seeded: overwritten before any read
        b.store(x, cell)
        b.ret(b.load(cell))

        diags = findings(module, "dead-store")
        assert len(diags) == 1
        assert diags[0].severity == "warning"
        assert "slot 0 of alloca 'cell' is never read" in diags[0].message
        assert diags[0].index == 1  # the first store, after the alloca

    def test_unreachable_block(self):
        module = Module("seeded")
        fn = module.add_function("unr", FunctionType(F64, [F64]), ["x"])
        entry = fn.append_block("entry")
        orphan = fn.append_block("orphan")
        b = IRBuilder(entry)
        (x,) = fn.args
        b.ret(x)
        b.position_at_end(orphan)
        b.ret(b.f64(0.0))

        diags = findings(module, "unreachable-block")
        assert len(diags) == 1
        assert "'orphan' is unreachable" in diags[0].message
        assert diags[0].block == "orphan"

    def test_loop_invariant_exit(self):
        module = Module("seeded")
        fn = module.add_function("liexit", FunctionType(F64, [F64]), ["x"])
        entry = fn.append_block("entry")
        loop = fn.append_block("loop")
        done = fn.append_block("done")
        b = IRBuilder(entry)
        (x,) = fn.args
        cond = b.fcmp("ogt", x, b.f64(0.0))  # computed before the loop
        b.br(loop)
        b.position_at_end(loop)
        acc = b.phi(F64, "acc")
        acc_next = b.fadd(acc, x)
        b.cond_br(cond, loop, done)
        acc.add_incoming(b.f64(0.0), entry)
        acc.add_incoming(acc_next, loop)
        b.position_at_end(done)
        b.ret(acc_next)

        diags = findings(module, "loop-invariant-exit")
        assert len(diags) == 1
        assert "loop-invariant" in diags[0].message
        assert diags[0].block == "loop"


# ---------------------------------------------------------------------------
# Registry behaviour
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_checks_registered(self):
        names = set(registered_checks())
        assert {
            "use-before-init",
            "gep-bounds",
            "zero-divisor",
            "dead-store",
            "unreachable-block",
            "loop-invariant-exit",
        } <= names

    def test_register_and_shadow_check(self):
        original = registered_checks()["dead-store"]

        @register_check("dead-store", "shadowed for a test")
        def shadow(fn, ctx):
            return []

        try:
            assert registered_checks()["dead-store"].run is shadow
        finally:
            register_check(original.name, original.description)(original.run)

    def test_check_subset_selection(self):
        module = Module("m")
        fn = build_branchy_function(module)
        am = AnalysisManager()
        assert lint_function(fn, am, checks=["unreachable-block"]) == []


# ---------------------------------------------------------------------------
# Stability and the zero-findings guarantee
# ---------------------------------------------------------------------------


class TestStability:
    def test_cold_vs_cached_bitwise_identical(self):
        entry = MODEL_REGISTRY["necker_cube_s"]
        model = compile_composition(entry.build(), pipeline="default<O2>")
        cold = run_lint(model.module)
        # Warm manager: every analysis served from cache on the second run.
        am = AnalysisManager()
        warm_first = run_lint(model.module, analysis_manager=am)
        warm_second = run_lint(model.module, analysis_manager=am)
        assert cold == warm_first == warm_second
        assert render_json(cold) == render_json(warm_second)

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_registered_models_lint_clean_at_o2(self, name):
        entry = MODEL_REGISTRY[name]
        model = compile_composition(entry.build(), pipeline="default<O2>")
        report = LintReport(module_name=name, diagnostics=run_lint(model.module))
        assert report.ok, report.render()

    @pytest.mark.slow
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_registered_models_lint_clean_all_levels(self, name, level):
        entry = MODEL_REGISTRY[name]
        model = compile_composition(entry.build(), pipeline=f"default<O{level}>")
        gating = at_or_above(run_lint(model.module), DEFAULT_SEVERITY)
        assert gating == []


# ---------------------------------------------------------------------------
# Verifier diagnostics: structured coordinates through the same renderer
# ---------------------------------------------------------------------------


class TestVerifierDiagnostics:
    def test_missing_terminator_has_coordinates(self):
        module = Module("broken")
        fn = module.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        b.fadd(fn.args[0], b.f64(1.0))  # no terminator

        diags = verify_module_diagnostics(module)
        assert diags
        diag = diags[0]
        assert diag.severity == "error" and diag.check == "verify"
        assert diag.function == "f" and diag.block == "entry"
        assert "terminator" in diag.message

    def test_run_lint_prepends_verifier_errors(self):
        module = Module("broken")
        fn = module.add_function("f", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        b.fadd(fn.args[0], b.f64(1.0))

        diags = run_lint(module)
        assert diags and diags[0].check == "verify"
        assert run_lint(module, include_verifier=False) == [
            d for d in diags if d.check != "verify"
        ]


# ---------------------------------------------------------------------------
# Baseline workflow
# ---------------------------------------------------------------------------


class TestBaseline:
    def _sample_diags(self):
        module = Module("seeded")
        fn = module.add_function("ds", FunctionType(F64, [F64]), ["x"])
        b = IRBuilder(fn.append_block("entry"))
        cell = b.alloca(F64, "cell")
        b.store(b.f64(1.0), cell)
        b.store(fn.args[0], cell)
        b.ret(b.load(cell))
        return run_lint(module)

    def test_round_trip_suppresses_known_findings(self, tmp_path):
        diags = self._sample_diags()
        assert diags
        path = str(tmp_path / "baseline.json")
        write_baseline(path, diags)
        baseline = load_baseline(path)
        assert new_against_baseline(diags, baseline) == []
        # A second occurrence of the same fingerprint is new again.
        assert new_against_baseline(diags + diags, baseline) == diags

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == {}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "fingerprints": {}}))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_committed_baseline_is_empty(self):
        baseline = load_baseline("lint-baseline.json")
        assert baseline == {}


# ---------------------------------------------------------------------------
# CLI and Session entry points
# ---------------------------------------------------------------------------


class TestEntryPoints:
    def test_cli_model_clean_exit(self, tmp_path, capsys):
        report = str(tmp_path / "report.json")
        code = lint_main(
            ["necker_cube_s", "--json", report, "--baseline", str(tmp_path / "b.json")]
        )
        assert code == 0
        payload = json.loads(open(report).read())
        assert payload["version"] == 1
        assert payload["modules"][0]["name"] == "necker_cube_s"
        out = capsys.readouterr().out
        assert "0 new" in out

    def test_cli_unknown_model(self):
        with pytest.raises(SystemExit):
            lint_main(["no_such_model"])

    def test_cli_write_baseline(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        code = lint_main(["necker_cube_s", "--baseline", path, "--write-baseline"])
        assert code == 0
        assert load_baseline(path) == {}  # model is clean: empty baseline

    def test_session_lint(self):
        import repro

        with repro.Session() as session:
            report = session.lint("necker_cube_s")
            assert report.ok
            assert report.module_name == "necker_cube_s"
            assert report.pipeline == "default<O2>"
            # The compile is served from the session cache the second time.
            hits_before = session.cache_info()["hits"]
            session.lint("necker_cube_s")
            assert session.cache_info()["hits"] > hits_before
