"""The content-addressed artifact store and its keying (PR 7).

Covers the pieces DESIGN.md "Compile units and the artifact store" promises:

* flag normalization — non-default flags can never alias a clean cache
  entry, default-valued spellings deliberately do;
* key stability — artifact keys and function fingerprints are pure content
  addresses: the live ``TYPE_MUTATION_EPOCH`` counter (bumped by every
  compile while building its structs) must not leak into them;
* the store itself — atomic publication under concurrent writers, corrupt
  objects demoted to misses, mtime-ordered eviction, the ``repro.cache``
  CLI and ``resolve_store``/``$REPRO_ARTIFACT_DIR`` resolution;
* end-to-end reuse — a warm-process hit skips sanitize/optimize/codegen,
  and models differing only in plain parameter values share one optimized
  module entry while keeping distinct model entries;
* the model-entry hit path — it execs stored bytecode and leaves the IR
  encoded until an engine reads ``CompiledModel.module`` (decoded once,
  also under concurrent readers), equals a cold compile bitwise on every
  engine, and demotes entries from another interpreter or with unloadable
  code to misses.
"""

import importlib.util
import os
import pickle
import threading
import time

import pytest

from repro.driver.artifacts import (
    STORE_ENV_VAR,
    ArtifactStore,
    artifact_salt,
    model_artifact_key,
    normalize_flags,
    optimize_artifact_key,
    resolve_store,
    unit_fingerprints,
)
from repro.backends.pycodegen import PythonCodeGenerator
from repro.driver.pipeline import parse_pipeline, resolve_pipeline
from repro.core.distill import compile_composition
from repro.fuzz.compare import buffers_equal, final_rng_counters, raw_buffers
from repro.fuzz.gen import generate_model_spec, generate_scale_spec, scale_edit_specs
from repro.fuzz.oracle import OracleConfig, _engine_options
from repro.ir import Module, serialize
from repro.ir import types as ir_types
from repro.ir.fingerprint import function_fingerprint
from repro.models import MODEL_REGISTRY

from helpers import build_affine_function, build_struct_sum_function


class TestNormalizeFlags:
    def test_default_spellings_all_freeze_empty(self):
        assert normalize_flags(None) == ()
        assert normalize_flags({}) == ()
        assert normalize_flags({"analysis_cache": True}) == ()
        assert normalize_flags({"sanitize": False, "analysis_cache": True}) == ()

    def test_non_default_values_are_kept(self):
        assert normalize_flags({"sanitize": True}) == (("sanitize", True),)
        assert normalize_flags({"analysis_cache": False}) == (
            ("analysis_cache", False),
        )
        # Truthy spellings coerce to the effective boolean.
        assert normalize_flags({"sanitize": 1}) == (("sanitize", True),)

    def test_unknown_flags_raise(self):
        # A typo must not compile the default configuration under a new key.
        with pytest.raises(ValueError, match=r"'alpha', 'zeta'.*analysis_cache, sanitize"):
            normalize_flags({"zeta": 2, "alpha": "x", "sanitize": True})

    @pytest.mark.parametrize("flags", [{"structured_codegen": False}, {"fast_math": True}])
    def test_compile_rejects_unknown_flags_with_the_store_off(self, flags):
        with pytest.raises(ValueError, match="unknown compile flag"):
            compile_composition(
                MODEL_REGISTRY["necker_cube_s"].build(), flags=flags, store=False
            )

    def test_distinct_configurations_never_collide(self):
        # The satellite regression: {"sanitize": True} and
        # {"analysis_cache": False} must each differ from the clean entry
        # and from each other.
        keys = {
            normalize_flags(None),
            normalize_flags({"sanitize": True}),
            normalize_flags({"analysis_cache": False}),
            normalize_flags({"sanitize": True, "analysis_cache": False}),
        }
        assert len(keys) == 4


class TestKeyStability:
    def test_salt_ignores_the_live_type_mutation_epoch(self):
        before_salt = artifact_salt()
        before_epoch = ir_types.TYPE_MUTATION_EPOCH
        # Growing any struct bumps the epoch; the salt must not move.
        ir_types.StructType("epoch_bump_probe").add_field("x", ir_types.F64)
        assert ir_types.TYPE_MUTATION_EPOCH == before_epoch + 1
        assert artifact_salt() == before_salt

    def test_entries_from_an_older_ir_generator_miss(self, monkeypatch, tmp_path):
        # Model entries are keyed on the composition, not its IR: a change
        # to the IR a composition generates must reach the key via the salt.
        from repro.core import codegen

        store = ArtifactStore(tmp_path / "store")
        spec = generate_model_spec(5)
        monkeypatch.setattr(codegen, "IRGEN_VERSION", codegen.IRGEN_VERSION - 1)
        old = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        assert old.stats.artifact_writes >= 1
        monkeypatch.undo()
        fresh = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        assert fresh.stats.artifact_hits == 0
        assert fresh.stats.artifact_misses == 2

    def test_entries_from_another_interpreter_miss(self, monkeypatch, tmp_path):
        # Model entries hold marshalled bytecode, which only the interpreter
        # version that wrote it can load: its magic number is in the salt.
        store = ArtifactStore(tmp_path / "store")
        spec = generate_model_spec(5)
        monkeypatch.setattr(importlib.util, "MAGIC_NUMBER", b"\x00\x00\r\n")
        other = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        assert other.stats.artifact_writes == 2
        monkeypatch.undo()
        fresh = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        assert fresh.stats.artifact_hits == 0
        assert fresh.stats.artifact_misses == 2

    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    def test_model_entry_with_unloadable_code_compiles_cold(self, tmp_path, damage):
        store = ArtifactStore(tmp_path / "store")
        spec = generate_model_spec(5)
        cold = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        key = model_artifact_key(spec.build(), resolve_pipeline("default<O2>"), 0)
        entry = store.get(key)
        if damage == "missing":
            del entry["code"]
        else:
            entry["code"] = b"\xe3not a code object"
        store.put(key, entry)

        fallback = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        # The model entry missed; the optimize entry still served the IR.
        assert fallback.stats.artifact_misses == 1
        assert fallback.stats.artifact_hits == 1
        assert fallback.stats.lower_seconds > 0.0
        # The cold path republished a loadable model entry.
        warm = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        assert warm.stats.artifact_hits == 1
        assert warm.stats.artifact_misses == 0
        a = raw_buffers(cold, spec.inputs, spec.num_trials, spec.run_seed, "compiled")
        for model in (fallback, warm):
            b = raw_buffers(model, spec.inputs, spec.num_trials, spec.run_seed, "compiled")
            assert buffers_equal(a, b) is None

    def test_function_fingerprint_survives_epoch_bumps(self):
        module = Module("fp_stability")
        fn = build_struct_sum_function(module)
        first = function_fingerprint(fn)
        ir_types.StructType("unrelated").add_field("y", ir_types.F64)
        assert function_fingerprint(fn) == first

    def test_model_key_stable_across_compiles_in_one_process(self):
        # The original bug: the epoch in the salt made the second key differ
        # because the intervening compile had built structs.
        spec = generate_model_spec(3)
        pipeline = parse_pipeline("default<O2>")
        first = model_artifact_key(spec.build(), pipeline, 0)
        compile_composition(spec.build(), pipeline="default<O2>", store=False)
        assert model_artifact_key(spec.build(), pipeline, 0) == first

    def test_model_key_components(self):
        spec = generate_model_spec(3)
        pipeline = parse_pipeline("default<O2>")
        base = model_artifact_key(spec.build(), pipeline, 0)
        assert model_artifact_key(spec.build(), pipeline, 1) != base
        assert (
            model_artifact_key(spec.build(), pipeline, 0, flags={"sanitize": True})
            != base
        )
        assert (
            model_artifact_key(spec.build(), parse_pipeline("default<O0>"), 0) != base
        )

    def test_unit_fingerprints_round_trip_pickling(self):
        module = Module("pickle_stability")
        build_affine_function(module)
        build_struct_sum_function(module)
        original = unit_fingerprints(module, "default<O2>")
        restored = pickle.loads(pickle.dumps(module))
        assert unit_fingerprints(restored, "default<O2>") == original
        assert optimize_artifact_key(
            unit_fingerprints(restored, "default<O2>")
        ) == optimize_artifact_key(original)

    def test_unit_fingerprints_cover_callees_and_pipeline(self):
        module = Module("unit_keys")
        build_affine_function(module)
        o2 = unit_fingerprints(module, "default<O2>")
        o0 = unit_fingerprints(module, "default<O0>")
        assert set(o2) == {"affine"}
        assert o2["affine"] != o0["affine"]


class TestArtifactStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.get("a" * 64) is None
        store.put("a" * 64, {"payload": [1, 2, 3]})
        assert store.get("a" * 64) == {"payload": [1, 2, 3]}
        assert store.counters() == {"hits": 1, "misses": 1, "writes": 1, "errors": 0}

    def test_corrupt_object_reads_as_miss_and_is_unlinked(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = "b" * 64
        store.put(key, {"ok": True})
        with open(store.path_for(key), "wb") as fh:
            fh.write(b"\x80\x05 truncated garbage")
        assert store.get(key) is None
        assert not os.path.exists(store.path_for(key))
        assert store.counters()["errors"] == 1

    def test_concurrent_writers_and_readers_never_tear(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = "c" * 64
        payload = {"rows": list(range(512))}
        failures = []

        def writer():
            for _ in range(25):
                store.put(key, payload)

        def reader():
            for _ in range(50):
                got = store.get(key)
                if got is not None and got != payload:
                    failures.append(got)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert store.get(key) == payload
        # No stray temp files left behind in the shard directory.
        shard = os.path.dirname(store.path_for(key))
        assert [n for n in os.listdir(shard) if n.startswith(".tmp-")] == []

    def test_gc_evicts_oldest_first(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        keys = ["d" * 64, "e" * 64, "f" * 64]
        for i, key in enumerate(keys):
            store.put(key, {"index": i, "pad": "x" * 100})
            os.utime(store.path_for(key), (1000 + i, 1000 + i))
        one_size = os.path.getsize(store.path_for(keys[0]))
        summary = store.gc(max_bytes=one_size)
        assert summary["removed_files"] == 2
        assert summary["kept_files"] == 1
        assert store.get(keys[2]) is not None  # newest survives
        assert store.get(keys[0]) is None

    def test_gc_zero_drops_everything(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("9" * 64, {"x": 1})
        summary = store.gc(max_bytes=0)
        assert summary["kept_files"] == 0
        assert store.stats()["files"] == 0


class TestResolveStore:
    def test_false_disables_even_with_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path))
        assert resolve_store(False) is None

    def test_none_consults_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert resolve_store(None) is None
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env-store"))
        store = resolve_store(None)
        assert isinstance(store, ArtifactStore)
        assert store.root == str(tmp_path / "env-store")

    def test_path_and_instance(self, tmp_path):
        store = resolve_store(tmp_path / "explicit")
        assert isinstance(store, ArtifactStore)
        assert resolve_store(store) is store

    def test_off_disables_from_env_and_argument(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(STORE_ENV_VAR, "off")
        assert resolve_store(None) is None
        assert resolve_store("off") is None
        assert not (tmp_path / "off").exists()

    @pytest.mark.parametrize("spelling", ["env", "flag"])
    def test_serve_cli_off_spellings_agree(self, monkeypatch, tmp_path, spelling):
        """``REPRO_ARTIFACT_DIR=off`` and ``--artifact-dir off`` both boot the
        daemon without a store (and never create a directory named ``off``)."""
        import signal

        from repro.serve import __main__ as serve_main

        booted = {}

        class FakeServer:
            def __init__(self, address, artifact_dir, config):
                booted["artifact_dir"] = artifact_dir
                self.address = address

            def start(self):
                pass

            def serve_forever(self):
                pass

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(serve_main, "Server", FakeServer)
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        argv = ["--socket", str(tmp_path / "s.sock")]
        if spelling == "env":
            monkeypatch.setenv(STORE_ENV_VAR, "off")
        else:
            monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env-store"))
            argv += ["--artifact-dir", "off"]
        assert serve_main.main(argv) == 0
        assert booted["artifact_dir"] is False
        assert not (tmp_path / "off").exists()


class TestCacheCli:
    def test_stats_and_gc(self, tmp_path, capsys):
        from repro.cache import main

        store = ArtifactStore(tmp_path / "store")
        store.put("1" * 64, {"x": "y" * 200})
        store.put("2" * 64, {"x": "z" * 200})

        assert main(["--dir", str(store.root), "stats"]) == 0
        out = capsys.readouterr().out
        assert "files:  2" in out

        assert main(["--dir", str(store.root), "gc", "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 objects" in out
        assert store.stats()["files"] == 0

    def test_no_store_configured_is_an_error(self, monkeypatch):
        from repro.cache import main

        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        with pytest.raises(SystemExit):
            main(["stats"])


class TestEndToEndReuse:
    def test_warm_hit_skips_sanitize_optimize_codegen(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = generate_model_spec(5)

        cold = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        assert cold.stats.artifact_hits == 0
        assert cold.stats.artifact_writes >= 1

        warm = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        assert warm.stats.artifact_hits == 1
        assert warm.stats.artifact_misses == 0
        assert warm.stats.sanitize_seconds == 0.0
        assert warm.stats.optimize_seconds == 0.0
        assert warm.stats.codegen_seconds == 0.0
        # The only work left on a hit is exec'ing the stored bytecode,
        # booked as lowering.
        assert warm.stats.lower_seconds > 0.0
        assert warm.stats.instructions_after == cold.stats.instructions_after

        from repro.fuzz.oracle import buffers_equal, raw_buffers

        try:
            a = raw_buffers(cold, spec.inputs, spec.num_trials, spec.run_seed, "compiled")
            b = raw_buffers(warm, spec.inputs, spec.num_trials, spec.run_seed, "compiled")
            assert buffers_equal(a, b) is None
        finally:
            cold.close_engines()
            warm.close_engines()

    def test_param_value_siblings_share_optimize_entry(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = generate_scale_spec(1, n_mechanisms=10)
        (param_edit, target), _ = scale_edit_specs(spec)

        base = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        base.close_engines()
        sibling = compile_composition(
            param_edit.build(), pipeline="default<O2>", store=store
        )
        sibling.close_engines()
        # Distinct model key (parameter values differ) but the plain
        # parameter loads from the params buffer, so the pre-optimization IR
        # — and with it the optimize entry — is shared.
        assert sibling.stats.artifact_misses == 1
        assert sibling.stats.artifact_hits == 1
        # The pipeline never ran on the sibling (optimize_seconds books only
        # the stored-module decode): no analysis activity at all, identical
        # optimized instruction count.
        assert sibling.stats.analysis_hits == 0
        assert sibling.stats.analysis_misses == 0
        assert base.stats.analysis_misses > 0
        assert sibling.stats.instructions_after == base.stats.instructions_after
        assert base.unit_fingerprints == sibling.unit_fingerprints
        # The edit really changed the program: the edited parameter value
        # landed in the params buffer, not the shared IR.
        assert target is not None
        assert base.layout.param_values != sibling.layout.param_values

    def test_baked_matrix_edit_does_not_share_optimize_entry(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = generate_scale_spec(1, n_mechanisms=10)
        _, (proj_edit, receiver) = scale_edit_specs(spec)

        base = compile_composition(spec.build(), pipeline="default<O2>", store=store)
        base.close_engines()
        sibling = compile_composition(
            proj_edit.build(), pipeline="default<O2>", store=store
        )
        sibling.close_engines()
        # Projection matrices are baked into the receiver's node function:
        # its unit fingerprint moves, so neither the model entry nor the
        # optimize entry can be reused.
        assert sibling.stats.artifact_hits == 0
        assert sibling.stats.artifact_misses == 2
        assert (
            base.unit_fingerprints[f"node_{receiver}"]
            != sibling.unit_fingerprints[f"node_{receiver}"]
        )


class TestEncodeOnce:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_lowering_leaves_the_encoded_module_unchanged(self, monkeypatch, name):
        # A cold compile stores one encoding of the optimized module in both
        # the optimize entry (before lowering) and the model entry (after).
        original = PythonCodeGenerator.generate_source
        unchanged = []

        def generate_source(generator):
            before = pickle.dumps(serialize.encode_module(generator.module))
            source = original(generator)
            unchanged.append(pickle.dumps(serialize.encode_module(generator.module)) == before)
            return source

        monkeypatch.setattr(PythonCodeGenerator, "generate_source", generate_source)
        compile_composition(
            MODEL_REGISTRY[name].build(),
            pipeline="default<O2>",
            store=False,
        )
        assert unchanged == [True]


@pytest.fixture
def decodes(monkeypatch):
    """Count (and slow down, to widen races) ``decode_module`` calls."""
    calls = []
    original = serialize.decode_module

    def decode_module(data):
        calls.append(threading.get_ident())
        time.sleep(0.05)
        return original(data)

    monkeypatch.setattr(serialize, "decode_module", decode_module)
    return calls


#: A generated spec with a grid-search controller, so gpu-sim reads the IR.
GRID_SPEC_SEED = 3


def cold_and_hit(store_dir, spec):
    store = ArtifactStore(store_dir)
    cold = compile_composition(spec.build(), pipeline="default<O2>", store=store)
    hit = compile_composition(spec.build(), pipeline="default<O2>", store=store)
    assert hit.stats.artifact_hits == 1 and hit.stats.artifact_misses == 0
    return cold, hit


class TestLazyModule:
    def test_compiled_runs_never_decode(self, tmp_path, decodes):
        spec = generate_model_spec(GRID_SPEC_SEED)
        _, hit = cold_and_hit(tmp_path / "store", spec)
        try:
            hit.run(spec.inputs, num_trials=spec.num_trials, seed=spec.run_seed)
            hit.run_batch([spec.inputs] * 2, num_trials=spec.num_trials, seed=[1, 2])
            assert decodes == []
            assert not isinstance(hit.artifacts.module, Module)
        finally:
            hit.close_engines()

    @pytest.mark.parametrize("engine", ["lane", "gpu-sim", "ir-interp"])
    def test_first_ir_reader_decodes_once(self, tmp_path, decodes, engine):
        spec = generate_model_spec(GRID_SPEC_SEED)
        _, hit = cold_and_hit(tmp_path / "store", spec)
        try:
            hit.run(spec.inputs, num_trials=spec.num_trials, engine=engine)
            assert len(decodes) == 1
            module = hit.module
            assert isinstance(module, Module)
            assert module is hit.artifacts.module
            hit.print_ir()
            other = "gpu-sim" if engine == "lane" else "lane"
            hit.run(spec.inputs, num_trials=spec.num_trials, engine=other)
            assert hit.module is module
            assert len(decodes) == 1
        finally:
            hit.close_engines()

    def test_concurrent_readers_share_one_decode(self, tmp_path, decodes):
        spec = generate_model_spec(GRID_SPEC_SEED)
        _, hit = cold_and_hit(tmp_path / "store", spec)
        barrier = threading.Barrier(2)
        errors = []

        def prepare(engine):
            try:
                barrier.wait(timeout=10)
                hit.run(spec.inputs, num_trials=spec.num_trials, engine=engine)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=prepare, args=(e,)) for e in ("lane", "gpu-sim")]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            assert len(decodes) == 1
        finally:
            hit.close_engines()

    def test_hit_equals_cold_on_every_engine(self, tmp_path):
        spec = generate_model_spec(GRID_SPEC_SEED)
        cold, hit = cold_and_hit(tmp_path / "store", spec)
        config = OracleConfig()
        try:
            for engine in config.resolved_engines():
                options = _engine_options(engine, config.workers)
                args = (spec.inputs, spec.num_trials, spec.run_seed, engine)
                a = raw_buffers(cold, *args, **options)
                b = raw_buffers(hit, *args, **options)
                assert buffers_equal(a, b) is None, engine
                assert final_rng_counters(cold, a[2]) == final_rng_counters(hit, b[2]), engine
        finally:
            cold.close_engines()
            hit.close_engines()


class TestBlockIntrinsicsRoundTrip:
    """The trial driver's ``memset``/``memcpy`` calls survive the wire
    format and a store reload."""

    @staticmethod
    def block_calls(module):
        return sorted(
            (fn.name, instr.callee.intrinsic_name, instr.args[2].value)
            for fn in module.defined_functions()
            for instr in fn.instructions()
            if instr.opcode == "call" and instr.callee.intrinsic_name in ("memcpy", "memset")
        )

    def test_encode_decode_and_store_reload(self, tmp_path):
        spec = generate_model_spec(GRID_SPEC_SEED)
        cold, hit = cold_and_hit(tmp_path / "store", spec)
        try:
            calls = self.block_calls(cold.module)
            assert {name for _, name, _ in calls} == {"memcpy", "memset"}
            decoded = serialize.decode_module(serialize.encode_module(cold.module))
            for module in (decoded, hit.module):
                assert self.block_calls(module) == calls
                for fn in cold.module.defined_functions():
                    assert function_fingerprint(module.get_function(fn.name)) == (
                        function_fingerprint(fn)
                    ), fn.name
            for engine in ("compiled", "ir-interp", "lane"):
                args = (spec.inputs, spec.num_trials, spec.run_seed, engine)
                assert buffers_equal(raw_buffers(cold, *args), raw_buffers(hit, *args)) is None
        finally:
            cold.close_engines()
            hit.close_engines()
