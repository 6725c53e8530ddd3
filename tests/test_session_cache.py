"""Tests for the caching Session and the engine registry
(repro.driver.session / repro.driver.engines).

Covers the satellite requirements: a second compile of a structurally
identical model is a cache hit; differing pipeline/target/seed/flags are
misses; cached engines produce results identical to fresh compiles on the
Stroop and predator-prey models; and ``repro.compile`` works for every
registered engine.
"""

import numpy as np
import pytest

import repro
from repro.core.distill import compile_composition
from repro.driver.session import Session, structural_fingerprint
from repro.errors import EngineError
from repro.models import predator_prey, stroop


def assert_results_match(reference, candidate, rtol=1e-9, atol=1e-12):
    assert len(reference.trials) == len(candidate.trials)
    for ref_trial, new_trial in zip(reference.trials, candidate.trials):
        assert ref_trial.passes == new_trial.passes
        assert set(ref_trial.outputs) == set(new_trial.outputs)
        for node, value in ref_trial.outputs.items():
            np.testing.assert_allclose(
                value, new_trial.outputs[node], rtol=rtol, atol=atol, err_msg=node
            )


def build_stroop():
    return stroop.build_botvinick_stroop(cycles=15)


def build_pp():
    return predator_prey.build_predator_prey("s")


class TestStructuralFingerprint:
    def test_rebuilt_model_has_same_fingerprint(self):
        assert structural_fingerprint(build_stroop()) == structural_fingerprint(build_stroop())
        assert structural_fingerprint(build_pp()) == structural_fingerprint(build_pp())

    def test_structural_change_changes_fingerprint(self):
        assert structural_fingerprint(
            stroop.build_botvinick_stroop(cycles=15)
        ) != structural_fingerprint(stroop.build_botvinick_stroop(cycles=16))

    def test_different_models_differ(self):
        assert structural_fingerprint(build_stroop()) != structural_fingerprint(build_pp())


class TestSessionCaching:
    def test_second_compile_is_a_hit(self):
        session = Session()
        first = session.compile_model(build_stroop())
        second = session.compile_model(build_stroop())
        assert second is first
        info = session.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["models"] == 1

    def test_pipeline_target_seed_and_flags_are_key_components(self):
        session = Session()
        session.compile_model(build_stroop())
        session.compile_model(build_stroop(), pipeline="default<O1>")
        session.compile_model(build_stroop(), seed=7)
        session.compile_model(build_stroop(), flags={"sanitize": True})
        info = session.cache_info()
        assert info["misses"] == 4 and info["hits"] == 0

        # Same artifacts, two targets: one model, two engine instances.
        a = session.compile(build_stroop(), target="compiled")
        b = session.compile(build_stroop(), target="ir-interp")
        assert a.model is b.model
        assert session.cache_info()["instances"] == 2

    def test_hand_built_pipelines_with_different_params_do_not_collide(self):
        from repro.passes import Inliner, PassManager

        session = Session()
        first = session.compile_model(
            build_stroop(), pipeline=PassManager([Inliner(threshold=120)])
        )
        second = session.compile_model(
            build_stroop(), pipeline=PassManager([Inliner(threshold=400, aggressive=True)])
        )
        assert first is not second
        assert session.cache_info()["misses"] == 2

    def test_equivalent_pipeline_texts_share_an_entry(self):
        session = Session()
        first = session.compile_model(build_stroop(), pipeline="default<O2>")
        expanded = first.pipeline_text
        assert session.compile_model(build_stroop(), pipeline=expanded) is first

    def test_repeated_engine_binding_reuses_instance(self):
        session = Session()
        assert session.compile(build_stroop()) is session.compile(build_stroop())

    def test_clear_resets(self):
        session = Session()
        session.compile_model(build_stroop())
        session.clear()
        assert session.cache_info() == {
            "hits": 0,
            "misses": 0,
            "models": 0,
            "instances": 0,
            "tuned": {"hits": 0, "misses": 0, "searches": 0, "cached_results": 0},
        }

    def test_non_default_flags_never_alias_the_clean_entry(self):
        # Regression: flags used to freeze as raw dict items, so
        # {"sanitize": True} could collide with a clean compile depending on
        # spelling.  Normalization drops only *default-valued* flags.
        session = Session()
        clean = session.compile_model(build_stroop())
        sanitized = session.compile_model(build_stroop(), flags={"sanitize": True})
        cold = session.compile_model(
            build_stroop(), flags={"analysis_cache": False}
        )
        assert sanitized is not clean
        assert cold is not clean
        assert cold is not sanitized
        assert session.cache_info()["misses"] == 3

        # Spelling a default explicitly compiles identically, so it *should*
        # alias the clean entry.
        assert session.compile_model(build_stroop(), flags={"analysis_cache": True}) is clean
        assert session.compile_model(build_stroop(), flags={"sanitize": False}) is clean

    def test_edited_model_no_longer_serves_its_pre_edit_key(self):
        """``set_parameter`` on a cached model edits it in place; a fresh
        build of the original composition must then compile cold instead of
        hitting the edited object."""
        session = Session()
        inputs = stroop.default_inputs("incongruent")
        edited = session.compile_model(build_stroop())
        edited.set_parameter("color_input", "slope", 2.0)
        original = session.compile_model(build_stroop())
        assert original is not edited
        assert session.cache_info()["misses"] == 2
        cold = compile_composition(build_stroop())
        assert_results_match(
            cold.run(inputs, num_trials=1), original.run(inputs, num_trials=1)
        )
        # The rebuilt entry is current again: the next request hits it.
        assert session.compile_model(build_stroop()) is original


class TestSessionFastPath:
    """A hit on a textual pipeline seen before, with the caller's cached
    digest, is a dict lookup: no parse and no fingerprint."""

    def test_hit_with_cached_fingerprint_is_a_dict_lookup(self, monkeypatch):
        import repro.driver.session as session_module

        session = Session()
        first = session.compile(build_stroop())
        digest = structural_fingerprint(build_stroop())

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a warm hit must not parse or fingerprint")

        for name in ("structural_fingerprint", "_pipeline_fingerprint", "resolve_pipeline"):
            monkeypatch.setattr(session_module, name, forbidden)
        assert session.compile(build_stroop(), fingerprint=digest) is first
        assert session.compile_model(build_stroop(), fingerprint=digest) is first.model
        info = session.cache_info()
        assert info["hits"] == 2 and info["misses"] == 1

    def test_verify_each_misses_after_a_boundary_hit_of_the_same_text(self):
        session = Session()
        boundary = session.compile_model(build_stroop(), pipeline="default<O1>")
        assert session.compile_model(build_stroop(), pipeline="default<O1>") is boundary
        each = session.compile_model(build_stroop(), pipeline="default<O1>", verify="each")
        assert each is not boundary
        assert each.pipeline.verify == "each"
        info = session.cache_info()
        assert info["hits"] == 1 and info["misses"] == 2

    def test_prebuilt_pass_manager_still_keys_structurally(self):
        session = Session()
        text = session.compile_model(build_stroop(), pipeline="default<O1>")
        manager = repro.parse_pipeline("default<O1>")
        assert session.compile_model(build_stroop(), pipeline=manager) is text
        # The memoized text is no shortcut for a different manager.
        other = repro.parse_pipeline("default<O1>,cse")
        assert session.compile_model(build_stroop(), pipeline=other) is not text
        info = session.cache_info()
        assert info["hits"] == 1 and info["misses"] == 2

    def test_edited_model_not_served_under_its_pre_edit_digest(self):
        session = Session()
        digest = structural_fingerprint(build_stroop())
        edited = session.compile_model(build_stroop(), fingerprint=digest)
        edited.set_parameter("color_input", "slope", 2.0)
        fresh = session.compile_model(build_stroop(), fingerprint=digest)
        assert fresh is not edited
        assert session.cache_info()["misses"] == 2
        inputs = stroop.default_inputs("incongruent")
        assert_results_match(
            compile_composition(build_stroop()).run(inputs, num_trials=1),
            fresh.run(inputs, num_trials=1),
        )

    def test_unregistered_pass_is_not_served_from_the_memo(self):
        from repro.driver.registry import register_pass, unregister_pass
        from repro.errors import PipelineParseError
        from repro.passes.dce import DeadCodeElimination

        session = Session()
        register_pass("memo_probe")(DeadCodeElimination)
        try:
            session.compile_model(build_stroop(), pipeline="default<O1>,memo_probe")
        finally:
            assert unregister_pass("memo_probe")
        with pytest.raises(PipelineParseError):
            session.compile_model(build_stroop(), pipeline="default<O1>,memo_probe")

    def test_whitespace_variants_hit_one_model_and_the_memo_stays_bounded(self):
        from repro.driver.session import _PIPELINE_MEMO_LIMIT

        session = Session()
        model = session.compile_model(build_stroop(), pipeline="default<O1>")
        digest = structural_fingerprint(build_stroop())
        variants = 2 * _PIPELINE_MEMO_LIMIT
        for pad in range(1, variants + 1):
            text = " " * pad + "default<O1>"
            assert session.compile_model(build_stroop(), pipeline=text, fingerprint=digest) is model
            assert len(session._pipeline_fingerprints) <= _PIPELINE_MEMO_LIMIT
        info = session.cache_info()
        assert info["hits"] == variants and info["misses"] == 1

    def test_non_string_pipeline_is_a_parse_error(self):
        from repro.errors import PipelineParseError

        session = Session()
        with pytest.raises(PipelineParseError, match="must be a string"):
            session.compile_model(build_stroop(), pipeline=["default<O1>"])


class TestCachedResultsIdentical:
    @pytest.mark.parametrize(
        "build, inputs, trials",
        [
            (build_stroop, lambda: stroop.default_inputs("incongruent"), 3),
            (build_pp, lambda: predator_prey.default_inputs(1), 1),
        ],
        ids=["stroop", "predator_prey"],
    )
    def test_cached_engine_matches_fresh_compile(self, build, inputs, trials):
        session = Session()
        session.compile(build(), target="compiled")  # populate the cache
        cached = session.compile(build(), target="compiled")  # hit
        assert session.cache_info()["hits"] >= 1
        fresh = compile_composition(build(), pipeline="default<O2>")
        assert_results_match(
            fresh.run(inputs(), num_trials=trials, seed=0),
            cached.run(inputs(), num_trials=trials, seed=0),
        )


class TestCompileFacade:
    @pytest.mark.parametrize("target", ["compiled", "ir-interp", "per-node", "gpu-sim", "mcpu"])
    def test_every_registered_engine_runs_via_repro_compile(self, target):
        inputs = predator_prey.default_inputs(1)
        baseline = repro.compile(build_pp(), target="compiled").run(inputs, num_trials=1, seed=0)
        engine = repro.compile(build_pp(), target=target, pipeline="default<O2>")
        results = engine.run(inputs, num_trials=1, seed=0)
        assert results.engine == target
        assert_results_match(baseline, results)

    def test_unknown_target_raises_engine_error(self):
        with pytest.raises(EngineError) as excinfo:
            repro.compile(build_stroop(), target="cuda")
        assert "cuda" in str(excinfo.value)
        assert "compiled" in str(excinfo.value)

    def test_list_engines_covers_legacy_tuple(self):
        builtins = {"compiled", "ir-interp", "per-node", "mcpu", "gpu-sim", "lane"}
        assert builtins <= set(repro.list_engines())

    def test_engine_capabilities_exposed(self):
        caps = repro.engine_capabilities()
        assert caps["mcpu"].supports_workers
        assert not caps["ir-interp"].compiled

    def test_run_with_pipeline_string_and_explicit_session(self):
        session = Session()
        engine = session.compile(build_stroop(), pipeline="default<O1>,cse(iterations=2)")
        results = engine.run(stroop.default_inputs("congruent"), num_trials=2, seed=0)
        assert len(results.trials) == 2
