"""Pipeline autotuner: candidate generation, equivalence gate, cache reuse.

Wall-clock timing is injected through ``AutotuneConfig.measure`` wherever a
test asserts on the *choice* the tuner makes — candidate generation consumes
only changed/no-op counts and the gate is bitwise, so with deterministic
measurements the whole search is deterministic.
"""

import pytest

from repro.driver.artifacts import ArtifactStore, TUNED_KEY_PREFIX, tuned_pipeline_key
from repro.driver.autotune import (
    AutotuneConfig,
    generate_candidates,
    run_autotune,
)
from repro.driver.registry import register_pass, unregister_pass
from repro.driver.session import Session
from repro.ir.instructions import BinaryOp
from repro.models import get_model
from repro.passes import FunctionPass


MODEL = "necker_cube_s"


def _workload(name=MODEL):
    entry = get_model(name)
    return entry.build(), entry.inputs(), entry.num_trials


def _deterministic_measure(pipeline_text, model):
    """Stable stand-in for wall clock: shorter pipeline text = faster."""
    return (len(pipeline_text) / 1000.0, len(pipeline_text) / 5000.0)


DET_CONFIG = AutotuneConfig(budget=6, measure=_deterministic_measure)


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


class TestGenerateCandidates:
    ENTRIES = ["inline(threshold=120)", "simplifycfg", "mem2reg", "constprop", "dce"]

    def _aggregate(self, noop=()):
        return {
            name: {"seconds": 0.0, "runs": 1, "changed": 0 if name in noop else 1,
                   "noops": 1 if name in noop else 0}
            for name in ("inline", "simplifycfg", "mem2reg", "constprop", "dce")
        }

    def test_deterministic_and_budget_capped(self):
        agg = self._aggregate(noop=("mem2reg",))
        first = generate_candidates(self.ENTRIES, agg, 10)
        second = generate_candidates(self.ENTRIES, agg, 10)
        assert first == second
        assert len(generate_candidates(self.ENTRIES, agg, 3)) == 3
        assert generate_candidates(self.ENTRIES, agg, 3) == first[:3]

    def test_noop_passes_pruned_first(self):
        agg = self._aggregate(noop=("mem2reg", "constprop"))
        candidates = generate_candidates(self.ENTRIES, agg, 10)
        # The first candidate drops every pass that never changed the IR.
        assert candidates[0] == "inline(threshold=120),simplifycfg,dce"
        # Followed by one per-pass prune for each no-op pass.
        assert "inline(threshold=120),simplifycfg,constprop,dce" in candidates[1:3]
        assert "inline(threshold=120),simplifycfg,mem2reg,dce" in candidates[1:3]

    def test_all_changed_keeps_full_pipeline(self):
        candidates = generate_candidates(self.ENTRIES, self._aggregate(), 20)
        assert ",".join(self.ENTRIES) in candidates
        assert "default<O1>" in candidates
        assert "default<O3>" in candidates


# ---------------------------------------------------------------------------
# The search: determinism, the gate, the incumbent floor
# ---------------------------------------------------------------------------


class TestRunAutotune:
    def test_same_model_seed_budget_same_winner(self):
        composition, inputs, trials = _workload()
        results = [
            run_autotune(
                _workload()[0], inputs, num_trials=trials,
                config=DET_CONFIG, store=False,
            )
            for _ in range(2)
        ]
        assert results[0].winner == results[1].winner
        assert results[0].objective == results[1].objective
        assert [r.pipeline for r in results[0].records] == [
            r.pipeline for r in results[1].records
        ]

    def test_winner_never_worse_than_incumbent(self):
        composition, inputs, trials = _workload()
        result = run_autotune(
            composition, inputs, num_trials=trials, config=DET_CONFIG, store=False
        )
        assert result.objective <= result.incumbent_objective
        assert result.improvement >= 1.0
        assert not result.cache_hit
        assert result.searched >= 1

    def test_every_raced_candidate_carries_incumbent_proof(self):
        composition, inputs, trials = _workload()
        result = run_autotune(
            composition, inputs, num_trials=trials, config=DET_CONFIG, store=False
        )
        incumbent = next(r for r in result.records if r.status == "incumbent")
        assert incumbent.proof
        for record in result.records:
            if record.status in ("winner", "equivalent", "incumbent"):
                assert record.equivalent
                assert record.proof == incumbent.proof

    def test_hostile_measure_still_returns_incumbent(self):
        """Even when measurement claims every candidate is infinitely fast on
        compile but the incumbent is free, ties break toward the incumbent."""
        composition, inputs, trials = _workload()
        config = AutotuneConfig(budget=4, measure=lambda text, model: (1.0, 1.0))
        result = run_autotune(
            composition, inputs, num_trials=trials, config=config, store=False
        )
        assert result.winner == config.incumbent  # all objectives equal -> incumbent


# ---------------------------------------------------------------------------
# The equivalence gate vs an unsound candidate generator
# ---------------------------------------------------------------------------


class FaddFlipper(FunctionPass):
    """Deliberately miscompiling pass: rewrites fadd -> fsub everywhere.

    Unlike the fuzz suite's node-only flipper this one hits *every* function:
    autotune candidates start from the O2 incumbent, whose ``inline`` pass has
    already copied the node bodies into ``run_pass`` — flipping only the dead
    original ``node_*`` functions would be provably equivalent (and the gate
    would rightly wave it through)."""

    name = "tunebreaker"
    preserves = "cfg"

    def run_on_function(self, function, am=None):
        changed = False
        for instruction in function.instructions():
            if isinstance(instruction, BinaryOp) and instruction.opcode == "fadd":
                instruction.opcode = "fsub"
                changed = True
        return changed


@pytest.fixture
def tunebreaker():
    register_pass("tunebreaker")(FaddFlipper)
    try:
        yield "tunebreaker"
    finally:
        assert unregister_pass("tunebreaker")


class TestEquivalenceGate:
    def test_unsound_candidate_rejected_never_wins(self, tunebreaker):
        composition, inputs, trials = _workload()
        config = AutotuneConfig(
            budget=4,
            measure=lambda text, model: (0.0, 0.0),  # flatteringly fast...
            generate=lambda entries, agg, budget: [
                ",".join(entries + [tunebreaker]),  # ...but miscompiled
                ",".join(entries),
            ],
        )
        result = run_autotune(
            composition, inputs, num_trials=trials, config=config, store=False
        )
        broken = next(r for r in result.records if tunebreaker in r.pipeline)
        assert broken.status == "rejected"
        assert not broken.equivalent
        assert "differ" in broken.detail or "diverge" in broken.detail
        # The rejected candidate's own observation is hashed for provenance
        # and differs from the incumbent's proof.
        incumbent = next(r for r in result.records if r.status == "incumbent")
        assert broken.proof and broken.proof != incumbent.proof
        assert tunebreaker not in result.winner

    def test_uncompilable_candidate_recorded_as_error(self):
        composition, inputs, trials = _workload()
        config = AutotuneConfig(
            budget=2,
            measure=_deterministic_measure,
            generate=lambda entries, agg, budget: ["no_such_pass_xyz"],
        )
        result = run_autotune(
            composition, inputs, num_trials=trials, config=config, store=False
        )
        errored = next(r for r in result.records if r.pipeline == "no_such_pass_xyz")
        assert errored.status == "error"
        assert errored.detail
        assert result.winner == config.incumbent


# ---------------------------------------------------------------------------
# Persistence: the tuned-pipeline cache across sessions
# ---------------------------------------------------------------------------


class TestTunedCache:
    def test_winner_reused_across_fresh_sessions(self, tmp_path):
        store_dir = str(tmp_path / "store")

        first = Session(store=store_dir)
        result = first.autotune(MODEL, budget=5, config=DET_CONFIG)
        assert not result.cache_hit
        assert first.cache_info()["tuned"]["searches"] == 1
        assert first.cache_info()["tuned"]["cached_results"] == 0

        # A brand-new session sharing only the on-disk store: search skipped.
        second = Session(store=store_dir)
        reused = second.autotune(MODEL, budget=5, config=DET_CONFIG)
        assert reused.cache_hit
        assert reused.searched == 0
        assert reused.winner == result.winner
        assert reused.objective == result.objective
        # Full provenance round-trips through the store.
        assert [r.pipeline for r in reused.records] == [
            r.pipeline for r in result.records
        ]
        info = second.cache_info()["tuned"]
        assert info["searches"] == 0
        assert info["cached_results"] == 1

    def test_force_researches(self, tmp_path):
        session = Session(store=str(tmp_path / "store"))
        session.autotune(MODEL, budget=5, config=DET_CONFIG)
        forced = session.autotune(MODEL, budget=5, config=DET_CONFIG, force=True)
        assert not forced.cache_hit
        assert session.cache_info()["tuned"]["searches"] == 2

    def test_auto_pipeline_resolves_tuned_winner(self, tmp_path):
        store_dir = str(tmp_path / "store")
        tuner = Session(store=store_dir)
        result = tuner.autotune(MODEL, budget=5, config=DET_CONFIG)

        fresh = Session(store=store_dir)
        composition, inputs, trials = _workload()
        compiled = fresh.compile_model(composition, pipeline="auto")
        try:
            assert compiled.pipeline.describe() == parse_describe(result.winner)
        finally:
            compiled.close_engines()
        info = fresh.cache_info()["tuned"]
        assert info["hits"] == 1
        assert info["misses"] == 0

    def test_auto_pipeline_falls_back_without_tuning(self, tmp_path):
        session = Session(store=str(tmp_path / "empty-store"))
        composition, inputs, trials = _workload()
        compiled = session.compile_model(composition, pipeline="auto")
        try:
            default = session.compile_model(composition, pipeline="default<O2>")
            assert compiled is default  # resolved to the incumbent -> same cache key
        finally:
            compiled.close_engines()
        assert session.cache_info()["tuned"]["misses"] == 1

    def test_auto_without_store_is_default(self):
        session = Session(store=False)
        composition, inputs, trials = _workload()
        assert session.resolve_auto_pipeline(composition) == "default<O2>"
        assert session.cache_info()["tuned"]["misses"] == 1

    def test_key_shape_and_engine_objective_partition(self, tmp_path):
        composition, inputs, trials = _workload()
        key = tuned_pipeline_key(composition, "compiled", "c1+r25")
        assert key.startswith(TUNED_KEY_PREFIX)
        assert key != tuned_pipeline_key(composition, "lane", "c1+r25")
        assert key != tuned_pipeline_key(composition, "compiled", "c1+r50")
        other, _, _ = _workload("predator_prey_s")
        assert key != tuned_pipeline_key(other, "compiled", "c1+r25")

    def test_tuned_stats_and_store_counters(self, tmp_path):
        store_dir = str(tmp_path / "store")
        session = Session(store=store_dir)
        session.autotune(MODEL, budget=5, config=DET_CONFIG)
        store = ArtifactStore(store_dir)
        stats = store.tuned_stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        # Lookup traffic is tracked per process on the store object itself.
        session2 = Session(store=store)
        session2.autotune(MODEL, budget=5, config=DET_CONFIG)
        assert store.tuned_stats()["hits"] == 1


def parse_describe(pipeline_text):
    """Canonical describe() text of a parsed pipeline (for comparison)."""
    from repro.driver.pipeline import parse_pipeline

    return parse_pipeline(pipeline_text).describe()
