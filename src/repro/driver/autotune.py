"""Pipeline autotuner: race equivalence-proven candidates, cache the winner.

The paper's speed claims rest on a pass pipeline tuned to the workload, yet
every model shape shipped with one hard-coded ``default<O2>``.  This module
closes that gap with the QueryTorque recipe — generate rewrite candidates,
*prove* each one semantically equivalent, then race the survivors against the
incumbent — using three pieces of existing infrastructure:

1. **Candidate generation** (:func:`generate_candidates`) works on the
   incumbent's canonical pipeline text (``PassManager.describe()``) and is
   seeded by the incumbent compile's ``CompileStats.passes``: passes that
   never changed the IR during the incumbent compile are pruned first, later
   repeats are deduplicated, the cleanup tail is wrapped in a ``fixpoint``,
   and a few adjacent reorderings plus the other ``default<Ok>`` levels round
   out the space.  Generation is deterministic: it consumes only ``changed``/``runs``
   counts (never noisy seconds), so the same model and budget always produce
   the same candidate list.

2. **The equivalence gate** compiles each candidate and demands bitwise-equal
   result/monitor/state buffers (the state buffer holds every mechanism's
   final PRNG counter) against the incumbent on the model's own
   representative inputs — the fuzz oracle's bar, through the same
   :func:`repro.fuzz.compare.compare` the oracle legs call.  A candidate that
   fails (a run that raises included) is recorded in provenance and never
   raced.

3. **The race** times survivors with noise-aware repeated runs (min-of-k
   after a warmup discard) and scores a weighted compile+run objective
   (``compile_weight * pipeline_seconds + run_weight * run_seconds``).  The
   incumbent is always raced and always eligible, so the returned winner's
   measured objective is never worse than the incumbent's.

The winner plus full provenance (every candidate tried, its timings, its
equivalence proof hash) is persisted in the :class:`~repro.driver.artifacts.
ArtifactStore` under a key derived from the structural composition hash, the
engine and the objective — *not* the run seed (see DESIGN.md, "Pipeline
autotuner") — so a warm :class:`~repro.driver.session.Session` or the serving
daemon resolves ``pipeline="auto"`` to the tuned pipeline with zero search
cost.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .artifacts import resolve_store, tuned_pipeline_key
from .pipeline import PipelineParseError, _split_top_level, parse_pipeline

__all__ = [
    "AutotuneConfig",
    "AutotuneResult",
    "CandidateRecord",
    "generate_candidates",
    "run_autotune",
    "TUNE_VERSION",
]

#: Payload schema version; stored entries with another version are ignored.
TUNE_VERSION = 1


@dataclass
class AutotuneConfig:
    """Search parameters; the defaults define the cache's default objective."""

    #: The pipeline to beat (always compiled, gated and raced itself).
    incumbent: str = "default<O2>"
    #: Engine the race runs on (and part of the cache key: a pipeline tuned
    #: for scalar ``compiled`` need not be the lane engine's winner).
    engine: str = "compiled"
    #: Maximum candidates taken through the gate + race (excluding the
    #: incumbent, which is always measured).
    budget: int = 12
    #: Timed runs per candidate; the minimum is scored.
    repeats: int = 3
    #: Untimed runs discarded before timing starts (cold-cache noise).
    warmup: int = 1
    #: Objective weights.  Run time dominates by default: a compiled model is
    #: paid for once and run for hundreds of trials (the paper's amortisation
    #: argument), but compile cost must stay in the objective or the tuner
    #: would happily hand a serving daemon a pipeline that doubles cold-start.
    compile_weight: float = 1.0
    run_weight: float = 25.0
    #: Run seed used for the equivalence proof and the race.  Deliberately
    #: *excluded* from the cache key: equivalence is proven at the IR level
    #: (same module ⇒ same behaviour for every seed) and relative pipeline
    #: speed does not depend on which PRNG stream the trials draw.
    run_seed: int = 0
    #: Test hook: ``measure(pipeline_text, model) -> (compile_s, run_s)``
    #: replaces wall-clock measurement with a deterministic stand-in.
    measure: Optional[Callable[[str, object], Tuple[float, float]]] = None
    #: Test hook: replaces :func:`generate_candidates` (same signature).
    generate: Optional[Callable[[List[str], Dict[str, dict], int], List[str]]] = None

    def objective_id(self) -> str:
        """Canonical objective identity (participates in the cache key)."""
        return f"c{self.compile_weight:g}+r{self.run_weight:g}"


@dataclass
class CandidateRecord:
    """Provenance of one candidate: what happened to it and why."""

    pipeline: str
    #: "winner" | "equivalent" | "incumbent" | "rejected" (failed the
    #: equivalence gate) | "error" (did not compile)
    status: str
    equivalent: bool = False
    #: Proof hash of the observed buffers (or error); equivalent candidates
    #: carry the incumbent's hash — auditable after the fact.
    proof: Optional[str] = None
    compile_s: float = 0.0
    run_s: float = 0.0
    objective: float = float("inf")
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "status": self.status,
            "equivalent": self.equivalent,
            "proof": self.proof,
            "compile_s": self.compile_s,
            "run_s": self.run_s,
            "objective": self.objective,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CandidateRecord":
        return cls(**{k: data[k] for k in (
            "pipeline", "status", "equivalent", "proof",
            "compile_s", "run_s", "objective", "detail",
        )})


@dataclass
class AutotuneResult:
    """Outcome of one autotune call (fresh search or cache hit)."""

    winner: str
    objective: float
    incumbent: str
    incumbent_objective: float
    #: True when the tuned-pipeline cache served the winner (search skipped).
    cache_hit: bool
    #: Candidates compiled and gated by *this* call (0 on a cache hit).
    searched: int
    records: List[CandidateRecord] = field(default_factory=list)
    key: Optional[str] = None
    engine: str = "compiled"

    @property
    def improvement(self) -> float:
        """Incumbent objective / winner objective (>= 1.0 by construction)."""
        if self.objective <= 0:
            return 1.0
        return self.incumbent_objective / self.objective

    def to_payload(self, config: AutotuneConfig) -> Dict[str, object]:
        return {
            "version": TUNE_VERSION,
            "winner": self.winner,
            "objective": self.objective,
            "incumbent": self.incumbent,
            "incumbent_objective": self.incumbent_objective,
            "engine": self.engine,
            "objective_id": config.objective_id(),
            "budget": config.budget,
            "searched": self.searched,
            "candidates": [record.to_dict() for record in self.records],
        }


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def _entry_name(entry: str) -> str:
    """The bare pass name of one canonical pipeline entry."""
    return re.split(r"[(<]", entry.strip(), maxsplit=1)[0]


def generate_candidates(
    entries: List[str], aggregate: Dict[str, dict], budget: int
) -> List[str]:
    """Deterministic candidate pipeline texts derived from the incumbent.

    ``entries`` is the incumbent's canonical entry list (its ``describe()``
    text split at top level) and ``aggregate`` its compile's per-pass record
    (:attr:`repro.core.distill.CompileStats.passes`) — only the ``changed``
    counts are consulted, never the (noisy) seconds, so the same compile
    always yields the same candidates in the same order.
    """
    seen = set()
    texts: List[str] = []

    def add(candidate_entries: Sequence[str]) -> None:
        text = ",".join(e for e in candidate_entries if e)
        if text not in seen:
            seen.add(text)
            texts.append(text)

    never_changed = [
        name
        for name in dict.fromkeys(_entry_name(e) for e in entries)
        if name in aggregate and aggregate[name].get("changed", 0) == 0
    ]

    # 1. Prune every pass that never changed the IR — the highest-value
    #    rewrite (same optimized module, cheaper compile) and the reason the
    #    per-pass changed/no-op counters exist.
    pruned = [e for e in entries if _entry_name(e) not in never_changed]
    add(pruned)

    # 2. One variant per no-op pass, for when the combined prune is unsound
    #    on this model (a no-op pass may still enable a later pass next run).
    for name in never_changed:
        add([e for e in entries if _entry_name(e) != name])

    # 3. Deduplicate later repeats: keep only each pass's first occurrence.
    first_only: List[str] = []
    taken = set()
    for entry in pruned:
        name = _entry_name(entry)
        if name not in taken:
            taken.add(name)
            first_only.append(entry)
    add(first_only)

    # 4. Iteration restructuring: replace the pruned pipeline's second half
    #    (the cleanup/second-round tail) with a fixpoint over it, so the tail
    #    runs exactly as often as it keeps finding work.
    if len(pruned) >= 4:
        half = len(pruned) // 2
        add(pruned[:half] + [f"fixpoint<4>({','.join(pruned[half:])})"])
        add([f"fixpoint<3>({','.join(first_only)})"])

    # 5. A few adjacent reorderings near the head of the pruned pipeline
    #    (pass-ordering sensitivity is front-loaded: inlining/mem2reg feed
    #    everything downstream).
    for index in range(min(len(pruned) - 1, 4)):
        swapped = list(pruned)
        swapped[index], swapped[index + 1] = swapped[index + 1], swapped[index]
        add(swapped)

    # 6. The neighbouring standard levels: O1 may win the compile-weighted
    #    objective on tiny models, O3's aggressive inlining the run side.
    add(["default<O1>"])
    add(["default<O3>"])

    return texts[: max(budget, 0)]


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------


def _pipeline_compile_seconds(model) -> float:
    """The pipeline-dependent share of a compile's wall clock.

    Sanitize and layout cost the same under every pipeline; optimisation,
    codegen and lowering scale with what the pipeline left behind.
    """
    stats = model.stats
    return stats.optimize_seconds + stats.codegen_seconds + stats.lower_seconds


def _race_seconds(model, engine: str, inputs, num_trials: int, seed: int,
                  warmup: int, repeats: int) -> float:
    """Min-of-k run time on ``engine`` after ``warmup`` discarded runs."""
    instance = model.engine_instance(engine)
    for _ in range(max(warmup, 0)):
        instance.run(inputs, num_trials=num_trials, seed=seed)
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        instance.run(inputs, num_trials=num_trials, seed=seed)
        best = min(best, time.perf_counter() - start)
    return best


def result_from_payload(payload: Dict[str, object], key: str) -> Optional[AutotuneResult]:
    """Rebuild an :class:`AutotuneResult` from a stored payload (or ``None``)."""
    if not isinstance(payload, dict) or payload.get("version") != TUNE_VERSION:
        return None
    try:
        parse_pipeline(str(payload["winner"]))
        return AutotuneResult(
            winner=str(payload["winner"]),
            objective=float(payload["objective"]),
            incumbent=str(payload["incumbent"]),
            incumbent_objective=float(payload["incumbent_objective"]),
            cache_hit=True,
            searched=0,
            records=[CandidateRecord.from_dict(c) for c in payload["candidates"]],
            key=key,
            engine=str(payload["engine"]),
        )
    except (KeyError, TypeError, ValueError, PipelineParseError):
        return None


def run_autotune(
    composition,
    inputs,
    num_trials: int = 1,
    config: Optional[AutotuneConfig] = None,
    store=None,
    force: bool = False,
) -> AutotuneResult:
    """Search for the best equivalent pipeline for ``composition``.

    ``inputs``/``num_trials`` are the representative workload the equivalence
    proof and the race both run; ``store`` follows the usual artifact-store
    selector conventions (``None`` = environment, ``False`` = disabled).
    With a store, a persisted winner for the same (structure, engine,
    objective) is returned immediately unless ``force`` is set.

    Prefer :meth:`repro.Session.autotune`, which wires in the session's store
    and maintains the tuned-cache counters the serving daemon reports.
    """
    from ..core.distill import compile_composition
    from ..fuzz.compare import compare, observe, proof_hash, raw_buffers

    config = config or AutotuneConfig()
    store = resolve_store(store)
    key = tuned_pipeline_key(composition, config.engine, config.objective_id())

    if store is not None and not force:
        cached = result_from_payload(store.get(key), key)
        if cached is not None:
            return cached

    # -- incumbent: compile, observe, race ---------------------------------
    # store=False throughout the search: a warm artifact hit would replay
    # stale stats and zero out compile_s, and losing candidates must not
    # pollute the store.
    incumbent_model = compile_composition(
        composition, pipeline=config.incumbent, store=False
    )
    try:
        baseline = raw_buffers(
            incumbent_model, inputs, num_trials, config.run_seed, "compiled"
        )
        base_proof = proof_hash(baseline)

        if config.measure is not None:
            inc_compile_s, inc_run_s = config.measure(config.incumbent, incumbent_model)
        else:
            inc_compile_s = _pipeline_compile_seconds(incumbent_model)
            inc_run_s = _race_seconds(
                incumbent_model, config.engine, inputs, num_trials,
                config.run_seed, config.warmup, config.repeats,
            )
        incumbent_objective = (
            config.compile_weight * inc_compile_s + config.run_weight * inc_run_s
        )
        records = [
            CandidateRecord(
                pipeline=config.incumbent,
                status="incumbent",
                equivalent=True,
                proof=base_proof,
                compile_s=inc_compile_s,
                run_s=inc_run_s,
                objective=incumbent_objective,
            )
        ]

        # -- candidates ----------------------------------------------------
        entries = _split_top_level(
            incumbent_model.pipeline.describe(), "autotune incumbent"
        )
        generate = config.generate or generate_candidates
        candidates = [
            text
            for text in generate(entries, incumbent_model.stats.passes, config.budget)
            if text != config.incumbent
        ]

        searched = 0
        for text in candidates:
            searched += 1
            record = CandidateRecord(pipeline=text, status="error")
            records.append(record)
            try:
                model = compile_composition(composition, pipeline=text, store=False)
            except Exception as exc:  # noqa: BLE001 - a candidate may not compile
                record.detail = f"{type(exc).__name__}: {exc}"
                continue
            try:
                # Equivalence gate: bitwise buffers vs the incumbent, on the
                # representative inputs.
                observed = observe(
                    raw_buffers, model, inputs, num_trials, config.run_seed, "compiled"
                )
                mismatch = compare(baseline, observed, ("incumbent", "candidate"), model)
                if mismatch is not None:
                    record.status = "rejected"
                    record.proof = proof_hash(observed)
                    record.detail = mismatch.detail
                    continue
                record.equivalent = True
                record.proof = base_proof

                # The race: only proven candidates are ever timed.
                if config.measure is not None:
                    compile_s, run_s = config.measure(text, model)
                else:
                    compile_s = _pipeline_compile_seconds(model)
                    run_s = _race_seconds(
                        model, config.engine, inputs, num_trials,
                        config.run_seed, config.warmup, config.repeats,
                    )
                record.status = "equivalent"
                record.compile_s = compile_s
                record.run_s = run_s
                record.objective = (
                    config.compile_weight * compile_s + config.run_weight * run_s
                )
            finally:
                model.close_engines()

        # -- pick the winner (incumbent eligible; ties keep the incumbent) --
        winner = min(
            (r for r in records if r.equivalent),
            key=lambda r: (r.objective, r.status != "incumbent"),
        )
        if winner.status != "incumbent":
            winner.status = "winner"

        result = AutotuneResult(
            winner=winner.pipeline,
            objective=winner.objective,
            incumbent=config.incumbent,
            incumbent_objective=incumbent_objective,
            cache_hit=False,
            searched=searched,
            records=records,
            key=key,
            engine=config.engine,
        )
        if store is not None:
            store.put(key, result.to_payload(config))
        return result
    finally:
        incumbent_model.close_engines()
