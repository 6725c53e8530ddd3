"""The caching :class:`Session` facade and the top-level ``repro.compile``.

A :class:`Session` memoizes compiled artifacts keyed on the *structure* of a
composition (not its object identity), the canonical pipeline text, the
sanitization seed, the verification policy and any auxiliary compile flags.
Grid searches, parameter sweeps and the benchmark harness routinely rebuild
structurally identical models; with a session they compile once::

    import repro
    from repro.models import stroop

    engine = repro.compile(stroop.build_botvinick_stroop(), target="gpu-sim")
    results = engine.run(stroop.default_inputs("incongruent"), num_trials=8)

``repro.compile`` uses a process-wide default session; construct your own
:class:`Session` for isolated caches (e.g. per experiment).
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..cogframe.composition import Composition
from ..passes.pass_manager import (
    FixpointPass,
    PassManager,
    RepeatPass,
    coerce_verify_policy,
)
from . import registry
from .artifacts import normalize_flags, resolve_store, tuned_pipeline_key
from .engines import EngineInstance, get_engine
from .pipeline import resolve_pipeline

__all__ = ["Session", "compile", "default_session", "structural_fingerprint"]


# ---------------------------------------------------------------------------
# Structural fingerprinting
# ---------------------------------------------------------------------------


def _canonical(value) -> object:
    """Reduce an arbitrary model attribute to a hashable canonical form."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, tuple(np.asarray(value, dtype=float).ravel().tolist()))
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canonical(v)) for v in value)))
    if isinstance(value, dict):
        return tuple(sorted((str(k), _canonical(v)) for k, v in value.items()))
    return value


def _function_key(function) -> Tuple:
    return (
        type(function).__name__,
        _canonical(getattr(function, "params", {})),
    )


def _condition_key(condition) -> Tuple:
    """Recursively serialise a scheduling condition."""
    from ..cogframe.conditions import Condition
    from ..cogframe.mechanisms import Mechanism

    parts = []
    for key, value in sorted(vars(condition).items()):
        if isinstance(value, Condition):
            parts.append((key, _condition_key(value)))
        elif isinstance(value, (list, tuple)) and any(isinstance(v, Condition) for v in value):
            parts.append((key, tuple(_condition_key(v) for v in value)))
        elif isinstance(value, Mechanism):
            parts.append((key, ("node", value.name)))
        else:
            parts.append((key, _canonical(value)))
    return (type(condition).__name__, tuple(parts))


def _mechanism_key(mechanism) -> Tuple:
    from ..cogframe.mechanisms import GridSearchControlMechanism

    key = [
        type(mechanism).__name__,
        mechanism.name,
        tuple((port.name, int(port.size)) for port in mechanism.input_ports),
        _function_key(mechanism.function),
    ]
    if isinstance(mechanism, GridSearchControlMechanism):
        key.append(_canonical(mechanism.levels))
        key.append(mechanism.objective_step)
        key.append(
            tuple(
                (_mechanism_key(step.mechanism), _canonical(step.sources))
                for step in mechanism.steps
            )
        )
    return tuple(key)


def structural_fingerprint(composition: Composition) -> str:
    """A hex digest identifying a composition's structure.

    Two compositions built by the same code path (same nodes, functions,
    parameters, projections, conditions and scheduling limits) produce the
    same fingerprint even though they are distinct objects — this is what
    lets :class:`Session` reuse compiled artifacts across rebuilds.
    """
    key = (
        composition.name,
        tuple(_mechanism_key(m) for _, m in sorted(composition.mechanisms.items())),
        tuple(
            (
                p.sender.name,
                p.receiver.name,
                p.port,
                _canonical(p.matrix),
                _canonical(p.sender_slice),
            )
            for p in composition.projections
        ),
        tuple(sorted((name, _condition_key(c)) for name, c in composition.conditions.items())),
        _condition_key(composition.termination),
        int(composition.max_passes),
        tuple(composition.input_nodes),
        tuple(composition.output_nodes),
        tuple(composition.monitored_nodes),
    )
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


def _pass_struct(pass_) -> object:
    """Structural identity of a pass for cache keying.

    ``PassManager.describe()`` alone is not sufficient: a hand-built pass
    that never went through the registry has no ``pipeline_repr`` and would
    describe as its bare name, collapsing differently-parameterised
    pipelines onto one key.  This walks the actual objects instead.
    """
    if isinstance(pass_, PassManager):
        return ("pipeline", tuple(_pass_struct(p) for p in pass_.passes))
    if isinstance(pass_, RepeatPass):
        return ("repeat", pass_.iterations, _pass_struct(pass_.inner))
    if isinstance(pass_, FixpointPass):
        return ("fixpoint", pass_.max_iterations, _pass_struct(pass_.inner))
    attrs = tuple(
        sorted(
            (key, repr(_canonical(value)))
            for key, value in vars(pass_).items()
            if key != "pipeline_repr" and not key.startswith("_") and not callable(value)
        )
    )
    return (type(pass_).__module__, type(pass_).__qualname__, attrs)


def _pipeline_fingerprint(pipeline: PassManager) -> str:
    return repr(_pass_struct(pipeline))


def _model_key(
    fingerprint: str, pipeline_fp: str, seed: int, policy: str, flags
) -> Tuple:
    """The key a compiled model is cached under in :attr:`Session._models`."""
    return (fingerprint, pipeline_fp, int(seed), policy, normalize_flags(flags))


#: Entries kept in :attr:`Session._pipeline_fingerprints` before it is
#: cleared: the memo is keyed by raw client text, so whitespace variants of
#: one pipeline would otherwise each hold an entry for the daemon's lifetime.
_PIPELINE_MEMO_LIMIT = 256


class Session:
    """A compilation session with artifact memoization.

    ``compile_model`` returns the cached :class:`CompiledModel` for a
    structurally identical request; ``compile`` additionally binds the model
    to a target engine from the backend registry and returns a ready-to-run
    :class:`EngineInstance`.  Both are thread-safe.
    """

    def __init__(self, verify: str = "boundary", store=None):
        self.default_verify = coerce_verify_policy(verify)
        #: Artifact-store selector forwarded to every compile: ``None``
        #: consults ``REPRO_ARTIFACT_DIR``, ``False`` disables the store, a
        #: path or :class:`~repro.driver.artifacts.ArtifactStore` uses that
        #: store (see :func:`repro.driver.artifacts.resolve_store`).
        self.store = store
        self._lock = threading.RLock()
        #: key -> (model, ``model.edits`` when stored).  An edit made on the
        #: model itself (``set_parameter``, ``recompile``) moves its count,
        #: so the entry stops serving the pre-edit key without the lookup
        #: re-fingerprinting the model.
        self._models: Dict[Tuple, Tuple[object, int]] = {}
        #: (pipeline text, verify policy, registry generation) -> pipeline
        #: fingerprint: a textual pipeline seen before keys a lookup without
        #: being parsed.  Fingerprints, not managers, are memoized: a
        #: ``FixpointPass`` carries run state, so every compile gets a fresh
        #: parse.
        self._pipeline_fingerprints: Dict[Tuple[str, str, int], str] = {}
        self.hits = 0
        self.misses = 0
        #: Tuned-pipeline counters: ``tuned_hits``/``tuned_misses`` count
        #: ``pipeline="auto"`` resolutions against the persisted autotune
        #: cache; ``autotune_searches``/``autotune_cached`` count
        #: :meth:`autotune` calls that ran a fresh search vs were served a
        #: stored winner.  Surfaced by :meth:`cache_info` (and therefore the
        #: serving daemon's ``stats`` op).
        self.tuned_hits = 0
        self.tuned_misses = 0
        self.autotune_searches = 0
        self.autotune_cached = 0

    # -- compilation -------------------------------------------------------------
    def _pipeline_key(
        self, pipeline: Union[str, PassManager], verify: Optional[str]
    ) -> Tuple[Optional[PassManager], str, str]:
        """``(manager, pipeline fingerprint, verify policy)`` of a request.

        ``manager`` is ``None`` when a textual pipeline's fingerprint was
        memoized: a cache hit then never parses it.
        """
        if not isinstance(pipeline, str):
            # A prebuilt manager (or a malformed value, which resolve_pipeline
            # rejects with PipelineParseError) is resolved per call.
            manager = resolve_pipeline(
                pipeline, verify=verify, default_policy=self.default_verify
            )
            return manager, _pipeline_fingerprint(manager), manager.verify
        policy = coerce_verify_policy(self.default_verify if verify is None else verify)
        memo_key = (pipeline, policy, registry.generation())
        fingerprint = self._pipeline_fingerprints.get(memo_key)
        if fingerprint is not None:
            return None, fingerprint, policy
        manager = resolve_pipeline(pipeline, verify=policy)
        fingerprint = _pipeline_fingerprint(manager)
        with self._lock:
            if len(self._pipeline_fingerprints) >= _PIPELINE_MEMO_LIMIT:
                self._pipeline_fingerprints.clear()
            self._pipeline_fingerprints[memo_key] = fingerprint
        return manager, fingerprint, policy

    def compile_model(
        self,
        composition: Composition,
        pipeline: Union[str, PassManager] = "default<O2>",
        seed: int = 0,
        verify: Optional[str] = None,
        flags: Optional[Dict[str, object]] = None,
        fingerprint: Optional[str] = None,
    ):
        """Compile (or fetch from cache) a composition; returns a
        :class:`repro.core.distill.CompiledModel`.

        With ``verify=None`` a textual pipeline gets the session's default
        policy and a prebuilt :class:`PassManager` keeps its own; an
        explicit policy always wins (the manager is rewrapped, not mutated).

        ``fingerprint`` is the caller's cached
        ``structural_fingerprint(composition)``; passing it makes a hit on a
        textual pipeline seen before a dict lookup.  It must describe
        ``composition`` as it is now: a caller that edits a composition in
        place recomputes it.

        Every (non-memoized) compile owns a fresh
        :class:`repro.analysis.manager.AnalysisManager`, so analyses are
        cached across the pipeline's passes; pass
        ``flags={"analysis_cache": False}`` to compile cold (and get a
        distinct cache key, since flags participate in it).
        """
        from ..core.distill import compile_composition

        if pipeline == "auto":
            pipeline = self.resolve_auto_pipeline(composition)
        if fingerprint is None:
            fingerprint = structural_fingerprint(composition)
        manager, pipeline_fp, policy = self._pipeline_key(pipeline, verify)
        key = _model_key(fingerprint, pipeline_fp, seed, policy, flags)
        with self._lock:
            model = self._unedited(key)
            if model is not None:
                self.hits += 1
                return model
        if manager is None:
            manager = resolve_pipeline(pipeline, verify=policy)
        # Compile outside the lock: compilation can take seconds and other
        # threads may be compiling unrelated models meanwhile.
        model = compile_composition(
            composition, pipeline=manager, seed=seed, flags=flags, store=self.store
        )
        with self._lock:
            winner = self._unedited(key)
            if winner is not None:
                self.hits += 1
                return winner
            self._models[key] = (model, model.edits)
            self.misses += 1
        return model

    def _unedited(self, key: Tuple):
        """The model cached under ``key``, unless it was edited since."""
        entry = self._models.get(key)
        if entry is not None and entry[0].edits == entry[1]:
            return entry[0]
        return None

    def compile(
        self,
        composition: Composition,
        target: str = "compiled",
        pipeline: Union[str, PassManager] = "default<O2>",
        seed: int = 0,
        verify: Optional[str] = None,
        flags: Optional[Dict[str, object]] = None,
        fingerprint: Optional[str] = None,
    ) -> EngineInstance:
        """Compile a composition and bind it to ``target``; returns an
        :class:`EngineInstance` whose ``run(inputs, num_trials)`` executes
        trials on that engine.  ``fingerprint`` is as in
        :meth:`compile_model`."""
        get_engine(target)  # validate the target before compiling
        if pipeline == "auto":
            # Tuned pipelines are cached per engine: resolve against the
            # race's target so a lane-tuned winner never leaks to "compiled".
            pipeline = self.resolve_auto_pipeline(composition, engine=target)
        model = self.compile_model(
            composition,
            pipeline=pipeline,
            seed=seed,
            verify=verify,
            flags=flags,
            fingerprint=fingerprint,
        )
        # Bindings are memoized on the model itself, so the session, direct
        # `model.run(engine=...)` calls and other sessions holding the same
        # cached model all share one instance (and one worker pool).
        return model.engine_instance(target)

    def run_batch(
        self,
        composition: Composition,
        inputs_batch,
        target: str = "compiled",
        num_trials=None,
        seed=0,
        pipeline: Union[str, PassManager] = "default<O2>",
        compile_seed: int = 0,
        verify: Optional[str] = None,
        flags: Optional[Dict[str, object]] = None,
        **options,
    ):
        """Compile (cached) and execute many input batches in one call.

        ``inputs_batch`` is a sequence of ``inputs`` values as accepted by
        :meth:`EngineInstance.run`; ``num_trials`` and ``seed`` (the *run*
        seed — ``compile_seed`` is the sanitization seed) may be scalars or
        per-element sequences.  Returns one :class:`RunResults` per element,
        bitwise identical to looping ``run`` over the elements — parallel
        targets batch the elements' grid evaluations into shared pool
        dispatches (see DESIGN.md, "Parallel grid search").
        """
        instance = self.compile(
            composition,
            target=target,
            pipeline=pipeline,
            seed=compile_seed,
            verify=verify,
            flags=flags,
        )
        return instance.run_batch(
            inputs_batch, num_trials=num_trials, seed=seed, **options
        )

    # -- pipeline autotuning -------------------------------------------------------
    def resolve_auto_pipeline(self, composition: Composition, engine: str = "compiled") -> str:
        """Resolve ``pipeline="auto"`` to this model shape's tuned pipeline.

        Looks up the persisted autotune winner for (structural fingerprint,
        ``engine``, the default objective) in the session's artifact store;
        on a miss — no store, never tuned, or a stale/corrupt entry — falls
        back to the incumbent ``default<O2>``.  Zero search cost either way:
        resolution is one store read.
        """
        from .autotune import AutotuneConfig, result_from_payload

        config = AutotuneConfig(engine=engine)
        store = resolve_store(self.store)
        if store is not None:
            key = tuned_pipeline_key(composition, engine, config.objective_id())
            result = result_from_payload(store.get(key), key)
            if result is not None:
                with self._lock:
                    self.tuned_hits += 1
                return result.winner
        with self._lock:
            self.tuned_misses += 1
        return config.incumbent

    def autotune(
        self,
        composition: Union[str, Composition],
        budget: Optional[int] = None,
        inputs=None,
        num_trials: Optional[int] = None,
        engine: str = "compiled",
        config=None,
        force: bool = False,
    ):
        """Search for the fastest equivalence-proven pipeline for a model.

        ``composition`` may be a :class:`Composition` (then ``inputs`` is
        required — the representative workload the equivalence proof and the
        race run) or a registered model name (inputs and trial count default
        to the registry entry's).  Returns an :class:`repro.driver.autotune.
        AutotuneResult`; the winner plus provenance is persisted in the
        session's artifact store, so later ``compile(pipeline="auto")`` calls
        — in this session, a fresh one, or the serving daemon — pick it up
        with zero search cost.  A persisted winner short-circuits the search
        (``result.cache_hit``) unless ``force`` is set.
        """
        from .autotune import AutotuneConfig, run_autotune

        if isinstance(composition, str):
            from ..models import get_model

            entry = get_model(composition)
            composition = entry.build()
            if inputs is None:
                inputs = entry.inputs()
                if num_trials is None:
                    num_trials = entry.num_trials
        if inputs is None:
            raise ValueError(
                "autotune needs representative inputs; pass inputs=... or a "
                "registered model name"
            )
        if config is None:
            config = AutotuneConfig(engine=engine)
        if budget is not None:
            config = dataclasses.replace(config, budget=int(budget))
        result = run_autotune(
            composition,
            inputs,
            num_trials=num_trials if num_trials is not None else 1,
            config=config,
            store=self.store,
            force=force,
        )
        with self._lock:
            if result.cache_hit:
                self.autotune_cached += 1
            else:
                self.autotune_searches += 1
        return result

    def recompile(self, model, composition=None, changed=None) -> Dict[str, object]:
        """Incrementally recompile a cached model after an edit, re-keying it.

        Delegates to :meth:`CompiledModel.recompile` (patch-in-place with a
        full-compile fallback), then moves the model's cache entry to the
        key of its post-edit composition: the pre-edit key must not serve a
        model whose parameters have moved, and a later request for the
        edited structure should hit.  The recompile itself drops the model's
        stale engine bindings.
        """
        report = model.recompile(
            composition=composition, changed=changed, store=self.store
        )
        with self._lock:
            for key, (cached, _) in list(self._models.items()):
                if cached is model:
                    del self._models[key]
            new_key = _model_key(
                structural_fingerprint(model.composition),
                _pipeline_fingerprint(model.pipeline),
                model.seed,
                model.pipeline.verify,
                model.flags,
            )
            self._models[new_key] = (model, model.edits)
        return report

    # -- static safety suite -------------------------------------------------------
    def lint(
        self,
        composition: Union[str, Composition],
        pipeline: Union[str, PassManager] = "default<O2>",
        seed: int = 0,
        verify: Optional[str] = None,
        flags: Optional[Dict[str, object]] = None,
        checks=None,
    ):
        """Compile (cached) and run the static safety suite over the IR.

        ``composition`` may be a :class:`Composition` or a registered model
        name.  Returns a :class:`repro.lint.LintReport`; ``report.ok`` is
        True when no finding reaches the default gate severity.  The compile
        goes through the session cache, so linting a model you already ran
        costs only the analyses.
        """
        from ..lint import LintReport, run_lint

        if isinstance(composition, str):
            from ..models import get_model

            entry = get_model(composition)
            name = entry.name
            composition = entry.build()
        else:
            name = composition.name
        model = self.compile_model(
            composition, pipeline=pipeline, seed=seed, verify=verify, flags=flags
        )
        if not isinstance(pipeline, str):
            pipeline = pipeline.describe()
        return LintReport(
            module_name=name,
            diagnostics=run_lint(model.module, checks=checks),
            pipeline=pipeline,
        )

    # -- cache management ----------------------------------------------------------
    def _cached_models(self) -> List[object]:
        with self._lock:
            return [model for model, _ in self._models.values()]

    def cache_info(self) -> Dict[str, object]:
        """Cache counters; ``instances`` counts the engine bindings the
        cached models hold."""
        instances = sum(len(model._engine_instances) for model in self._cached_models())
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "models": len(self._models),
                "instances": instances,
                "tuned": {
                    "hits": self.tuned_hits,
                    "misses": self.tuned_misses,
                    "searches": self.autotune_searches,
                    "cached_results": self.autotune_cached,
                },
            }

    def close(self) -> None:
        """Release engine-held resources (worker pools) of cached models."""
        for model in self._cached_models():
            model.close_engines()

    def clear(self) -> None:
        self.close()
        with self._lock:
            self._models.clear()
            self._pipeline_fingerprints.clear()
            self.hits = 0
            self.misses = 0
            self.tuned_hits = 0
            self.tuned_misses = 0
            self.autotune_searches = 0
            self.autotune_cached = 0

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_DEFAULT_SESSION: Optional[Session] = None
_DEFAULT_LOCK = threading.Lock()


def default_session() -> Session:
    """The process-wide session backing :func:`repro.compile`."""
    global _DEFAULT_SESSION
    with _DEFAULT_LOCK:
        if _DEFAULT_SESSION is None:
            _DEFAULT_SESSION = Session()
        return _DEFAULT_SESSION


def compile(
    composition: Composition,
    target: str = "compiled",
    pipeline: Union[str, PassManager] = "default<O2>",
    seed: int = 0,
    verify: Optional[str] = None,
    flags: Optional[Dict[str, object]] = None,
) -> EngineInstance:
    """Compile ``composition`` and bind it to ``target`` (``repro.compile``).

    Equivalent to ``default_session().compile(...)``: repeated calls with a
    structurally identical model, pipeline, seed and flags reuse the cached
    artifacts instead of recompiling.
    """
    return default_session().compile(
        composition, target=target, pipeline=pipeline, seed=seed, verify=verify, flags=flags
    )
