"""Distill's compilation core: lower a composition to IR and run it.

Typical usage goes through the driver facade (see DESIGN.md)::

    import repro
    from repro.models.predator_prey import build_predator_prey, default_inputs

    model = build_predator_prey("m")
    engine = repro.compile(model, target="compiled", pipeline="default<O2>")
    results = engine.run(default_inputs(4), num_trials=16)

This module holds the actual compilation stages
(:func:`compile_composition`) and the :class:`CompiledModel` artifact
bundle.

The compiled model exposes the same result structure as the interpretive
reference runner, so downstream analysis code does not care which engine
produced the numbers (paper design principle 1: no model changes).
"""

from __future__ import annotations

import marshal
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backends.pycodegen import PythonCodeGenerator, exec_code, reachable_functions
from ..cogframe.composition import Composition
from ..cogframe.runner import RunResults, TrialResult, normalize_inputs
from ..cogframe.sanitize import SanitizationInfo, sanitize
from ..driver.engines import get_engine
from ..driver.pipeline import resolve_pipeline
from ..ir.module import Module
from ..passes.pass_manager import PassManager
from .codegen import CompiledArtifacts, generate_model_ir
from .structs import StaticLayout, build_layout

#: Layout version of model entries in the artifact store; bump it when their
#: fields change.  An entry of any other format reads as a miss.
MODEL_ENTRY_FORMAT = 2

#: The function the ``compiled`` engine calls.  A compile lowers the *entry
#: set* (the defined functions reachable through calls from it); every other
#: function lowers on first use (:meth:`CompiledModel.function`).
ENTRY_FUNCTION = "run_model"


@dataclass
class CompileStats:
    """Wall-clock breakdown of a compilation (Figure 7 "Compilation" bars)."""

    sanitize_seconds: float = 0.0
    layout_seconds: float = 0.0
    codegen_seconds: float = 0.0
    optimize_seconds: float = 0.0
    lower_seconds: float = 0.0
    instructions_before: int = 0
    instructions_after: int = 0
    #: Analysis-manager cache counters for the optimisation pipeline (hits
    #: are analyses served from cache, misses were computed; skipped_passes
    #: counts per-function pass visits elided by clean-run records).
    analysis_hits: int = 0
    analysis_misses: int = 0
    analysis_invalidations: int = 0
    analysis_skipped_passes: int = 0
    #: Computations per analysis name (``{"domtree": 3, ...}``).
    analysis_computed: Dict[str, int] = field(default_factory=dict)
    #: Every leaf pass run of the optimisation pipeline, per pass name:
    #: ``{name: {"seconds", "runs", "changed", "noops"}}`` (see
    #: ``AnalysisManager.record_pass``).  Work inside ``repeat``/``fixpoint``
    #: and sub-pipelines is credited to the leaf passes that did it.  Empty
    #: when a store hit skipped the pipeline.
    passes: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Artifact-store counters for this compile: ``artifact_hits`` counts
    #: store entries that skipped work (a model-entry hit skips sanitize
    #: through codegen entirely; an optimize-entry hit skips the pipeline),
    #: ``artifact_misses`` counts lookups that fell through to a real
    #: compile, ``artifact_writes`` counts entries published, and
    #: ``artifact_patches`` counts functions replaced in-place by
    #: incremental recompiles of this model.
    artifact_hits: int = 0
    artifact_misses: int = 0
    artifact_writes: int = 0
    artifact_patches: int = 0
    #: Wall-clock spent in incremental recompiles of this model (cumulative).
    recompile_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.sanitize_seconds
            + self.layout_seconds
            + self.codegen_seconds
            + self.optimize_seconds
            + self.lower_seconds
        )


class CompiledModel:
    """A composition compiled to IR plus the drivers for every engine."""

    def __init__(
        self,
        composition: Composition,
        info: SanitizationInfo,
        layout: StaticLayout,
        artifacts: CompiledArtifacts,
        stats: CompileStats,
        compiled_functions: Dict[str, object],
        pipeline: Optional[PassManager] = None,
        flags: Optional[Dict[str, object]] = None,
        seed: int = 0,
    ):
        self.composition = composition
        self.info = info
        self.layout = layout
        self.artifacts = artifacts
        self._module_lock = threading.Lock()
        self.pipeline = pipeline
        self.pipeline_text = pipeline.describe() if pipeline is not None else ""
        self.flags = dict(flags or {})
        self.seed = int(seed)
        self.stats = stats
        #: Edits applied to this model by :func:`repro.core.patch.recompile_model`
        #: (every path); a :class:`repro.Session` entry stored at another
        #: count no longer serves its key.
        self.edits = 0
        #: The generated Python source of the entry set (stored so the
        #: artifact store can replay it without re-lowering).  ``None`` once
        #: a patch has relinked the compiled callables.
        self.source: Optional[str] = None
        #: The generated source of the functions lowered on first use
        #: (:meth:`function`); it links against :attr:`source`'s callables.
        self.rest_source: Optional[str] = None
        #: Per-function *compile unit* keys of the pre-optimization module
        #: (see :func:`repro.driver.artifacts.unit_fingerprints`); describes
        #: the original full compile and is what the optimize-artifact entry
        #: was keyed on.
        self.unit_fingerprints: Dict[str, str] = {}
        #: Per-function structural fingerprints of the pre-optimization
        #: module.  The incremental recompiler compares freshly regenerated
        #: functions against these to classify an edit as param-buffer-only
        #: (identical IR) versus requiring a re-lower.
        self.function_fingerprints: Dict[str, str] = {}
        self._compiled = compiled_functions
        self._lower_lock = threading.Lock()
        #: (exec namespace, {Python name: IR name}) of calls that
        #: :meth:`exec_linked` bound to call-through stubs; lowering the
        #: rest rebinds them to the lowered callables.
        self._deferred_links: List[Tuple[Dict[str, object], Dict[str, str]]] = []
        self._engine_instances: Dict[str, object] = {}
        self._engine_lock = threading.Lock()
        #: The Python scheduler's :class:`~repro.backends.grid_driver.
        #: GridDriverPlan`, built on first use and retired with the engine
        #: bindings by an incremental recompile.
        self._grid_driver_plan = None

    # -- introspection -------------------------------------------------------------
    @property
    def module(self) -> Module:
        """The optimized IR module.

        A model rebuilt from a store hit holds the module as the pickled
        bytes of its :func:`~repro.ir.serialize.encode_module` payload until
        the first read: the ``compiled`` engine never needs the IR, so only
        engines and tools that do pay for the decode, once.
        """
        module = self.artifacts.module
        if isinstance(module, Module):
            return module
        with self._module_lock:
            module = self.artifacts.module
            if not isinstance(module, Module):
                from ..ir import serialize

                module = serialize.decode_module(pickle.loads(module))
                self.artifacts.module = module
        return module

    @module.setter
    def module(self, module: Module) -> None:
        self.artifacts.module = module

    def print_ir(self) -> str:
        from ..ir.printer import print_module

        return print_module(self.module)

    def function(self, name: str):
        """The compiled Python callable for an IR function.

        A compile lowers only the entry set; the first lookup of any other
        function lowers all of the rest (:meth:`lower_rest`).
        """
        compiled = self._compiled.get(name)
        if compiled is None:
            self.lower_rest()
            compiled = self._compiled[name]
        return compiled

    def lower_rest(self) -> None:
        """Lower every defined function not lowered yet, in one generator
        pass over the optimized IR, linked against the lowered callables.

        On a store hit this decodes the module; afterwards it is a no-op
        until an incremental recompile drops functions it did not relower.
        """
        with self._lower_lock:
            module = self.module
            lowered = self._compiled
            rest = [fn for fn in module.defined_functions() if fn.name not in lowered]
            if not rest:
                return
            generator = PythonCodeGenerator(
                module, sanitize=bool(self.flags.get("sanitize", False)), functions=rest
            )
            source = generator.generate_source()
            lowered.update(self.exec_linked(generator, source))
            self.rest_source = source
            for namespace, names in self._deferred_links:
                for py_name, name in names.items():
                    namespace[py_name] = lowered[name]
            self._deferred_links.clear()

    def exec_linked(self, generator: PythonCodeGenerator, source: str) -> Dict[str, object]:
        """Exec ``generator``'s ``source``, linking the calls it makes to
        functions it does not define (``generator.links``) to this model's
        callables; returns the new callables by IR name.

        A function not lowered yet links to a call-through stub: its first
        call lowers the rest, which rebinds the name in this namespace to
        the lowered callable, so code linked now (an incremental
        recompile's) pays for the rest on first use, as a compile does.
        """
        symbols: Dict[str, object] = {}
        deferred: Dict[str, str] = {}
        for name, py_name in generator.links.items():
            callable_ = self._compiled.get(name)
            if callable_ is None:
                callable_ = self._call_through(name)
                deferred[py_name] = name
            symbols[py_name] = callable_
        compiled = generator.exec_source(source, symbols)
        if deferred:
            self._deferred_links.append((generator.namespace, deferred))
        return compiled

    def _call_through(self, name: str):
        def call_through(*args):
            return self.function(name)(*args)

        return call_through

    @property
    def grid_searches(self):
        return self.artifacts.grid_searches

    # -- buffers ---------------------------------------------------------------------
    def allocate_buffers(
        self,
        inputs: Sequence,
        num_trials: Optional[int],
        seed: int,
        flattened: Optional[Dict[int, Tuple[List[float], int]]] = None,
    ):
        """Fresh buffers for ``num_trials`` trials of ``inputs`` (``None``: one
        per input row).  ``flattened`` memoises the normalised, flattened
        inputs by object identity across the elements of one batch; every
        buffer set still gets its own ``inputs`` list."""
        layout = self.layout
        memo = flattened.get(id(inputs)) if flattened is not None else None
        if memo is None:
            input_sets = normalize_inputs(self.composition, inputs)
            flat_inputs: List[float] = []
            for entry in input_sets:
                row = [0.0] * max(layout.input_size, 1)
                for name, (offset, size) in layout.input_layout.items():
                    values = np.asarray(entry[name], dtype=float).ravel()
                    row[offset : offset + size] = [float(v) for v in values]
                flat_inputs.extend(row)
            memo = (flat_inputs or [0.0], len(input_sets))
            if flattened is not None:
                flattened[id(inputs)] = memo
        flat_inputs, rows = memo
        if num_trials is None:
            num_trials = rows
        return {
            "params": layout.allocate_params(),
            "state": layout.allocate_state(seed),
            "prev": layout.allocate_outputs(),
            "cur": layout.allocate_outputs(),
            "inputs": list(flat_inputs),
            "results": [0.0] * max(num_trials * layout.result_record_size(), 1),
            "monitor": [0.0] * max(num_trials * layout.monitor_record_size(), 1),
            "rows": rows,
        }

    def _collect_results(self, buffers, num_trials: int, engine: str) -> RunResults:
        """Wrap the filled ``results``/``monitor`` buffers as a :class:`RunResults`.

        Each buffer becomes one float64 array; every output is a slice of its
        trial's record and every monitored step a row of its trial's block,
        so the arrays handed out are views (copy one to own it).
        """
        layout = self.layout
        results = RunResults(model_name=self.composition.name, engine=engine)
        record_size = layout.result_record_size()
        flat = buffers["results"][: num_trials * record_size]
        records = np.array(flat, dtype=float)
        passes_run = list(map(int, flat[layout.result_size :: record_size]))
        monitor_size = layout.monitor_size
        if monitor_size:
            # Convert only the steps that ran: a trial reserves max_passes
            # steps, and one that terminates early leaves most of them unused.
            steps = max(passes_run, default=0)
            stride, used = layout.max_passes * monitor_size, steps * monitor_size
            monitor = buffers["monitor"]
            blocks = np.array(
                [monitor[t * stride : t * stride + used] for t in range(num_trials)],
                dtype=float,
            ).reshape(num_trials, steps, monitor_size)
        for trial, passes in enumerate(passes_run):
            base = trial * record_size
            outputs = {
                name: records[base + offset : base + offset + size]
                for name, (offset, size) in layout.result_layout.items()
            }
            monitored: Dict[str, List[np.ndarray]] = {}
            if monitor_size:
                block = blocks[trial, :passes]
                for name, (offset, size) in layout.monitor_layout.items():
                    monitored[name] = list(block[:, offset : offset + size])
            results.trials.append(TrialResult(outputs=outputs, passes=passes, monitored=monitored))
        return results

    # -- execution ----------------------------------------------------------------------
    def run(
        self,
        inputs: Sequence,
        num_trials: Optional[int] = None,
        seed: int = 0,
        engine: str = "compiled",
        workers: Optional[int] = None,
    ) -> RunResults:
        """Run the compiled model.

        ``engine`` selects the execution strategy:

        * ``"compiled"``   — whole-model compiled code (CPython-DISTILL);
        * ``"ir-interp"``  — the per-instruction IR interpreter (generic-JIT
          stand-in baseline);
        * ``"per-node"``   — compiled nodes, Python scheduling
          (CPython-DISTILL-per-node, Figure 5b);
        * ``"mcpu"``       — gpu-sim's grid kernel, each launch's lanes split
          across worker processes (DISTILL-mCPU, Figure 5c);
        * ``"gpu-sim"``    — data-parallel SIMT simulation of the evaluation
          kernel (DISTILL-GPU, Figures 5c and 6).

        Engines are resolved through the driver's backend registry
        (:mod:`repro.driver.engines`), so backends registered by user code
        are accepted as well; :func:`repro.list_engines` enumerates them.

        Engine bindings are memoized per model (:meth:`engine_instance`), so
        consecutive ``run`` calls reuse persistent engine state — notably the
        mcpu worker pool and the lane program gpu-sim and mcpu run.
        """
        instance = self.engine_instance(engine)
        options: Dict[str, object] = {}
        if workers is not None:
            options["workers"] = workers
        return instance.run(inputs, num_trials=num_trials, seed=seed, **options)

    def run_batch(
        self,
        inputs_batch: Sequence[Sequence],
        num_trials: Union[int, Sequence[Optional[int]], None] = None,
        seed: Union[int, Sequence[int]] = 0,
        engine: str = "compiled",
        workers: Optional[int] = None,
    ) -> List[RunResults]:
        """Run several independent input batches against this compiled model.

        Semantically equivalent to one :meth:`run` per element (results are
        bitwise identical); parallel engines execute the elements in lockstep
        and dispatch the whole batch's grid evaluations per scheduler step in
        one pool round-trip.  See :meth:`EngineInstance.run_batch`.
        """
        instance = self.engine_instance(engine)
        options: Dict[str, object] = {}
        if workers is not None:
            options["workers"] = workers
        return instance.run_batch(
            inputs_batch, num_trials=num_trials, seed=seed, **options
        )

    def engine_instance(self, engine: str = "compiled"):
        """The cached :class:`EngineInstance` binding this model to ``engine``.

        One instance exists per (model, engine name); it owns whatever
        persistent state the engine keeps between runs (worker pools,
        vectorised lane state).  Use :meth:`close_engines` to release that
        state explicitly.
        """
        with self._engine_lock:
            instance = self._engine_instances.get(engine)
        if instance is not None:
            return instance
        prepared = get_engine(engine).prepare(self)
        with self._engine_lock:
            instance = self._engine_instances.setdefault(engine, prepared)
        if instance is not prepared:
            prepared.close()  # lost the race; drop the duplicate's resources
        return instance

    def close_engines(self) -> None:
        """Release resources held by cached engine instances (worker pools)."""
        with self._engine_lock:
            instances = list(self._engine_instances.values())
        for instance in instances:
            instance.close()

    # -- incremental recompilation ------------------------------------------------
    def recompile(self, composition=None, changed=None, store=None):
        """Re-lower only the functions affected by an edit, in place.

        ``composition`` is an edited composition (defaults to this model's
        own, for in-place edits made through :meth:`set_parameter` /
        :meth:`set_projection_matrix`); ``changed`` optionally names the
        edited mechanisms explicitly, skipping the structural diff.  When the
        edit is layout-compatible, only the changed node functions and the
        (cheap) scheduler functions are regenerated and patched into the
        live artifact; otherwise this transparently falls back to a full
        compile and adopts its result.  Either way ``self`` remains the
        valid handle.  Returns a report dict (see
        :func:`repro.core.patch.recompile_model`).
        """
        from .patch import recompile_model

        return recompile_model(self, composition=composition, changed=changed, store=store)

    def set_parameter(self, node: str, param: str, value) -> Dict[str, object]:
        """Edit one function parameter of ``node`` and incrementally recompile."""
        mech = self.composition.mechanisms[node]
        if param not in mech.function.params:
            raise KeyError(f"mechanism {node!r} has no parameter {param!r}")
        mech.function.params[param] = value
        return self.recompile(changed={node})

    def set_projection_matrix(
        self, sender: str, receiver: str, matrix, port: str = "input"
    ) -> Dict[str, object]:
        """Edit a projection's matrix and incrementally recompile the receiver."""
        for projection in self.composition.projections:
            if (
                projection.sender.name == sender
                and projection.receiver.name == receiver
                and projection.port == port
            ):
                projection.matrix = matrix
                # Only the receiver's node function bakes the matrix.
                return self.recompile(changed={receiver})
        raise KeyError(f"no projection {sender!r} -> {receiver!r}.{port}")

    # -- engine implementations --------------------------------------------------------------
    def _model_args(self, buffers, num_trials: int):
        return [
            (buffers["params"], 0),
            (buffers["state"], 0),
            (buffers["prev"], 0),
            (buffers["cur"], 0),
            (buffers["inputs"], 0),
            (buffers["results"], 0),
            (buffers["monitor"], 0),
            num_trials,
            buffers["rows"],
        ]

    def _run_whole_compiled(self, buffers, num_trials: int) -> None:
        run_model = self._compiled[ENTRY_FUNCTION]
        run_model(*self._model_args(buffers, num_trials))


def compile_composition(
    composition: Composition,
    pipeline: Union[str, PassManager] = "default<O2>",
    seed: int = 0,
    verify: Optional[str] = None,
    flags: Optional[Dict[str, object]] = None,
    store=None,
) -> CompiledModel:
    """Compile ``composition`` with Distill.

    The stages mirror the paper: sanitization-run mining (types and shapes),
    static data-structure conversion, IR generation for every node and the
    scheduler, the optimisation ``pipeline`` (a textual description such as
    ``"default<O2>,licm"`` or a prebuilt :class:`PassManager`) and lowering
    to the execution engines.  Lowering covers the entry set, the functions
    ``run_model`` reaches; every other function lowers on first use
    (:meth:`CompiledModel.function`).

    ``store`` selects the content-addressed artifact store (see
    :mod:`repro.driver.artifacts`): ``None`` consults the
    ``REPRO_ARTIFACT_DIR`` environment variable, ``False`` disables the
    store, a path or :class:`~repro.driver.artifacts.ArtifactStore` uses
    that store.  On a model-entry hit the whole compile — sanitize, layout,
    IR generation, optimisation and lowering — is replaced by unmarshalling
    the stored bytecode of the generated Python and executing it; the
    optimized IR stays encoded until an engine or tool reads
    :attr:`CompiledModel.module` (the ``compiled`` engine never does).  The
    bytecode is only valid for one interpreter version, so
    ``importlib.util.MAGIC_NUMBER`` is part of every store key.  On an
    optimize-entry hit (same IR under a different model key, e.g. a sibling
    model differing only in plain parameter values) only the optimisation
    pipeline is skipped.

    ``verify`` is the module-verification policy (``"each"``, ``"boundary"``
    or ``"off"``).  With the default ``None``, a textual pipeline gets
    ``"boundary"`` (verify once after IR generation and once after the last
    pass, not after every pass) and a prebuilt :class:`PassManager` keeps
    its own policy.  An explicit policy always wins; a caller-supplied
    manager is then rewrapped rather than mutated.

    ``flags`` is an optional mapping of auxiliary compilation options
    (``analysis_cache``, ``sanitize``; an unknown flag raises
    :class:`ValueError`); it is recorded on the returned model and
    participates in :class:`repro.Session` cache keys.

    Each compile owns one :class:`repro.analysis.manager.AnalysisManager`:
    analyses (dominator trees, loop info, ...) computed by one pass are
    reused by later passes until invalidated.  Its counters and its per-pass
    run record are copied into :class:`CompileStats` (``analysis_*`` and
    ``passes``, reported by the Figure 7 harness).
    Pass ``flags={"analysis_cache": False}`` for the cold reference
    configuration that recomputes every analysis per pass — used by the
    differential tests and benchmarks.
    """
    from ..analysis.manager import AnalysisManager
    from ..driver.artifacts import (
        model_artifact_key,
        normalize_flags,
        optimize_artifact_key,
        resolve_store,
        unit_fingerprints,
    )
    from ..driver.session import _pipeline_fingerprint
    from ..ir.fingerprint import function_fingerprint
    from ..ir.serialize import decode_module, encode_module

    # Rejects unknown flags even with the store off: a typo must not
    # silently compile the default configuration.
    normalize_flags(flags)
    pipeline = resolve_pipeline(pipeline, verify=verify)
    store = resolve_store(store)

    stats = CompileStats()

    # Warm-path: a model-entry hit replays the entire compile from the store
    # (stored bytecode, IR left encoded) without running any of the stages
    # below.
    model_key = None
    if store is not None:
        model_key = model_artifact_key(composition, pipeline, seed, flags)
        entry = store.get(model_key)
        if entry is not None:
            model = _model_from_store_entry(
                entry,
                composition=composition,
                pipeline=pipeline,
                flags=flags,
                seed=seed,
                stats=stats,
            )
            if model is not None:
                return model
        stats.artifact_misses += 1

    analysis_manager = AnalysisManager(
        enabled=bool((flags or {}).get("analysis_cache", True))
    )

    start = time.perf_counter()
    info = sanitize(composition, seed=seed)
    stats.sanitize_seconds = time.perf_counter() - start

    start = time.perf_counter()
    layout = build_layout(composition, info)
    stats.layout_seconds = time.perf_counter() - start

    start = time.perf_counter()
    artifacts = generate_model_ir(composition, info, layout)
    stats.codegen_seconds = time.perf_counter() - start
    stats.instructions_before = artifacts.module.instruction_count()

    # Per-function compile units of the *pre-optimization* module: the raw
    # structural fingerprints classify later edits (incremental recompiles),
    # the transitive unit keys address the optimize artifact.  Models that
    # differ only in plain parameter values (loaded from the params buffer,
    # not baked) generate identical IR and therefore share optimize entries.
    pipeline_fp = _pipeline_fingerprint(pipeline)
    function_fps = {
        name: function_fingerprint(fn)
        for name, fn in artifacts.module.functions.items()
    }
    unit_fps = unit_fingerprints(artifacts.module, pipeline_fp, flags, function_fps)

    optimized_entry = None
    opt_key = None
    # The optimized module's store encoding, shared by the optimize and the
    # model entry (lowering leaves the IR unchanged).
    encoded_module = None
    if store is not None:
        opt_key = optimize_artifact_key(unit_fps)
        optimized_entry = store.get(opt_key)

    if optimized_entry is not None:
        # Optimize-entry hit: swap in the stored optimized module and skip
        # the pipeline (it was verified when first compiled).
        start = time.perf_counter()
        encoded_module = optimized_entry["module"]
        artifacts.module = decode_module(encoded_module)
        stats.optimize_seconds = time.perf_counter() - start
        stats.instructions_after = artifacts.module.instruction_count()
        stats.artifact_hits += 1
    else:
        if store is not None:
            stats.artifact_misses += 1
        # The pass manager verifies at the policy's boundaries: the freshly
        # generated module is checked before the first pass runs, and the
        # optimised module after the last one.
        start = time.perf_counter()
        pipeline.run(artifacts.module, analysis_manager)
        stats.optimize_seconds = time.perf_counter() - start
        stats.instructions_after = artifacts.module.instruction_count()
        # Cache counters are snapshotted *before* lowering so the Figure 7
        # rows and the pinned analysis-manager tests keep describing the
        # optimisation pipeline alone (lowering re-reads domtree/loopinfo
        # from the same cache).
        stats.analysis_hits = analysis_manager.hits
        stats.analysis_misses = analysis_manager.misses
        stats.analysis_invalidations = analysis_manager.invalidations
        stats.analysis_skipped_passes = analysis_manager.skipped_passes
        stats.analysis_computed = dict(analysis_manager.computed)
        stats.passes = analysis_manager.passes
        if store is not None:
            encoded_module = encode_module(artifacts.module)
            store.put(
                opt_key,
                {
                    "format": 1,
                    "module": encoded_module,
                    "instructions_after": stats.instructions_after,
                },
            )
            stats.artifact_writes += 1

    # Lowering: the structured emitter reconstructs loops/conditionals from
    # the dominator-tree and loop-info analyses the pipeline already cached;
    # a function the relooper cannot express raises ``CompilationError``.
    # Only the entry set lowers here; the rest lowers on first use.
    start = time.perf_counter()
    generator = PythonCodeGenerator(
        artifacts.module,
        analysis_manager=analysis_manager if analysis_manager.enabled else None,
        sanitize=bool((flags or {}).get("sanitize", False)),
        functions=reachable_functions(artifacts.module, ENTRY_FUNCTION),
    )
    source = generator.generate_source()
    compiled_functions = generator.exec_source(source)
    stats.lower_seconds = time.perf_counter() - start

    # The manager's lifetime is this compile: release the cached analyses so
    # session-memoized models do not pin dominator trees and range maps that
    # can never be read again.
    analysis_manager.clear()

    model = CompiledModel(
        composition,
        info,
        layout,
        artifacts,
        stats,
        compiled_functions,
        pipeline=pipeline,
        flags=flags,
        seed=seed,
    )
    model.source = source
    model.unit_fingerprints = unit_fps
    model.function_fingerprints = function_fps

    if store is not None:
        store.put(
            model_key,
            {
                "format": MODEL_ENTRY_FORMAT,
                "info": info,
                "layout": layout,
                "grid_searches": artifacts.grid_searches,
                # One bytes object: loading the entry allocates no per-IR-node
                # containers (a hit must not pay for garbage-collection
                # passes over them), and the IR is unpickled only on decode.
                "module": pickle.dumps(encoded_module, protocol=pickle.HIGHEST_PROTOCOL),
                "source": source,
                "code": marshal.dumps(generator.code),
                "py_names": generator.py_names(),
                "unit_fingerprints": unit_fps,
                "function_fingerprints": function_fps,
                "instructions_before": stats.instructions_before,
                "instructions_after": stats.instructions_after,
            },
        )
        stats.artifact_writes += 1
    return model


def _model_from_store_entry(
    entry,
    composition: Composition,
    pipeline: PassManager,
    flags: Optional[Dict[str, object]],
    seed: int,
    stats: CompileStats,
) -> Optional[CompiledModel]:
    """Rebuild a :class:`CompiledModel` from a model-entry store payload.

    Unmarshals the stored bytecode of the generated Python and executes it —
    no sanitize, layout, IR generation, optimisation, source generation or
    ``compile()`` runs, and the optimized module stays encoded until
    :attr:`CompiledModel.module` is first read.  Returns ``None`` when the
    payload is from an incompatible format or its code does not load
    (treated as a miss by the caller).
    """
    if not isinstance(entry, dict) or entry.get("format") != MODEL_ENTRY_FORMAT:
        return None
    try:
        start = time.perf_counter()
        compiled_functions = exec_code(
            marshal.loads(entry["code"]),
            PythonCodeGenerator.exec_namespace(),
            entry["py_names"],
        )
        artifacts = CompiledArtifacts(
            module=entry["module"],
            layout=entry["layout"],
            grid_searches=entry["grid_searches"],
        )
    except Exception:
        return None
    stats.lower_seconds = time.perf_counter() - start
    stats.instructions_before = entry["instructions_before"]
    stats.instructions_after = entry["instructions_after"]
    stats.artifact_hits += 1
    model = CompiledModel(
        composition,
        entry["info"],
        artifacts.layout,
        artifacts,
        stats,
        compiled_functions,
        pipeline=pipeline,
        flags=flags,
        seed=seed,
    )
    model.source = entry["source"]
    model.unit_fingerprints = dict(entry["unit_fingerprints"])
    model.function_fingerprints = dict(entry["function_fingerprints"])
    return model
