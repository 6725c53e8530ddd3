"""The execution-engine protocol and the pluggable backend registry.

This replaces the hard-coded ``ENGINES`` tuple and the if/elif dispatch that
used to live inside ``CompiledModel.run``.  Each backend module registers an
:class:`ExecutionEngine` under its engine name::

    @register_engine
    class GpuSimEngine:
        name = "gpu-sim"
        def capabilities(self): ...
        def prepare(self, model): ...

``prepare`` binds the engine to one compiled model's artifacts/layout and
returns an :class:`EngineInstance` whose ``run(inputs, num_trials)`` executes
trials and collects :class:`RunResults`.  The shared buffer-allocation /
result-extraction choreography lives in the :class:`EngineInstance` base
class; engines only implement :meth:`EngineInstance.execute`.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from typing import Protocol, runtime_checkable

from ..cogframe.runner import RunResults
from ..errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.distill import CompiledModel


@dataclass(frozen=True)
class EngineCapabilities:
    """Static description of what an engine can do (for schedulers/UIs)."""

    name: str
    description: str
    #: Executes evaluations in parallel (processes, threads or SIMT lanes).
    parallel: bool = False
    #: Honours the ``workers=N`` run option.
    supports_workers: bool = False
    #: Runs lowered Python code rather than interpreting IR.
    compiled: bool = True


class EngineInstance:
    """An engine bound to one compiled model, ready to run trials.

    Subclasses implement :meth:`execute`; the base class owns the
    buffer-allocation / execution / result-extraction choreography.
    """

    def __init__(self, engine_name: str, model: "CompiledModel"):
        self.engine_name = engine_name
        self.model = model

    def run(
        self,
        inputs: Sequence,
        num_trials: Optional[int] = None,
        seed: int = 0,
        **options,
    ) -> RunResults:
        """Execute ``num_trials`` trials and collect the results (a
        one-element :meth:`run_batch`)."""
        return self.run_batch([inputs], [num_trials], [seed], **options)[0]

    def run_batch(
        self,
        inputs_batch: Sequence[Sequence],
        num_trials: Union[int, Sequence[Optional[int]], None] = None,
        seed: Union[int, Sequence[int]] = 0,
        **options,
    ) -> List[RunResults]:
        """Execute several independent input batches against one compiled model.

        Each element of ``inputs_batch`` is an ``inputs`` value exactly as
        :meth:`run` accepts; ``num_trials`` and ``seed`` may be scalars
        (applied to every element) or per-element sequences.  Results are
        bitwise identical to calling :meth:`run` once per element on this
        same instance — parallel engines merely overlap the elements'
        grid evaluations (one pool dispatch per scheduler step for the whole
        batch) instead of paying one round-trip per element.  Every result's
        ``wall_seconds`` is the execution time of the whole batch (the
        elements ran interleaved).
        """
        model = self.model
        count = len(inputs_batch)
        trials_list = (
            list(num_trials)
            if isinstance(num_trials, (list, tuple))
            else [num_trials] * count
        )
        seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed] * count
        if len(trials_list) != count or len(seeds) != count:
            raise ValueError(
                "per-element num_trials/seed sequences must match the batch size"
            )

        elements = []
        flattened: Dict[int, Tuple[List[float], int]] = {}
        for inputs, trials, element_seed in zip(inputs_batch, trials_list, seeds):
            buffers = model.allocate_buffers(inputs, trials, element_seed, flattened)
            elements.append((buffers, buffers["rows"] if trials is None else trials))

        start = time.perf_counter()
        self.execute_batch(elements, **options)
        wall_seconds = time.perf_counter() - start

        results = [
            model._collect_results(buffers, trials, self.engine_name)
            for buffers, trials in elements
        ]
        for result in results:
            result.wall_seconds = wall_seconds
        return results

    def execute(self, buffers: Dict[str, object], num_trials: int, **options) -> None:
        raise NotImplementedError

    def execute_batch(
        self, elements: Sequence[Tuple[Dict[str, object], int]], **options
    ) -> None:
        """Execute several ``(buffers, num_trials)`` elements.

        The default runs them back to back; parallel engines override this
        to interleave the elements and batch their grid evaluations.
        """
        for buffers, num_trials in elements:
            self.execute(buffers, num_trials, **options)

    def close(self) -> None:
        """Release engine-held resources (worker pools, device state).

        The default is a no-op; instances remain usable after ``close`` —
        engines lazily rebuild what they need.
        """

    def __enter__(self) -> "EngineInstance":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@runtime_checkable
class ExecutionEngine(Protocol):
    """What a pluggable backend must provide to join the registry."""

    name: str

    def capabilities(self) -> EngineCapabilities:  # pragma: no cover - protocol
        ...

    def prepare(self, model: "CompiledModel") -> EngineInstance:  # pragma: no cover
        ...


#: engine name -> registered engine (a singleton instance per engine class).
_ENGINE_REGISTRY: Dict[str, "ExecutionEngine"] = {}

#: Backend modules whose import registers the built-in engines.
_BUILTIN_BACKEND_MODULES = (
    "repro.backends.interp",
    "repro.backends.pycodegen",
    "repro.backends.multicore",
    "repro.backends.gpu_sim",
    "repro.backends.lane",
)

_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        for module in _BUILTIN_BACKEND_MODULES:
            importlib.import_module(module)
        # Only mark loaded on success so a transient import failure is
        # retried (and re-raised) instead of leaving the registry empty.
        _BUILTINS_LOADED = True


def register_engine(engine_cls):
    """Class decorator: instantiate and register an engine under ``cls.name``."""
    name = getattr(engine_cls, "name", None)
    if not name:
        raise ValueError(f"engine class {engine_cls!r} needs a non-empty 'name' attribute")
    existing = _ENGINE_REGISTRY.get(name)
    if existing is not None and type(existing) is not engine_cls:
        raise ValueError(
            f"engine name {name!r} is already registered to {type(existing).__name__}"
        )
    _ENGINE_REGISTRY[name] = engine_cls()
    return engine_cls


def get_engine(name: str) -> "ExecutionEngine":
    """Look up a registered engine; raises :class:`EngineError` when unknown."""
    _ensure_builtins()
    engine = _ENGINE_REGISTRY.get(name)
    if engine is None:
        raise EngineError(
            f"unknown engine {name!r}; choose one of {list_engines()}"
        )
    return engine


def list_engines() -> Tuple[str, ...]:
    """Names of every registered execution engine, sorted."""
    _ensure_builtins()
    return tuple(sorted(_ENGINE_REGISTRY))


def engine_capabilities() -> Dict[str, EngineCapabilities]:
    """Capability descriptions for every registered engine."""
    _ensure_builtins()
    return {name: engine.capabilities() for name, engine in sorted(_ENGINE_REGISTRY.items())}
