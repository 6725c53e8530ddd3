"""Multicore execution of grid-search regions (paper §3.6, DISTILL-mCPU).

The paper creates one Python thread per core, assigns each a segment of the
grid-search space and lets the threads run *compiled* code so they never take
the GIL.  Compiled code in this reproduction is generated Python, which does
hold the GIL, so the equivalent strategy is one worker **process** per core:
each worker receives the generated kernel source once (at pool start-up),
rebuilds the callable, evaluates its segment of the grid with its own
replicated PRNG counters, and returns its segment's candidate scan events;
the parent replays the serial reservoir scan over the merged events (see
:mod:`repro.backends.grid_driver`).  Results are bit-identical to serial
execution because every evaluation's random draws depend only on the
evaluation index (see :mod:`repro.cogframe.prng`) and the tie-break replay
consumes exactly the uniforms the serial scan would.

The worker pool (:class:`~repro.backends.workerpool.WorkerPool`, shared
with the ``lane`` engine) is expensive to start (each worker re-builds the
kernels), so it is **persistent**: the engine instance returned by
``Session.compile(model, target="mcpu")`` / ``model.engine_instance("mcpu")``
keeps the pool alive across ``run()`` and ``run_batch()`` calls, and
``run_batch`` dispatches the grid chunks of *all* batch elements in a single
pool ``map`` per scheduler step.  ``pool_starts`` counts pool constructions
so benchmarks and tests can assert reuse.  A worker that dies mid-map raises
:class:`~repro.errors.WorkerLost`; the next call restarts the pool and
recomputes every chunk, so results stay bit-identical.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from .grid_driver import CandidateEvents, GridRequest, drive_elements
from .workerpool import WorkerPool

# ---------------------------------------------------------------------------
# Worker-side machinery.  Globals are initialised once per worker process.
# ---------------------------------------------------------------------------

_WORKER_KERNELS: Dict[str, object] = {}


def _worker_init(kernel_sources: Dict[str, tuple]) -> None:
    """Rebuild the compiled kernels inside the worker process."""
    from .pycodegen import PythonCodeGenerator

    global _WORKER_KERNELS
    _WORKER_KERNELS = {}
    for name, (source, py_name) in kernel_sources.items():
        namespace = PythonCodeGenerator.exec_namespace()
        exec(compile(source, f"<distill-worker:{name}>", "exec"), namespace)
        _WORKER_KERNELS[name] = namespace[py_name]


def _worker_evaluate(task) -> Tuple[List[Tuple[int, float]], int]:
    """Evaluate one contiguous chunk of the grid.

    Returns the chunk's candidate scan events — every ``(index, cost)`` whose
    cost is <= the chunk's running prefix minimum — plus the number of NaN
    costs.  The parent concatenates chunk events in index order and replays
    the serial reservoir scan over them, which is exact: an entry above its
    chunk's prefix minimum is also above the global prefix minimum, so it can
    never be a new minimum or a tie in the serial scan.

    NaN costs are detected with ``cost != cost`` (a NaN compares unequal even
    to itself, so the float ``==`` tie test would silently skip it) and never
    become events; the parent raises a clear error when *no* comparable cost
    exists instead of letting a ``-1`` index escape.
    """
    (
        kernel_name,
        start,
        stop,
        params,
        true_input,
        levels,
        strides,
        key,
        counter_base,
        stride,
    ) = task
    kernel = _WORKER_KERNELS[kernel_name]
    events: List[Tuple[int, float]] = []
    prefix = float("inf")
    nan_count = 0
    for index in range(start, stop):
        allocation = [
            float(lv[(index // s) % len(lv)]) for lv, s in zip(levels, strides)
        ]
        counter = counter_base + index * stride
        cost = kernel((params, 0), *true_input, *allocation, float(key), float(counter))
        if cost != cost:  # NaN
            nan_count += 1
            continue
        if cost <= prefix:
            events.append((index, cost))
            if cost < prefix:
                prefix = cost
    return events, nan_count


class MulticoreGridEvaluator:
    """Evaluates grid-search regions on a persistent :class:`WorkerPool`.

    The pool starts lazily on the first evaluation and is reused until
    :meth:`close` (or garbage collection); ``pool.starts`` counts how many
    times a pool was actually constructed.  The evaluator also works as a
    context manager for one-shot use.
    """

    def __init__(
        self,
        compiled,
        workers: Optional[int] = None,
        chunk_multiplier: int = 4,
        start_method: Optional[str] = None,
    ):
        from .pycodegen import PythonCodeGenerator, reachable_functions

        self.chunk_multiplier = chunk_multiplier
        # Worker kernels are regenerated from the IR: the eval kernels and
        # what they call, not the drivers.
        module = compiled.module
        kernels = [info.kernel_name for info in compiled.grid_searches]
        source = PythonCodeGenerator(
            module, functions=reachable_functions(module, *kernels)
        ).generate_source()
        kernel_sources = {
            info.kernel_name: (source, f"ir_{info.kernel_name}".replace(".", "_"))
            for info in compiled.grid_searches
        }
        self.pool = WorkerPool(
            workers or max(os.cpu_count() or 1, 1),
            _worker_init,
            (kernel_sources,),
            start_method=start_method,
        )

    def close(self) -> None:
        """Shut the worker pool down (a later evaluation restarts it)."""
        self.pool.close()

    def __enter__(self) -> "MulticoreGridEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation -------------------------------------------------------------------
    def evaluate_batch(self, compiled, requests: List[GridRequest]) -> List[CandidateEvents]:
        """Evaluate a whole batch of grid regions in one pool ``map``.

        Every request is split into ``workers * chunk_multiplier`` contiguous
        chunks; the chunks of *all* requests travel in a single ``map`` call,
        so a batch of B concurrent elements costs one IPC round-trip instead
        of B.
        """
        tasks = []
        owners: List[int] = []
        for request_index, request in enumerate(requests):
            grid = request.prepared
            num_chunks = max(self.pool.workers * self.chunk_multiplier, 1)
            chunk = max((grid.grid_size + num_chunks - 1) // num_chunks, 1)
            for start in range(0, grid.grid_size, chunk):
                stop = min(start + chunk, grid.grid_size)
                tasks.append(
                    (
                        grid.kernel_name,
                        start,
                        stop,
                        list(request.params),
                        list(request.true_input),
                        [list(lv) for lv in grid.levels],
                        list(grid.strides),
                        request.key,
                        request.counter_base,
                        grid.counter_stride,
                    )
                )
                owners.append(request_index)
        # ``_worker_evaluate`` is looked up at call time, not bound at
        # import: tests patch it before a fork-started pool inherits it.
        chunk_results = self.pool.map(_worker_evaluate, tasks)

        merged: List[CandidateEvents] = [
            CandidateEvents(events=[], grid_size=r.prepared.grid_size, nan_count=0)
            for r in requests
        ]
        # Chunks were generated in ascending index order per request and
        # the pool's map preserves order, so plain concatenation keeps the
        # events sorted by grid index — the order the replay requires.
        for owner, (events, nan_count) in zip(owners, chunk_results):
            merged[owner].events.extend(events)
            merged[owner].nan_count += nan_count
        return merged


# ---------------------------------------------------------------------------
# Engine registration (see repro.driver.engines)
# ---------------------------------------------------------------------------

from ..driver.engines import EngineCapabilities, EngineInstance, register_engine  # noqa: E402


class _MulticoreInstance(EngineInstance):
    """An mcpu binding that owns a persistent :class:`MulticoreGridEvaluator`."""

    def __init__(self, engine_name: str, model):
        super().__init__(engine_name, model)
        self._evaluator: Optional[MulticoreGridEvaluator] = None

    def _evaluator_for(self, options: Dict[str, object]) -> MulticoreGridEvaluator:
        workers = options.get("workers")
        start_method = options.get("start_method")
        evaluator = self._evaluator
        if evaluator is not None:
            same_workers = workers is None or workers == evaluator.pool.workers
            same_method = (
                start_method is None or start_method == evaluator.pool.start_method
            )
            if same_workers and same_method:
                return evaluator
            evaluator.close()
        evaluator = MulticoreGridEvaluator(
            self.model, workers=workers, start_method=start_method
        )
        self._evaluator = evaluator
        return evaluator

    @property
    def pool_starts(self) -> int:
        """Worker-pool constructions so far (1 after any number of runs
        with consistent options — the proof of pool reuse)."""
        return self._evaluator.pool.starts if self._evaluator is not None else 0

    def execute(self, buffers, num_trials, **options):
        self.execute_batch([(buffers, num_trials)], **options)

    def execute_batch(self, elements, **options):
        # The evaluator (and its pool) is only built once a grid evaluation
        # is due: a model without a controller runs whole compiled.
        def evaluate_batch(compiled, requests):
            return self._evaluator_for(options).evaluate_batch(compiled, requests)

        drive_elements(self.model, elements, evaluate_batch)

    def close(self) -> None:
        if self._evaluator is not None:
            self._evaluator.close()
            self._evaluator = None


@register_engine
class MulticoreEngine:
    """Grid-search evaluation partitioned over worker processes (``mcpu``)."""

    name = "mcpu"

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            name=self.name,
            description=(
                "grid-search regions partitioned across a persistent pool of "
                "worker processes (DISTILL-mCPU, Figure 5c); identical results "
                "to serial execution, including tie-break PRNG draws"
            ),
            parallel=True,
            supports_workers=True,
        )

    def prepare(self, model) -> EngineInstance:
        return _MulticoreInstance(self.name, model)
