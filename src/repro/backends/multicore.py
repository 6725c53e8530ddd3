"""Multicore execution of grid-search regions (paper §3.6, DISTILL-mCPU).

The paper creates one Python thread per core, assigns each a segment of the
grid-search space and lets the threads run *compiled* code so they never take
the GIL.  Compiled code in this reproduction is generated Python, which does
hold the GIL, so the equivalent strategy is one worker **process** per core.
``mcpu`` runs the grid kernel ``lane`` and ``gpu-sim`` share
(:class:`~repro.backends.lane.GridKernelEvaluator`) and only changes how a
scheduler step's launches run: each launch's lane axis is split into one
contiguous slice per worker, every slice of the step travels in a single
pool ``map``, each worker runs its slice of the lane kernel and returns the
slice's cost vector, and the parent concatenates the slices and selects the
winners as for ``gpu-sim`` (:func:`~repro.backends.grid_driver.select_block`).
Results are bit-identical to serial execution because every lane's random
draws depend only on its evaluation index (see :mod:`repro.cogframe.prng`)
and a lane never reads another lane's values, so a slice computes exactly
the costs the whole launch would.

The worker pool (:class:`~repro.backends.workerpool.WorkerPool`, started by
the same initializer as the ``lane`` engine's) is expensive to start (each
worker rebuilds the lane program), so it is **persistent**: the engine
instance returned by ``Session.compile(model, target="mcpu")`` /
``model.engine_instance("mcpu")`` keeps the pool alive across ``run()`` and
``run_batch()`` calls, and ``run_batch`` puts the grid evaluations of *all*
batch elements in one pool ``map`` per scheduler step.  ``pool_starts``
counts pool constructions so benchmarks and tests can assert reuse.  A
worker that dies mid-map raises :class:`~repro.errors.WorkerLost`; the next
call restarts the pool and recomputes every slice, so results stay
bit-identical.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from . import lane
from .grid_driver import drive_elements
from .lane import GridLaunch, _LaneProgramInstance, launch_grid_kernel
from .workerpool import WorkerPool


def _lane_slice(arg, start: int, stop: int):
    """Lanes ``start:stop`` of a kernel argument: the rows of a pointer's
    2-D buffer, a slice of a ``(lanes,)`` array; scalars pass through."""
    if isinstance(arg, tuple):
        return tuple(_lane_slice(part, start, stop) for part in arg)
    if isinstance(arg, np.ndarray) and arg.ndim:
        return arg[start:stop]
    return arg


def _worker_evaluate(task) -> np.ndarray:
    """Run one lane slice of a grid-kernel launch in a pool worker; return
    the slice's cost vector."""
    kernel_name, args, lanes = task
    return launch_grid_kernel(lane._WORKER_FUNCTIONS[kernel_name], args, lanes)


def run_sharded(pool: WorkerPool, launches: Iterable[GridLaunch]) -> List[np.ndarray]:
    """Run a scheduler step's launches on ``pool``: each launch split into
    one contiguous lane slice per worker, every slice in one ``map``."""
    tasks = []
    counts: List[int] = []
    for kernel_name, args, lanes in launches:
        size = -(-lanes // pool.workers)
        starts = range(0, lanes, size)
        counts.append(len(starts))
        for start in starts:
            stop = min(start + size, lanes)
            sliced = [_lane_slice(arg, start, stop) for arg in args]
            tasks.append((kernel_name, sliced, stop - start))
    # ``_worker_evaluate`` is looked up at call time, not bound at import:
    # tests patch it before a fork-started pool inherits it.
    slices = iter(pool.map(_worker_evaluate, tasks))
    return [np.concatenate([next(slices) for _ in range(count)]) for count in counts]


# ---------------------------------------------------------------------------
# Engine registration (see repro.driver.engines)
# ---------------------------------------------------------------------------

from ..driver.engines import EngineCapabilities, EngineInstance, register_engine  # noqa: E402


class _MulticoreInstance(_LaneProgramInstance):
    """An mcpu binding: the shared grid kernel, each scheduler step's
    launches sharded over the binding's persistent worker pool (a model
    without a grid-search controller runs whole compiled, no pool)."""

    def execute_batch(self, elements, **options):
        def run_launches(launches):
            pool = self._pool_for(options.get("workers"), options.get("start_method"))
            return run_sharded(pool, launches)

        def evaluate_batch(compiled, requests):
            return self._evaluator.evaluate_batch(compiled, requests, run_launches)

        drive_elements(self.model, elements, evaluate_batch)


@register_engine
class MulticoreEngine:
    """The grid kernel sharded over worker processes (``mcpu``)."""

    name = "mcpu"

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            name=self.name,
            description=(
                "the SIMT grid kernel gpu-sim runs, each launch's lanes split "
                "across a persistent pool of worker processes (DISTILL-mCPU, "
                "Figure 5c); identical results to serial execution, including "
                "tie-break PRNG draws"
            ),
            parallel=True,
            supports_workers=True,
        )

    def prepare(self, model) -> EngineInstance:
        return _MulticoreInstance(self.name, model)
