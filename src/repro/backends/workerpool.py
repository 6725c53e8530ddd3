"""The persistent worker-process pool behind the ``mcpu`` and ``lane`` engines.

Both engines ship their generated source to every worker once (the pool
``initializer``) and then map many small tasks over it, so the pool is
started lazily on the first :meth:`WorkerPool.map` and kept until
:meth:`WorkerPool.close` or garbage collection.  ``starts`` counts pool
constructions so benchmarks and tests can assert reuse.

It is built on :class:`concurrent.futures.ProcessPoolExecutor` because that
executor notices a worker that dies mid-task (SIGKILL, OOM kill, a crash in
native code) and fails every pending future with ``BrokenProcessPool``,
where ``multiprocessing.Pool.map`` waits forever for the lost task.  The
broken executor is dropped and :class:`~repro.errors.WorkerLost` raised; the
next ``map`` starts a fresh pool.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

from ..errors import WorkerLost


class WorkerPool:
    """A lazily started process pool of ``workers`` processes.

    ``start_method`` defaults to ``fork`` (``spawn`` on Windows).  Under
    ``fork`` the task function is pickled by qualified name and resolved in
    workers that inherited the parent's modules at the first ``map``.
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable,
        initargs: tuple,
        start_method: Optional[str] = None,
    ):
        self.workers = workers
        self.start_method = start_method or ("spawn" if os.name == "nt" else "fork")
        self.starts = 0
        self._initializer = initializer
        self._initargs = initargs
        self._executor: Optional[ProcessPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None

    def map(self, fn: Callable, tasks: Sequence) -> List:
        """``[fn(task) for task in tasks]`` evaluated on the pool, in order.

        Tasks travel in ``workers`` contiguous chunks (one IPC round trip
        per worker).  Raises :class:`WorkerLost` if a worker dies.
        """
        if self._executor is None:
            executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=mp.get_context(self.start_method),
                initializer=self._initializer,
                initargs=self._initargs,
            )
            # The finalizer holds the executor, not the pool, so an
            # unreachable pool is collected and its workers shut down.
            self._finalizer = weakref.finalize(self, executor.shutdown)
            self._executor = executor
            self.starts += 1
        chunksize = max(math.ceil(len(tasks) / self.workers), 1)
        try:
            return list(self._executor.map(fn, tasks, chunksize=chunksize))
        except BrokenProcessPool as exc:
            self.close()
            raise WorkerLost(
                f"a worker process died mid-task ({exc}); the next call "
                "starts a fresh pool"
            ) from exc

    def close(self) -> None:
        """Shut the workers down (a later :meth:`map` starts a new pool)."""
        if self._finalizer is not None:
            self._finalizer()
        self._executor = None
        self._finalizer = None
