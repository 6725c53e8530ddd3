"""Execution backends for compiled cognitive models.

The backends share one runtime model (flat slot buffers, ``(buffer, offset)``
pointers, counter-based PRNG intrinsics) defined in
:mod:`repro.backends.runtime`:

* :mod:`repro.backends.interp` — per-instruction IR interpreter (the semantic
  reference and the "generic JIT" baseline stand-in).
* :mod:`repro.backends.pycodegen` — translates optimised IR into flat Python
  source with no per-instruction dispatch; this is the "native execution"
  analogue in this reproduction.
* :mod:`repro.backends.multicore` — the ``mcpu`` engine: the grid-search
  kernel of :mod:`repro.backends.lane`, each launch's lanes sharded across a
  pool of worker processes.
* :mod:`repro.backends.lane` — the lane code generator's runtime: numpy
  array programs over a lane axis (SIMT lanes), plus the ``lane`` engine
  that maps ``run_batch`` elements onto it.
* :mod:`repro.backends.gpu_sim` — SIMT execution simulator (stands in for
  the NVPTX/CUDA path): runs the grid-search kernel through the lane code
  generator with one lane per grid point, plus an analytical
  occupancy/latency model.

Each backend module registers an :class:`repro.driver.ExecutionEngine` with
the driver's backend registry (``compiled``, ``per-node``, ``ir-interp``,
``mcpu``, ``gpu-sim``, ``lane``); ``repro.list_engines()`` enumerates them and
``repro.compile(model, target=...)`` dispatches through the registry.
"""

from . import runtime
from .interp import Interpreter, IRInterpreterEngine, run_function

__all__ = ["runtime", "Interpreter", "IRInterpreterEngine", "run_function"]
