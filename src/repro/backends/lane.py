"""Vectorized lane execution: numpy array programs over a batch axis.

The paper's headline speedups come from compiling model evaluation to
data-parallel kernels — one GPU thread per grid point with replicated
per-thread state (§3.6, Figure 6).  The structured codegen output is
re-emitted so that every IR value is an ``(n_lanes,)`` numpy array (see
:class:`repro.backends.pycodegen.LanePythonCodeGenerator`).  A model with a
grid-search controller runs through the shared scheduler
(:func:`~repro.backends.grid_driver.drive_elements`) with the grid-kernel
evaluator it shares with ``gpu-sim`` (:class:`GridKernelEvaluator`): one
lane per (element, grid point), every grid evaluation of a scheduler step
in bounded kernel launches.  A controller-free model runs whole:
``run_batch`` elements become lanes and one pass of the lane ``run_model``
advances the whole batch.  Per-operation cost is paid once per *kernel
call* instead of once per lane, which is where the 10-100x over the scalar
compiled engine comes from on wide batches.

Execution model
---------------

* Every generated function takes a trailing lane mask ``_m`` (bool,
  ``(n_lanes,)``) naming the lanes executing it.  Divergent control flow is
  masked per structured region: conditionals run both arms under
  complementary masks, loops iterate ``while mask.any()``, returns fold into
  an ``_rv`` accumulator via ``np.where``.
* Allocas share one ``(n_lanes, frame_size)`` array using the structured
  frame planner's slot offsets; model buffers are stacked element rows of a
  2-D float64 array.
* The splitmix PRNG draws through
  :func:`repro.cogframe.prng.vectorized_uniform` / ``vectorized_normal``,
  with counters advanced only for active lanes.  Counters and uniforms are
  bit-identical per lane to the scalar inline emission; normal draws and the
  transcendental intrinsics (:data:`LANE_INTRINSICS`) use numpy's kernels,
  which may differ from libm in the final ulp.
* Functions the relooper (or the lane lowerer) bails on run *per lane*
  through the scalar compiled program (:func:`_per_lane`), recorded in
  ``lane_fallbacks`` — correctness never depends on lane-lowerability.

The module has three parts: the ``LANE_NAMESPACE`` runtime helpers that
the generated lane source links against, the grid kernel that ``lane``,
``gpu-sim`` and ``mcpu`` run grid-search evaluations on, and the ``lane``
execution engine.  The engine base they share also owns a persistent
:class:`~repro.backends.workerpool.WorkerPool` whose workers rebuild the
lane program from source: with ``workers=N`` the ``lane`` engine splits a
controller-free sweep's stacked lanes into contiguous chunks on it, and
``mcpu`` splits each grid-kernel launch the same way.  A worker that dies
mid-batch raises :class:`~repro.errors.WorkerLost` and the next call
restarts the pool.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..cogframe import prng
from . import runtime
from .grid_driver import drive_elements
from .workerpool import WorkerPool

# ---------------------------------------------------------------------------
# Runtime helpers linked into generated lane source
# ---------------------------------------------------------------------------
#
# Generated lane code mixes ``(n_lanes,)`` arrays with lane-uniform Python
# scalars (constants, values hoisted out of masked regions), so every helper
# accepts either.  Lane-uniform operands go straight to the scalar
# definitions in :mod:`repro.backends.runtime`; the array paths reproduce
# them bit-for-bit — the fuzz oracle's lane leg compares buffers and PRNG
# counters against the scalar compiled engine.  Every caller of a lane
# program (``_run_stacked``, the pool workers, :func:`launch_grid_kernel`)
# runs it under ``np.errstate(all="ignore")``: both arms of a branch are
# evaluated, so inactive lanes may divide by zero or overflow by design.


def _bmask(m, c) -> Tuple[np.ndarray, np.ndarray]:
    """Split mask ``m`` into (true-arm, false-arm) lane masks for cond ``c``.

    ``c`` may be a bool/int lane array or a lane-uniform scalar.  Coercing
    through numpy avoids the Python ``~True == -2`` pitfall.
    """
    c = np.asarray(c)
    if c.dtype != np.bool_:
        c = c != 0
    return m & c, m & ~c


def _lane(scalar, vector):
    """A lane op: ``vector`` (a numpy kernel giving ``scalar``'s results
    per lane) when any operand is a lane array, else ``scalar`` itself."""

    def impl(*args):
        for arg in args:
            if isinstance(arg, np.ndarray):
                return vector(*args)
        return scalar(*args)

    return impl


#: ``np.divide`` is IEEE division and ``np.fmod`` is C ``fmod`` per lane.
_lfdiv = _lane(runtime.fdiv, np.divide)
_lfrem = _lane(runtime.frem, np.fmod)
#: numpy shifts an int64 lane by an amount outside ``0..63`` to 0 (``shl``)
#: or the sign (``ashr``), as the runtime's total shifts do.
_lshl = _lane(runtime.shl, np.left_shift)
_lashr = _lane(runtime.ashr, np.right_shift)


def _int_zero_check(b, m, message: str) -> None:
    if bool(np.any(m & (np.asarray(b) == 0))):
        raise ZeroDivisionError(message)


def _lsdiv(a, b, m):
    """Truncating signed division; zero check ignores inactive lanes."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        if m.any():
            return runtime.sdiv(a, b)
        return 0
    _int_zero_check(b, m, "integer division by zero in IR execution")
    a_arr = np.asarray(a)
    b_arr = np.where(np.asarray(b) == 0, 1, b)  # inactive-lane garbage
    q = np.abs(a_arr) // np.abs(b_arr)
    return np.where((a_arr >= 0) == (b_arr >= 0), q, -q)


def _lsrem(a, b, m):
    """C-style signed remainder; zero check ignores inactive lanes."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        if m.any():
            return runtime.srem(a, b)
        return 0
    _int_zero_check(b, m, "integer remainder by zero in IR execution")
    b = np.where(np.asarray(b) == 0, 1, b)  # inactive-lane garbage
    return a - _lsdiv(a, b, m) * b


def _lsel(c, a, b):
    """``select``: lane-wise when the condition diverges, direct otherwise."""
    if isinstance(c, np.ndarray) and c.ndim:
        return np.where(c != 0, a, b)
    return a if c else b


def _lfloat(x):
    """``sitofp``."""
    if isinstance(x, np.ndarray):
        return x.astype(np.float64)
    return float(x)


def _lint(x, width: int):
    """``fptosi`` to ``width`` bits (``runtime.fptosi``: NaN converts to 0,
    out-of-range values saturate)."""
    if not isinstance(x, np.ndarray):
        return runtime.fptosi(x, width)
    bound = float(1 << (width - 1))
    # The clip keeps the cast exact; the largest double below 2**63 is
    # 1024 short of the i64 maximum, so the top lanes are patched after.
    clipped = np.clip(np.where(x != x, 0.0, x), -bound, np.nextafter(bound, 0.0))
    return np.where(x >= bound, (1 << (width - 1)) - 1, clipped.astype(np.int64))


def _lfptrunc(x):
    """``fptrunc`` to binary32 (``runtime.fptrunc``): numpy's float32 cast
    rounds to nearest even and overflows to ±inf."""
    if not isinstance(x, np.ndarray):
        return runtime.fptrunc(x)
    return x.astype(np.float32).astype(np.float64)


def _ltrunc(x, bits_mask: int):
    """``trunc`` to a narrower int width."""
    if isinstance(x, np.ndarray):
        return x.astype(np.int64) & bits_mask
    return int(x) & bits_mask


_ARANGE_CACHE: Dict[int, np.ndarray] = {}


def _arange(n: int) -> np.ndarray:
    cached = _ARANGE_CACHE.get(n)
    if cached is None:
        cached = _ARANGE_CACHE[n] = np.arange(n)
    return cached


def _lane_indices(buf: np.ndarray, off, m) -> np.ndarray:
    """Validate a divergent slot-offset array against ``buf``'s row width.

    Inactive lanes are clamped to slot 0, so the bounds check can run over
    the full array without looking at garbage offsets.
    """
    idx = np.where(m, off, 0).astype(np.int64)
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= buf.shape[1]):
        raise IndexError(
            f"lane slot offset out of range [0, {buf.shape[1]}) "
            f"(min {int(idx.min())}, max {int(idx.max())})"
        )
    return idx


def _lload(buf: np.ndarray, off, m) -> np.ndarray:
    """Load one slot per lane; gathers when the offset diverges per lane.

    Always returns a fresh array: basic slicing would alias the buffer and a
    later masked store to the same slot would retroactively change the
    loaded value (scalar loads copy).
    """
    if isinstance(off, np.ndarray) and off.ndim:
        idx = _lane_indices(buf, off, m)
        return buf[_arange(len(idx)), idx]
    return buf[:, int(off)].copy()


def _lstore(buf: np.ndarray, off, value, m) -> None:
    """Store to one slot per lane, writing only active lanes."""
    if isinstance(value, np.ndarray) and value.ndim:
        value = value[m]
    if isinstance(off, np.ndarray) and off.ndim:
        idx = _lane_indices(buf, off, m)
        buf[np.nonzero(m)[0], idx[m]] = value
    else:
        buf[m, int(off)] = value


def _divergent(off) -> bool:
    return isinstance(off, np.ndarray) and bool(off.ndim)


def _block_start(buf: np.ndarray, off, count: int) -> int:
    """A lane-uniform block offset, checked against ``buf``'s row width."""
    start = int(off)
    if start < 0 or start + count > buf.shape[1]:
        raise IndexError(
            f"lane block [{start}, {start + count}) outside [0, {buf.shape[1]})"
        )
    return start


def _block_indices(buf: np.ndarray, off, count: int, rows: np.ndarray) -> np.ndarray:
    """``(len(rows), count)`` slot indices of the block at ``off`` in each
    of the lanes ``rows`` (``off`` lane-uniform or per lane)."""
    if _divergent(off):
        starts = off[rows].astype(np.int64)
    else:
        starts = np.full(len(rows), int(off), dtype=np.int64)
    if starts.size and (int(starts.min()) < 0 or int(starts.max()) + count > buf.shape[1]):
        raise IndexError(
            f"lane block of {count} slots outside [0, {buf.shape[1]}) "
            f"(starts {int(starts.min())}..{int(starts.max())})"
        )
    return starts[:, None] + _arange(count)


def _lcopy(dbuf, doff, sbuf, soff, count: int, m) -> None:
    """``memcpy`` of ``count`` slots in each active lane; offsets may
    diverge per lane.  The source block is gathered in full before the
    destination is written (``memmove`` semantics)."""
    if _divergent(doff) or _divergent(soff):
        rows = np.nonzero(m)[0]
        values = sbuf[rows[:, None], _block_indices(sbuf, soff, count, rows)]
        dbuf[rows[:, None], _block_indices(dbuf, doff, count, rows)] = values
        return
    d = _block_start(dbuf, doff, count)
    s = _block_start(sbuf, soff, count)
    # Mask indexing on the right copies, so overlap is safe.
    dbuf[m, d : d + count] = sbuf[m, s : s + count]


def _lset(dbuf, doff, value, count: int, m) -> None:
    """``memset``: write ``value`` (lane-uniform or per lane) to ``count``
    slots in each active lane; the offset may diverge per lane."""
    if isinstance(value, np.ndarray) and value.ndim:
        value = value[m][:, None]
    if _divergent(doff):
        rows = np.nonzero(m)[0]
        dbuf[rows[:, None], _block_indices(dbuf, doff, count, rows)] = value
        return
    d = _block_start(dbuf, doff, count)
    dbuf[m, d : d + count] = value


def _lrng_u(buf, off, buf1, off1, m) -> np.ndarray:
    """``rng_uniform``: draw per lane, advance counters of active lanes."""
    keys = _lload(buf, off, m)
    counters = _lload(buf1, off1, m)
    values, new_counters = prng.vectorized_uniform(keys, counters)
    _lstore(buf1, off1, new_counters, m)
    return values


def _lrng_n(buf, off, buf1, off1, m) -> np.ndarray:
    """``rng_normal``: draw per lane, advance counters of active lanes."""
    keys = _lload(buf, off, m)
    counters = _lload(buf1, off1, m)
    values, new_counters = prng.vectorized_normal(keys, counters)
    _lstore(buf1, off1, new_counters, m)
    return values


def _per_lane(scalar_fn, args, is_ptr, m):
    """Dispatch each active lane to the scalar compiled program.

    The universal fallback: functions the lane lowerer cannot express run
    lane-by-lane through the *same* scalar callable the ``compiled`` engine
    uses, so results stay bitwise identical.  Pointer
    args are ``(buffer, offset)`` with 2-D lane buffers; each lane's row is
    extracted to a plain list (the scalar calling convention), mutated in
    place, and written back unless the buffer is read-only (a params row
    broadcast across the lanes).
    """
    n = len(m)
    results: Dict[int, object] = {}
    for i in np.nonzero(m)[0]:
        i = int(i)
        # One row list per underlying buffer so aliased pointer args share
        # mutations, exactly as aliased scalar buffers would.
        rows: Dict[int, Tuple[np.ndarray, list]] = {}
        call_args = []
        for arg, ptr in zip(args, is_ptr):
            if ptr:
                buf, off = arg
                entry = rows.get(id(buf))
                if entry is None:
                    entry = (buf, buf[i].tolist())
                    rows[id(buf)] = entry
                if isinstance(off, np.ndarray) and off.ndim:
                    off = off[i]
                call_args.append((entry[1], int(off)))
            elif isinstance(arg, np.ndarray) and arg.ndim:
                call_args.append(arg[i].item())
            else:
                call_args.append(arg)
        result = scalar_fn(*call_args)
        for buf, row in rows.values():
            if buf.flags.writeable:
                buf[i, :] = row
        if result is not None:
            results[i] = result
    int_like = results and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool)
        for v in results.values()
    )
    out = np.zeros(n, dtype=np.int64 if int_like else np.float64)
    for i, value in results.items():
        out[i] = value
    return out


def _lane_pow(x, y):
    """``pow`` (``runtime.intrinsic_pow``): where ``math.pow`` raises
    (finite overflow, ``0**-n``, …) ``np.power`` returns inf and the runtime
    returns NaN, so patch finite inputs whose numpy result is infinite."""
    r = np.power(x, y)
    bad = np.isinf(r) & np.isfinite(x) & np.isfinite(y)
    return np.where(bad, np.nan, r)


#: Vectorised intrinsic implementations of the scalar table in
#: :data:`repro.backends.runtime.INTRINSIC_IMPLS`.  The IEEE-exact ops
#: (sqrt, fabs, floor, ceil, fmin, fmax, copysign) agree bit for bit; the
#: transcendental ones (exp, log, log1p, tanh, pow, and sin/cos on some
#: hosts) run numpy's kernels, which may round differently from libm in the
#: final ulp — within :data:`repro.fuzz.oracle.LANE_RTOL`, never beyond.
#: NaN, ±inf and ±0 results match exactly (DESIGN.md, "Scalar operation
#: semantics"); ``tests/test_lane_backend.py::TestLaneIntrinsics`` checks
#: all of this.  ``pow`` needs an explicit patch, the rest of numpy's ufuncs
#: already give the runtime's edge results — e.g. ``np.log(0.) == -inf``,
#: ``np.sin(inf)`` and ``np.floor(nan)`` are NaN, ``np.fmin(nan, x) == x``.
#: Calls to intrinsics not in this table bail the function to the per-lane
#: fallback.
LANE_INTRINSICS = {
    name: _lane(runtime.INTRINSIC_IMPLS[name], fn)
    for name, fn in {
        "exp": np.exp,
        "log": np.log,
        "log1p": np.log1p,
        "sqrt": np.sqrt,
        "sin": np.sin,
        "cos": np.cos,
        "tanh": np.tanh,
        "fabs": np.abs,
        # ``+ 0.0`` turns numpy's -0.0 (``ceil(-0.5)``) into the runtime's +0.0.
        "floor": lambda x: np.floor(x) + 0.0,
        "ceil": lambda x: np.ceil(x) + 0.0,
        "pow": _lane_pow,
        "fmin": np.fmin,
        "fmax": np.fmax,
        "copysign": np.copysign,
    }.items()
}


#: The exec namespace generated lane source links against (the lane analogue
#: of :meth:`PythonCodeGenerator.exec_namespace`).
LANE_NAMESPACE: Dict[str, object] = {
    "_np": np,
    "_w": np.where,
    "_bmask": _bmask,
    "_lfdiv": _lfdiv,
    "_lfrem": _lfrem,
    "_shl": _lshl,
    "_ashr": _lashr,
    "_lsdiv": _lsdiv,
    "_lsrem": _lsrem,
    "_lsel": _lsel,
    "_lfloat": _lfloat,
    "_lint": _lint,
    "_lfptrunc": _lfptrunc,
    "_ltrunc": _ltrunc,
    "_lload": _lload,
    "_lstore": _lstore,
    "_lrng_u": _lrng_u,
    "_lrng_n": _lrng_n,
    "_lcopy": _lcopy,
    "_lset": _lset,
    "_per_lane": _per_lane,
    "_lane_intrinsics": LANE_INTRINSICS,
    "_f64": runtime.float_from_bits,
}


class LaneProgram(NamedTuple):
    """A module lane-compiled by :func:`compile_lane_program`."""

    #: IR function name -> lane callable (trailing ``_m`` mask argument).
    functions: Dict[str, Callable]
    source: str
    #: IR function name -> its Python name in :attr:`source`.
    py_names: Dict[str, str]
    #: exec symbol -> Python name of the scalar callable it must be bound
    #: to (how a worker relinks the per-lane fallbacks from source).
    scalar_links: Dict[str, str]
    #: Functions emitted as per-lane scalar-dispatch wrappers, with reasons.
    fallbacks: List[str]
    fallback_reasons: Dict[str, str]


def compile_lane_program(module, scalar_function: Callable[[str], Callable]) -> LaneProgram:
    """Lane-compile ``module``: generate the source, link the scalar
    fallbacks, exec.

    ``scalar_function`` maps an IR function name to its scalar compiled
    callable (e.g. :meth:`CompiledModel.function`); functions the lane
    emitter cannot lower dispatch to it lane by lane (:func:`_per_lane`).
    """
    from .pycodegen import LanePythonCodeGenerator

    generator = LanePythonCodeGenerator(module)
    source = generator.generate_source()
    links = generator.scalar_symbols
    functions = generator.exec_source(
        source, {symbol: scalar_function(name) for symbol, name in links.items()}
    )
    return LaneProgram(
        functions=functions,
        source=source,
        py_names=generator.py_names(),
        scalar_links={
            symbol: f"ir_{name}".replace(".", "_") for symbol, name in links.items()
        },
        fallbacks=list(generator.lane_fallbacks),
        fallback_reasons=dict(generator.lane_fallback_reasons),
    )


# ---------------------------------------------------------------------------
# The grid kernel: grid-search evaluations on the lane axis (lane, gpu-sim)
# ---------------------------------------------------------------------------


def launch_grid_kernel(kernel: Callable, args: Sequence[object], lanes: int) -> np.ndarray:
    """Run a lane-compiled kernel over ``lanes`` grid points at once.

    ``args`` are the kernel's arguments: pointers as ``(2-D buffer, offset)``,
    per-lane values as ``(lanes,)`` arrays, lane-uniform values as scalars.
    Returns the ``(lanes,)`` cost vector (a lane-uniform result broadcast).
    """
    with np.errstate(all="ignore"):
        costs = kernel(*args, np.ones(lanes, dtype=bool))
    return np.broadcast_to(np.asarray(costs, dtype=float), (lanes,))


#: Lanes per grid-kernel launch.  A memory bound, not a tuning knob: every
#: IR value of the kernel is one ``(lanes,)`` array, and the stacked params
#: rows are ``(lanes, width)``, so a scheduler step with more grid
#: evaluations than this runs as several launches.  A request whose grid
#: alone exceeds the bound still runs as one launch.
MAX_LAUNCH_LANES = 2048


class GridLaunch(NamedTuple):
    """One grid-kernel launch: the lane kernel's IR name, its arguments as
    :func:`launch_grid_kernel` takes them, and the lane count."""

    kernel_name: str
    args: List[object]
    lanes: int


#: Runs a scheduler step's launches; one ``(lanes,)`` cost vector each.
LaunchRunner = Callable[[Iterable[GridLaunch]], List[np.ndarray]]


class GridKernelEvaluator:
    """The batch grid evaluator of ``lane``, ``gpu-sim`` and ``mcpu`` (see
    :func:`~repro.backends.grid_driver.drive_elements`): one lane per
    (element, grid point), each with its own PRNG key and counter.  A grid
    region's level columns and per-lane counter offsets are pure layout,
    derived once per region and reused by every call of the binding.  The
    engines differ only in the :data:`LaunchRunner` that runs a step's
    launches: in process (:meth:`run_in_process`) or sharded over a worker
    pool (``mcpu``).
    """

    def __init__(self, program: Callable[[], LaneProgram]):
        #: Returns the binding's lane program, building it on first use.
        self._program = program
        self._regions: Dict[str, tuple] = {}

    def _region(self, prepared) -> tuple:
        """The region's requests per launch, and its level columns and
        per-lane counter offsets laid out over a full launch."""
        cached = self._regions.get(prepared.control_name)
        if cached is None:
            per_launch = max(MAX_LAUNCH_LANES // prepared.grid_size, 1)
            indices = np.tile(np.arange(prepared.grid_size), per_launch)
            columns = [
                np.asarray(levels, dtype=float)[(indices // stride) % len(levels)]
                for levels, stride in zip(prepared.levels, prepared.strides)
            ]
            counter_lanes = indices.astype(np.float64) * prepared.counter_stride
            cached = (per_launch, columns, counter_lanes)
            self._regions[prepared.control_name] = cached
        return cached

    def run_in_process(self, launches: Iterable[GridLaunch]) -> List[np.ndarray]:
        """Run each launch in this process, one after the other."""
        functions = self._program().functions
        return [
            launch_grid_kernel(functions[name], args, lanes) for name, args, lanes in launches
        ]

    def evaluate_batch(
        self, compiled, requests, run_launches: Optional[LaunchRunner] = None
    ) -> List[np.ndarray]:
        """Every grid evaluation of one scheduler step, as few launches.

        Requests of one region stack (request x grid point) on the lane
        axis, up to :data:`MAX_LAUNCH_LANES` lanes per launch; each
        request's cost vector is its slice of the launch's costs.  The
        launches reach ``run_launches`` (default :meth:`run_in_process`) as
        a generator, so an in-process runner holds one launch's arguments
        at a time.
        """
        groups: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(request.prepared.control_name, []).append(index)
        plan = []
        for indices in groups.values():
            per_launch = self._region(requests[indices[0]].prepared)[0]
            plan += [indices[i : i + per_launch] for i in range(0, len(indices), per_launch)]
        launches = (self._launch([requests[i] for i in launch]) for launch in plan)
        vectors = (run_launches or self.run_in_process)(launches)
        costs: List[Optional[np.ndarray]] = [None] * len(requests)
        for launch, vector in zip(plan, vectors):
            grid_size = requests[launch[0]].prepared.grid_size
            for k, index in enumerate(launch):
                costs[index] = vector[k * grid_size : (k + 1) * grid_size]
        return costs

    def _launch(self, requests) -> GridLaunch:
        """Each request's params row, true inputs and PRNG key repeated over
        its grid points, the level columns and every lane's counter offset
        (added to its request's base) sliced from the region's layout."""
        prepared = requests[0].prepared
        _, columns, counter_lanes = self._region(prepared)
        lanes = prepared.grid_size * len(requests)
        params = np.asarray([r.params for r in requests], dtype=float)
        rows = [(*r.true_input, r.key, r.counter_base) for r in requests]
        values = np.repeat(np.asarray(rows, dtype=float).T, prepared.grid_size, axis=1)
        args: List[object] = [(np.repeat(params, prepared.grid_size, axis=0), 0), *values[:-2]]
        args += [column[:lanes] for column in columns]
        args += [values[-2], values[-1] + counter_lanes[:lanes]]
        return GridLaunch(prepared.kernel_name, args, lanes)


# ---------------------------------------------------------------------------
# Worker-side machinery (persistent process pool of lane and mcpu)
# ---------------------------------------------------------------------------

#: The rebuilt lane program's callables by IR name, in a pool worker.
_WORKER_FUNCTIONS: Dict[str, Callable] = {}


def _lane_worker_init(payload) -> None:
    """Rebuild the lane program (and its scalar fallbacks) in a worker."""
    from .pycodegen import PythonCodeGenerator

    global _WORKER_FUNCTIONS
    lane_source, scalar_sources, scalar_links, module_name, py_names = payload
    scalar_ns = PythonCodeGenerator.exec_namespace()
    # The entry set first: the lazily lowered rest links against its callables.
    for source in scalar_sources:
        exec(compile(source, f"<distill:{module_name}>", "exec"), scalar_ns)
    namespace: Dict[str, object] = dict(LANE_NAMESPACE)
    namespace["math"] = math
    for lane_sym, scalar_py_name in scalar_links.items():
        namespace[lane_sym] = scalar_ns[scalar_py_name]
    exec(compile(lane_source, f"<distill-lane:{module_name}>", "exec"), namespace)
    _WORKER_FUNCTIONS = {name: namespace[py_name] for name, py_name in py_names.items()}


def _lane_worker_run(task):
    """Run one lane chunk; return the chunk's mutated buffers."""
    params, state, prev, cur, inputs, results, monitor, trials, rows = task
    m = np.ones(len(trials), dtype=bool)
    with np.errstate(all="ignore"):
        _WORKER_FUNCTIONS["run_model"](
            (params, 0),
            (state, 0),
            (prev, 0),
            (cur, 0),
            (inputs, 0),
            (results, 0),
            (monitor, 0),
            trials,
            rows,
            m,
        )
    return state, prev, cur, results, monitor


# ---------------------------------------------------------------------------
# Engine registration (see repro.driver.engines)
# ---------------------------------------------------------------------------

from ..driver.engines import EngineCapabilities, EngineInstance, register_engine  # noqa: E402

_BUFFER_KEYS = ("params", "state", "prev", "cur", "inputs", "results", "monitor")


class _LaneProgramInstance(EngineInstance):
    """A binding that lazily lane-compiles the model, with the grid-kernel
    evaluator over that program and the persistent worker pool that
    rebuilds it (the part ``lane``, ``gpu-sim`` and ``mcpu`` share)."""

    def __init__(self, engine_name: str, model):
        super().__init__(engine_name, model)
        self._program: Optional[LaneProgram] = None
        #: Functions emitted as per-lane scalar-dispatch wrappers (lane
        #: lowering gaps: an intrinsic outside ``LANE_INTRINSICS``, a cast).
        self.lane_fallbacks: List[str] = []
        self.lane_fallback_reasons: Dict[str, str] = {}
        self._evaluator = GridKernelEvaluator(self._ensure_program)
        self._pool: Optional[WorkerPool] = None

    def _ensure_program(self) -> LaneProgram:
        if self._program is None:
            self._program = compile_lane_program(self.model.module, self.model.function)
            self.lane_fallbacks = list(self._program.fallbacks)
            self.lane_fallback_reasons = dict(self._program.fallback_reasons)
        return self._program

    def execute(self, buffers, num_trials, **options):
        self.execute_batch([(buffers, num_trials)], **options)

    # -- worker pool -----------------------------------------------------
    def _worker_payload(self) -> tuple:
        """What :func:`_lane_worker_init` rebuilds the lane program from:
        its source, the scalar source of every linked fallback (the entry
        set's, plus the rest's once a link outside it lowered the rest) and
        the link and name tables."""
        program = self._ensure_program()
        model = self.model
        scalar_sources = tuple(source for source in (model.source, model.rest_source) if source)
        if program.scalar_links and model.source is None:
            # A patched model keeps no source: lower the whole module again.
            from .pycodegen import PythonCodeGenerator

            generator = PythonCodeGenerator(
                model.module, sanitize=bool(model.flags.get("sanitize", False))
            )
            scalar_sources = (generator.generate_source(),)
        return (
            program.source,
            scalar_sources,
            program.scalar_links,
            model.module.name,
            program.py_names,
        )

    def _pool_for(self, workers: Optional[int], start_method: Optional[str] = None) -> WorkerPool:
        """The persistent pool, restarted when ``workers`` or
        ``start_method`` changes (``None`` keeps the running pool's; a new
        pool defaults to one worker per CPU)."""
        pool = self._pool
        if (
            pool is not None
            and workers in (None, pool.workers)
            and start_method in (None, pool.start_method)
        ):
            return pool
        self.close()
        self._pool = WorkerPool(
            workers or max(os.cpu_count() or 1, 1),
            _lane_worker_init,
            (self._worker_payload(),),
            start_method=start_method,
        )
        return self._pool

    @property
    def pool_starts(self) -> int:
        """Worker-pool constructions so far (1 after any number of runs
        with consistent options — the proof of pool reuse)."""
        return self._pool.starts if self._pool is not None else 0

    def close(self) -> None:
        """Shut the worker pool down (a later pooled call restarts it)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None


class _LaneInstance(_LaneProgramInstance):
    """A lane binding: grid-search models on the grid kernel, every other
    model as one stacked sweep of the lane ``run_model``."""

    def __init__(self, engine_name: str, model):
        super().__init__(engine_name, model)
        #: Trials folded onto the lane axis so far (see :meth:`_fold_trials`).
        self.trials_folded = 0
        #: Trials of RNG models folded speculatively with extrapolated PRNG
        #: counters and verified after the fact (see
        #: :meth:`_execute_rng_folded`).
        self.rng_trials_folded = 0
        #: Elements whose counter extrapolation failed verification and were
        #: re-run as sequential masked trial loops.
        self.rng_fold_fallbacks = 0

    # -- buffer stacking -------------------------------------------------
    def _stack(self, elements) -> Dict[str, np.ndarray]:
        n = len(elements)
        stacked: Dict[str, np.ndarray] = {}
        for key in _BUFFER_KEYS:
            lanes = [buffers[key] for buffers, _ in elements]
            width = max(len(lane) for lane in lanes)
            arr = np.zeros((n, width))
            for i, lane in enumerate(lanes):
                arr[i, : len(lane)] = lane
            stacked[key] = arr
        stacked["num_trials"] = np.array(
            [trials for _, trials in elements], dtype=np.int64
        )
        stacked["rows"] = np.array(
            [buffers["rows"] for buffers, _ in elements], dtype=np.int64
        )
        return stacked

    @staticmethod
    def _unstack(stacked, elements) -> None:
        for i, (buffers, _) in enumerate(elements):
            for key in _BUFFER_KEYS:
                lane = buffers[key]
                lane[:] = stacked[key][i, : len(lane)].tolist()

    # -- trial folding ---------------------------------------------------
    def _make_sub(self, buffers, trial: int):
        """A single-trial sub-lane simulating ``trial`` of an element.

        State/double buffers start as copies of the element's (every
        non-PRNG state slot is in ``state_reset_entries`` and rewritten at
        trial entry anyway); the input row is the one trial ``trial`` would
        consume (``trial % rows``).
        """
        layout = self.model.layout
        input_width = max(layout.input_size, 1)
        row = trial % buffers["rows"]
        return {
            "params": list(buffers["params"]),
            "state": list(buffers["state"]),
            "prev": list(buffers["prev"]),
            "cur": list(buffers["cur"]),
            "inputs": buffers["inputs"][
                row * input_width : (row + 1) * input_width
            ],
            "results": [0.0] * max(layout.result_record_size(), 1),
            "monitor": [0.0] * max(layout.monitor_record_size(), 1),
            "rows": 1,
        }

    def _fold_trials(self, elements):
        """Split multi-trial elements into one single-trial lane per trial.

        Within one element, trial ``t`` is sequentially dependent on trial
        ``t-1`` only through the PRNG counters — every other state slot is in
        ``state_reset_entries`` and overwritten at ``run_trial`` entry, and
        the double buffers are zeroed.  A model with no PRNG state
        (``layout.rng_offsets`` empty) therefore has fully independent
        trials, and they can ride the lane axis instead of looping as
        ``num_trials`` sequential masked sweeps.  Each sub-lane runs exactly
        one trial against its own input row; :meth:`_merge_folded` maps the
        sub-lanes' records back to the element's per-trial slots (and the
        last trial's state/double buffers back to the element's), so folded
        buffers are bitwise identical to the unfolded run.

        Returns ``(expanded_elements, merge_plans)``; models with RNG (or
        all-single-trial batches) pass through untouched.
        """
        layout = self.model.layout
        if layout.rng_offsets or all(trials <= 1 for _, trials in elements):
            return list(elements), []
        expanded: List[Tuple[Dict[str, object], int]] = []
        merges = []
        for buffers, trials in elements:
            if trials <= 1 or buffers["rows"] <= 0:
                expanded.append((buffers, trials))
                continue
            subs = [self._make_sub(buffers, t) for t in range(trials)]
            expanded.extend((sub, 1) for sub in subs)
            merges.append((buffers, subs))
            self.trials_folded += trials
        return expanded, merges

    def _merge_folded(self, buffers, subs) -> None:
        layout = self.model.layout
        record_size = layout.result_record_size()
        monitor_size = layout.monitor_record_size()
        for t, sub in enumerate(subs):
            if record_size:
                buffers["results"][t * record_size : (t + 1) * record_size] = sub[
                    "results"
                ][:record_size]
            if monitor_size:
                buffers["monitor"][t * monitor_size : (t + 1) * monitor_size] = sub[
                    "monitor"
                ][:monitor_size]
        # The element's post-run state is the last trial's.
        last = subs[-1]
        for key in ("state", "prev", "cur"):
            buffers[key][:] = last[key]

    # -- execution -------------------------------------------------------
    def execute_batch(self, elements, **options):
        if not elements:
            return
        self._ensure_program()
        if self.model.grid_searches:
            # One lane per (element, grid point): every grid evaluation of a
            # scheduler step is one stacked launch of the grid kernel.
            drive_elements(self.model, elements, self._evaluator.evaluate_batch)
        elif not options.get("fold_trials", True):
            self._run_stacked(list(elements), options)
        elif self.model.layout.rng_offsets:
            self._execute_rng_folded(list(elements), options)
        else:
            elements, merges = self._fold_trials(elements)
            self._run_stacked(elements, options)
            for buffers, subs in merges:
                self._merge_folded(buffers, subs)

    def _run_stacked(self, elements, options) -> None:
        """One lockstep sweep: stack the elements, run, unstack in place."""
        run = self._ensure_program().functions["run_model"]
        stacked = self._stack(elements)
        workers = options.get("workers")
        n_lanes = len(elements)
        if workers and int(workers) > 1 and n_lanes >= 2:
            self._execute_pooled(stacked, int(workers))
        else:
            m = np.ones(n_lanes, dtype=bool)
            with np.errstate(all="ignore"):
                run(
                    (stacked["params"], 0),
                    (stacked["state"], 0),
                    (stacked["prev"], 0),
                    (stacked["cur"], 0),
                    (stacked["inputs"], 0),
                    (stacked["results"], 0),
                    (stacked["monitor"], 0),
                    stacked["num_trials"],
                    stacked["rows"],
                    m,
                )
        self._unstack(stacked, elements)

    def _execute_rng_folded(self, elements, options) -> None:
        """Fold RNG-model trials onto the lane axis *speculatively*.

        Trial ``t`` depends on trial ``t-1`` only through the per-mechanism
        PRNG ``(key, counter)`` slots: the key is constant across trials and
        the draws themselves are counter-addressed and stateless, so knowing
        trial ``t``'s *starting counters* is enough to simulate it exactly.
        The sweep therefore runs trial 0 first (sweep 1), measures each
        mechanism's counter delta ``d``, launches trials ``1..N-1`` as lanes
        whose counters are extrapolated to ``start + t*d`` (sweep 2), and
        then verifies the speculation: lane ``t`` must finish with counters
        ``start + (t+1)*d``.  By induction a verified element is bitwise
        identical to the sequential trial loop — lane 1 started exactly where
        trial 0 ended, so it *is* trial 1; its verified end is trial 2's
        start, and so on.  Any mismatch (a model whose per-trial draw count
        varies, e.g. through draw-dependent control flow) discards the
        element's folded lanes untouched-buffers-intact and re-runs it as the
        classic sequential masked trial loop (``rng_fold_fallbacks``).

        Two sweeps replace ``N`` sequential masked sweeps; elements below the
        fold threshold ride along in sweep 1 unchanged.
        """
        rng_offsets = self.model.layout.rng_offsets
        sweep1: List[Tuple[Dict[str, object], int]] = []
        plans = []
        for buffers, trials in elements:
            if trials < 2 or buffers["rows"] <= 0:
                sweep1.append((buffers, trials))
                continue
            probe = self._make_sub(buffers, 0)
            start = {
                name: buffers["state"][offset + 1]
                for name, offset in rng_offsets.items()
            }
            plans.append(
                {"buffers": buffers, "trials": trials, "probe": probe, "start": start}
            )
            sweep1.append((probe, 1))
        self._run_stacked(sweep1, options)

        sweep2: List[Tuple[Dict[str, object], int]] = []
        for plan in plans:
            probe, start = plan["probe"], plan["start"]
            delta = {
                name: probe["state"][offset + 1] - start[name]
                for name, offset in rng_offsets.items()
            }
            subs = [probe]
            for t in range(1, plan["trials"]):
                sub = self._make_sub(plan["buffers"], t)
                for name, offset in rng_offsets.items():
                    sub["state"][offset + 1] = start[name] + t * delta[name]
                subs.append(sub)
                sweep2.append((sub, 1))
            plan["delta"] = delta
            plan["subs"] = subs
        if sweep2:
            self._run_stacked(sweep2, options)

        fallbacks: List[Tuple[Dict[str, object], int]] = []
        for plan in plans:
            start, delta = plan["start"], plan["delta"]
            verified = all(
                sub["state"][offset + 1] == start[name] + (t + 1) * delta[name]
                for t, sub in enumerate(plan["subs"])
                for name, offset in rng_offsets.items()
            )
            if verified:
                self._merge_folded(plan["buffers"], plan["subs"])
                self.rng_trials_folded += plan["trials"]
            else:
                # The element's own buffers were never written — rerun it
                # unfolded (the sequential masked trial loop inside the
                # kernel), which is the pre-speculation behaviour.
                fallbacks.append((plan["buffers"], plan["trials"]))
                self.rng_fold_fallbacks += 1
        if fallbacks:
            self._run_stacked(fallbacks, options)

    # -- worker pool (lane chunks) ---------------------------------------
    def _execute_pooled(self, stacked, workers: int) -> None:
        n_lanes = len(stacked["num_trials"])
        pool = self._pool_for(min(workers, n_lanes))
        chunk = (n_lanes + pool.workers - 1) // pool.workers
        spans = [
            (start, min(start + chunk, n_lanes))
            for start in range(0, n_lanes, chunk)
        ]
        tasks = [
            tuple(
                stacked[key][start:stop]
                for key in _BUFFER_KEYS + ("num_trials", "rows")
            )
            for start, stop in spans
        ]
        for (start, stop), (state, prev, cur, results, monitor) in zip(
            spans, pool.map(_lane_worker_run, tasks)
        ):
            stacked["state"][start:stop] = state
            stacked["prev"][start:stop] = prev
            stacked["cur"][start:stop] = cur
            stacked["results"][start:stop] = results
            stacked["monitor"][start:stop] = monitor


@register_engine
class LaneEngine:
    """Batch elements as SIMT lanes over numpy array programs (``lane``)."""

    name = "lane"

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            name=self.name,
            description=(
                "structured codegen re-emitted as numpy array programs over a "
                "lane axis under divergence masks: run_batch elements are lanes, "
                "or (element, grid point) pairs on grid-search models "
                "through the grid kernel gpu-sim shares (DISTILL-GPU's per-thread mapping); "
                "controller-free models agree with the scalar compiled engine to "
                "the final ulp of numpy's transcendental kernels"
            ),
            parallel=True,
            supports_workers=True,
        )

    def prepare(self, model) -> EngineInstance:
        return _LaneInstance(self.name, model)
