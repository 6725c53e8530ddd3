"""The Python scheduler of the per-node, mcpu and gpu-sim engines (and of
``lane`` on grid-search models); they differ only in what executes a node.
The driver below owns the trial/pass loop: each pass it evaluates every
node's activation condition against the start-of-pass
:class:`~repro.cogframe.conditions.SchedulerState` and calls the node's
compiled ``node_<name>`` function, then swaps the double buffers and
records monitors and results.  ``per-node`` (Figure 5b) runs every node that
way, grid-search controllers included.  ``mcpu``, ``gpu-sim`` and ``lane``
follow the strategy the paper describes for parallel execution (section
3.6): everything *except* the grid-search evaluations runs through the same
compiled code as the serial engine; the evaluations themselves — one
independent kernel invocation per grid point, each with its own replicated
PRNG state — are dispatched to a pool of workers or to the data-parallel
grid kernel.  Those engines plug in a *batch* evaluator that receives whole
lists of :class:`GridRequest` objects at once; the driver performs the
reservoir-sampling reduction.

Serial-equivalence contract
---------------------------

The serial compiled code selects the winning grid point with a reservoir
scan: it walks the costs in index order and, whenever a cost *equals* the
running minimum, draws one uniform from the controller's PRNG stream
(``select index with probability 1/ties``).  Crucially this includes ties
with *intermediate* minima that a later, lower cost then displaces — the
draw still happened and advanced the counter.  A parallel engine therefore
cannot reduce a chunk to its ``(best_index, best_cost, ties)`` triple: that
loses the intermediate tie events and the replayed RNG stream diverges.

Instead, evaluators return :class:`CandidateEvents`: the ordered list of
``(index, cost)`` pairs whose cost is <= the running prefix minimum *of the
entries before them*.  Entries above the prefix minimum can never interact
with the serial scan (they are neither new minima nor ties), so replaying
the reservoir over the candidate events alone reproduces the serial scan —
same winner, same number of uniform draws, same final counter — while
shipping only a handful of floats per chunk.  Full cost arrays (as produced
by the ``gpu-sim`` grid kernel) are reduced to candidate events with a
NumPy prefix-minimum before selection, so every engine funnels through the
same replay code.

All layout facts the hot loop needs (row-major strides of the level tables,
state/output slot offsets, compiled node and helper functions) are
precomputed once per compiled model in a cached :class:`GridDriverPlan`
instead of being re-derived on every ``run()`` call.  An incremental
recompile retires the plan with the model's engine bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cogframe import conditions as cond
from ..cogframe.mechanisms import GridSearchControlMechanism
from ..cogframe.prng import uniform_from_state
from ..errors import EngineError


# ---------------------------------------------------------------------------
# Grid geometry
# ---------------------------------------------------------------------------


def grid_strides(levels: Sequence[Sequence[float]]) -> Tuple[int, ...]:
    """Row-major strides of the flat grid index, one per signal."""
    counts = [len(lv) for lv in levels]
    strides = [1] * len(counts)
    for signal in range(len(counts) - 2, -1, -1):
        strides[signal] = strides[signal + 1] * counts[signal + 1]
    return tuple(strides)


def allocation_for_index(
    levels: Sequence[Sequence[float]],
    index: int,
    strides: Optional[Sequence[int]] = None,
) -> List[float]:
    """The candidate allocation at a flat grid index (row-major over signals).

    ``strides`` are the precomputed row-major strides (:func:`grid_strides`);
    without them they are derived on the fly, which costs O(signals²) per
    call — hot callers (the worker loops) must pass them in.
    """
    if strides is None:
        strides = grid_strides(levels)
    values: List[float] = []
    remainder = index
    for lv, stride in zip(levels, strides):
        values.append(float(lv[remainder // stride]))
        remainder %= stride
    return values


@dataclass(frozen=True)
class PreparedGrid:
    """The layout facts of a :class:`GridSearchInfo`, derived once."""

    control_name: str
    kernel_name: str
    levels: Tuple[Tuple[float, ...], ...]
    strides: Tuple[int, ...]
    grid_size: int
    counter_stride: int
    input_size: int

    @classmethod
    def from_info(cls, info) -> "PreparedGrid":
        return cls(
            control_name=info.control_name,
            kernel_name=info.kernel_name,
            levels=tuple(tuple(lv) for lv in info.levels),
            strides=grid_strides(info.levels),
            grid_size=info.grid_size,
            counter_stride=info.counter_stride,
            input_size=info.input_size,
        )


# ---------------------------------------------------------------------------
# Candidate events and reservoir replay
# ---------------------------------------------------------------------------


@dataclass
class CandidateEvents:
    """The scan events of one grid evaluation, in index order.

    ``events`` holds every ``(index, cost)`` whose cost is <= the prefix
    minimum of the costs before it (NaN costs excluded); ``nan_count`` is the
    number of NaN costs encountered.  Replaying the serial reservoir scan
    over the events reproduces the full scan exactly (winner, draw count and
    final PRNG counter).
    """

    events: List[Tuple[int, float]]
    grid_size: int
    nan_count: int = 0


def candidate_events_from_costs(costs: np.ndarray) -> CandidateEvents:
    """Reduce a full cost array to its candidate scan events."""
    costs = np.asarray(costs, dtype=float)
    nan_mask = np.isnan(costs)
    nan_count = int(np.count_nonzero(nan_mask))
    # NaN must not poison the prefix minimum: the serial scan simply skips it.
    cleaned = np.where(nan_mask, np.inf, costs)
    prefix = np.minimum.accumulate(cleaned)
    prefix_before = np.concatenate(([np.inf], prefix[:-1]))
    mask = costs <= prefix_before  # False for NaN costs
    indices = np.nonzero(mask)[0]
    events = [(int(i), float(costs[i])) for i in indices]
    return CandidateEvents(events=events, grid_size=int(costs.size), nan_count=nan_count)


def replay_selection(
    events: Sequence[Tuple[int, float]], uniform: Callable[[], float]
) -> Tuple[int, float]:
    """Reservoir-sampling argmin over candidate scan events.

    Draw-for-draw identical to the serial compiled scan: no draws while the
    running minimum strictly improves, one uniform per tie.
    """
    best_index = -1
    best_cost = float("inf")
    ties = 0
    for index, cost in events:
        if cost < best_cost:
            best_index, best_cost, ties = index, cost, 1
        elif cost == best_cost:
            ties += 1
            if uniform() < 1.0 / ties:
                best_index = index
    return best_index, best_cost


def _state_uniform(state_buf: List[float], rng_offset: int) -> Callable[[], float]:
    """A uniform sampler advancing the counter stored in the state buffer."""

    def uniform() -> float:
        key = int(state_buf[rng_offset])
        counter = int(state_buf[rng_offset + 1])
        value, counter = uniform_from_state(key, counter)
        state_buf[rng_offset + 1] = counter
        return value

    return uniform


def select_from_events(
    evaluation: CandidateEvents,
    state_buf: List[float],
    rng_offset: int,
    control_name: str = "<grid>",
) -> Tuple[int, float]:
    """Pick the winning grid index, drawing tie-breaks from the control's PRNG.

    Raises :class:`EngineError` when no comparable cost exists (every
    evaluation returned NaN) instead of letting ``best_index = -1`` escape
    into the output buffers.
    """
    if not evaluation.events:
        raise EngineError(
            f"grid search {control_name!r}: no comparable evaluation cost — "
            f"{evaluation.nan_count} of {evaluation.grid_size} evaluations "
            f"returned NaN; check the objective function for invalid "
            f"operations (log/sqrt of negative values, 0/0, ...)"
        )
    return replay_selection(evaluation.events, _state_uniform(state_buf, rng_offset))


def select_best(costs: np.ndarray, state_buf: List[float], rng_offset: int) -> int:
    """Reservoir-sampling argmin over a full cost array.

    Matches the serial compiled code draw-for-draw: no draws when the minimum
    is unique, one uniform per additional tie otherwise (including ties with
    intermediate minima later displaced by a lower cost).
    """
    evaluation = candidate_events_from_costs(np.asarray(costs, dtype=float))
    index, _ = select_from_events(evaluation, state_buf, rng_offset)
    return index


# ---------------------------------------------------------------------------
# The cached per-model driver plan
# ---------------------------------------------------------------------------


class GridDriverPlan:
    """Layout facts and compiled callables the trial loop needs, derived
    once per compiled model."""

    def __init__(self, compiled):
        layout = compiled.layout
        composition = compiled.composition
        state_struct = layout.state_struct

        def state_slot(field: str) -> int:
            return state_struct.field_slot_offset(state_struct.field_index(field))

        self.layout = layout
        self.composition = composition
        self.node_fns = {
            name: compiled.function(f"node_{name}") for name in layout.execution_order
        }
        self.controls = [
            name
            for name in layout.execution_order
            if isinstance(composition.mechanisms[name], GridSearchControlMechanism)
        ]
        grid_infos = {g.control_name: g for g in compiled.grid_searches}
        self.prepared: Dict[str, PreparedGrid] = {
            name: PreparedGrid.from_info(grid_infos[name]) for name in self.controls
        }
        self.input_helpers = {
            name: compiled.function(grid_infos[name].input_helper_name)
            for name in self.controls
        }
        self.rng_offsets = {name: layout.rng_offsets[name] for name in self.controls}
        self.out_offsets = layout.output_offsets
        self.count_offsets = {
            name: state_slot(layout.count_field(name)) for name in layout.execution_order
        }
        self.cost_offsets = {
            name: state_slot(layout.state_field(name, "last_best_cost"))
            for name in self.controls
        }
        self.epoch_offsets = {
            name: state_slot(layout.state_field(name, "eval_epoch")) for name in self.controls
        }
        self.record_size = layout.result_record_size()


def grid_driver_plan(compiled) -> GridDriverPlan:
    """The cached :class:`GridDriverPlan` of a compiled model."""
    plan = compiled._grid_driver_plan
    if plan is None:
        plan = GridDriverPlan(compiled)
        compiled._grid_driver_plan = plan
    return plan


# ---------------------------------------------------------------------------
# Requests and element programs
# ---------------------------------------------------------------------------


@dataclass
class GridRequest:
    """One grid evaluation an engine must run (one controller execution)."""

    prepared: PreparedGrid
    params: List[float]
    true_input: List[float]
    key: int
    counter_base: int


#: A batch evaluator: (compiled, [GridRequest, ...]) -> [CandidateEvents|costs, ...]
BatchGridEvaluator = Callable[[object, List[GridRequest]], List[object]]


def _coerce_events(result) -> CandidateEvents:
    if isinstance(result, CandidateEvents):
        return result
    return candidate_events_from_costs(np.asarray(result, dtype=float))


def _element_program(
    plan: GridDriverPlan, buffers: Dict[str, object], num_trials: int, offload: bool
):
    """Generator running one element's trial loop.

    Every active node runs its compiled ``node_<name>`` function, except
    that with ``offload`` a grid-search controller's evaluation is yielded
    as a :class:`GridRequest` instead; the generator receives the
    evaluation results via ``send`` and performs the selection itself.
    Trials stay strictly sequential within an element because PRNG counters
    carry across trials; batching happens across *elements* (see
    :func:`drive_elements`).
    """
    layout = plan.layout
    composition = plan.composition
    params_buf: List[float] = buffers["params"]
    state_buf: List[float] = buffers["state"]
    prev_buf: List[float] = buffers["prev"]
    cur_buf: List[float] = buffers["cur"]
    params, state, prev, cur = (params_buf, 0), (state_buf, 0), (prev_buf, 0), (cur_buf, 0)
    order = layout.execution_order
    conditions = composition.conditions
    node_fns = plan.node_fns
    count_offsets = plan.count_offsets
    epoch_offsets = plan.epoch_offsets
    out_offsets = plan.out_offsets
    offloaded = plan.prepared if offload else {}

    for trial in range(num_trials):
        for offset, values in layout.state_reset_entries:
            state_buf[offset : offset + len(values)] = values
        for i in range(len(prev_buf)):
            prev_buf[i] = 0.0
            cur_buf[i] = 0.0
        row = trial % buffers["rows"]
        ext = (buffers["inputs"], row * layout.input_size)

        call_counts = {name: 0 for name in order}
        passes_run = 0
        for pass_idx in range(layout.max_passes):
            # Every condition of the pass sees this start-of-pass snapshot,
            # as in the reference runner and the compiled ``run_pass``.
            scheduler_state = cond.SchedulerState(
                pass_index=pass_idx,
                trial_index=trial,
                call_counts=dict(call_counts),
                outputs={
                    name: np.array(prev_buf[o : o + s]) for name, (o, s) in out_offsets.items()
                },
            )
            if pass_idx > 0 and composition.termination.is_satisfied(scheduler_state):
                break

            epoch = trial * layout.max_passes + pass_idx
            requests: List[GridRequest] = []
            for name in order:
                if not conditions[name].is_satisfied(scheduler_state):
                    continue
                if name in epoch_offsets:
                    state_buf[epoch_offsets[name]] = float(epoch)
                prepared = offloaded.get(name)
                if prepared is None:
                    node_fns[name](params, state, prev, cur, ext)
                    state_buf[count_offsets[name]] += 1.0
                    call_counts[name] += 1
                    continue
                true_input = [0.0] * prepared.input_size
                plan.input_helpers[name](params, state, prev, cur, ext, (true_input, 0))
                requests.append(
                    GridRequest(
                        prepared=prepared,
                        params=params_buf,
                        true_input=true_input,
                        key=int(state_buf[plan.rng_offsets[name]]),
                        counter_base=epoch * prepared.grid_size * prepared.counter_stride,
                    )
                )

            if requests:
                results = yield requests
                for request, result in zip(requests, results):
                    prepared = request.prepared
                    name = prepared.control_name
                    best, best_cost = select_from_events(
                        _coerce_events(result), state_buf, plan.rng_offsets[name], name
                    )
                    out_offset, out_size = out_offsets[name]
                    cur_buf[out_offset : out_offset + out_size] = allocation_for_index(
                        prepared.levels, best, prepared.strides
                    )
                    state_buf[plan.cost_offsets[name]] = best_cost
                    state_buf[count_offsets[name]] += 1.0
                    call_counts[name] += 1

            # Double-buffer swap, monitor recording.
            prev_buf[:] = cur_buf
            if layout.monitor_size:
                record = epoch * layout.monitor_size
                for node_name, (offset, size) in layout.monitor_layout.items():
                    o, _ = out_offsets[node_name]
                    buffers["monitor"][record + offset : record + offset + size] = prev_buf[
                        o : o + size
                    ]
            passes_run = pass_idx + 1

        base = trial * plan.record_size
        for node_name, (offset, size) in layout.result_layout.items():
            o, _ = out_offsets[node_name]
            buffers["results"][base + offset : base + offset + size] = prev_buf[o : o + size]
        buffers["results"][base + layout.result_size] = float(passes_run)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def drive_elements(
    compiled,
    elements: Sequence[Tuple[Dict[str, object], int]],
    batch_evaluator: Optional[BatchGridEvaluator] = None,
) -> None:
    """Run several independent ``(buffers, num_trials)`` elements.

    Without ``batch_evaluator`` every node runs its compiled node function
    (the ``per-node`` engine).  With one, grid-search evaluations go to the
    evaluator; a model without a grid-search controller then has nothing to
    offload and runs its whole compiled ``run_model`` instead.

    Elements run in lockstep: each executes its trial loop exactly as a
    standalone ``run()`` would (elements own separate buffers, so results
    are bitwise identical to looped runs); whenever several elements have
    grid evaluations pending at the same time, the whole batch of requests
    goes to the engine in one call — one pool ``map`` instead of one per
    element.
    """
    plan = grid_driver_plan(compiled)
    offload = batch_evaluator is not None
    if offload and not plan.controls:
        for buffers, num_trials in elements:
            compiled._run_whole_compiled(buffers, num_trials)
        return

    pending: List[Tuple[object, List[GridRequest]]] = []
    for buffers, num_trials in elements:
        program = _element_program(plan, buffers, num_trials, offload)
        try:
            pending.append((program, next(program)))
        except StopIteration:
            pass  # element finished without offloading an evaluation
    while pending:
        batch: List[GridRequest] = []
        for _, requests in pending:
            batch.extend(requests)
        results = batch_evaluator(compiled, batch)
        if len(results) != len(batch):
            raise EngineError(
                f"batch grid evaluator returned {len(results)} results for "
                f"{len(batch)} requests"
            )
        cursor = 0
        advanced: List[Tuple[object, List[GridRequest]]] = []
        for program, requests in pending:
            chunk = results[cursor : cursor + len(requests)]
            cursor += len(requests)
            try:
                advanced.append((program, program.send(chunk)))
            except StopIteration:
                pass
        pending = advanced
