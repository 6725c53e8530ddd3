"""The Python scheduler of the per-node, mcpu and gpu-sim engines (and of
``lane`` on grid-search models); they differ only in what runs a
grid-search controller.  :func:`drive_elements` runs a batch of elements in
one lockstep loop (trials, then passes, then elements): each pass runs
every live element's active nodes through their compiled ``node_<name>``
functions, hands every grid evaluation of the pass to the engine's batch
evaluator in one call, then selects the winners, swaps the double buffers
and records monitors and results.  ``per-node`` (Figure 5b) has no
evaluator and calls a controller's compiled node like any other.  ``mcpu``,
``gpu-sim`` and ``lane`` follow the paper's parallel strategy (section
3.6): everything *except* the grid-search evaluations runs through the
serial engine's compiled code; the evaluations — one independent kernel
invocation per grid point, each with its own replicated PRNG state — go to
the data-parallel grid kernel they share
(:class:`~repro.backends.lane.GridKernelEvaluator`), which ``mcpu`` shards
over a pool of worker processes.

The schedule: no registered condition reads the trial index, and only
:class:`~repro.cogframe.conditions.ThresholdCrossed` reads outputs.  So
when no condition reads outputs, the cached :class:`GridDriverPlan` (which
also holds every layout fact the loop needs; an incremental recompile
retires it) derives the active nodes of every pass up to termination once
per model; otherwise the conditions are evaluated per element per pass
against a start-of-pass :class:`~repro.cogframe.conditions.SchedulerState`
holding copies of only the outputs they read.

Serial-equivalence contract
---------------------------

The serial compiled code selects the winning grid point with a reservoir
scan: it walks the costs in index order and, whenever a cost *equals* the
running minimum, draws one uniform from the controller's PRNG stream
(``select index with probability 1/ties``).  Crucially this includes ties
with *intermediate* minima that a later, lower cost then displaces — the
draw still happened and advanced the counter.  A parallel engine therefore
cannot reduce a slice of the grid to its ``(best_index, best_cost, ties)``
triple: that loses the intermediate tie events and the replayed RNG stream
diverges.

Instead, every evaluator returns one full cost vector per request, and a
controller's vectors are selected as one ``(requests, grid_size)`` block
(:func:`select_block`).  A row whose scan makes no draw takes its first
argmin.  Every other row is reduced to its :class:`CandidateEvents`: the
ordered list of ``(index, cost)`` pairs whose cost is <= the running prefix
minimum *of the entries before them*.  Entries above the prefix minimum can
never interact with the serial scan (they are neither new minima nor ties),
so replaying the reservoir over the candidate events alone reproduces the
serial scan — same winner, same number of uniform draws, same final
counter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
    call — the driver, which calls it once per selected winner, passes
    them in.
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


def select_block(
    costs: np.ndarray, state_bufs: Sequence[List[float]], rng_offset: int, control_name: str
) -> List[Tuple[int, float]]:
    """:func:`select_from_events` for each row of a ``(requests, grid_size)``
    cost block, row ``r`` drawing from ``state_bufs[r]``.  A row without NaN
    in which no cost equals the prefix minimum before it makes no draw, so
    its winner is its first argmin; only the other rows are replayed."""
    before = np.full(costs.shape, np.inf)
    np.minimum.accumulate(costs[:, :-1], axis=1, out=before[:, 1:])
    replay = np.flatnonzero(((costs == before) | np.isnan(costs)).any(axis=1))
    best = costs.argmin(axis=1)
    picks = list(zip(best.tolist(), costs[np.arange(len(costs)), best].tolist()))
    for row in replay.tolist():
        picks[row] = select_from_events(
            candidate_events_from_costs(costs[row]), state_bufs[row], rng_offset, control_name
        )
    return picks


# ---------------------------------------------------------------------------
# The cached per-model driver plan
# ---------------------------------------------------------------------------


def _watched_nodes(condition: cond.Condition) -> Set[str]:
    """The nodes whose outputs ``condition`` reads (the compiler refuses
    condition types outside the registry)."""
    if isinstance(condition, cond.ThresholdCrossed):
        return {condition.node}
    if isinstance(condition, (cond.All, cond.Any)):
        return set().union(*map(_watched_nodes, condition.conditions))
    if isinstance(condition, cond.Not):
        return _watched_nodes(condition.condition)
    return set()


class GridDriverPlan:
    """Layout facts, compiled callables and the schedule the trial loop
    needs, derived once per compiled model."""

    def __init__(self, compiled):
        layout = compiled.layout
        composition = compiled.composition
        state_struct = layout.state_struct

        def state_slot(field: str) -> int:
            return state_struct.field_slot_offset(state_struct.field_index(field))

        self.layout = layout
        self.composition = composition
        self.order = layout.execution_order
        self.node_fns = {name: compiled.function(f"node_{name}") for name in self.order}
        self.controls = [
            name
            for name in self.order
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
        self.count_offsets = {name: state_slot(layout.count_field(name)) for name in self.order}
        self.cost_offsets = {
            name: state_slot(layout.state_field(name, "last_best_cost"))
            for name in self.controls
        }
        self.epoch_offsets = {
            name: state_slot(layout.state_field(name, "eval_epoch")) for name in self.controls
        }
        self.record_size = layout.result_record_size()
        conditions = [composition.termination, *composition.conditions.values()]
        #: Output slices of the nodes some condition reads.
        self.watched = {
            name: self.out_offsets[name]
            for name in sorted(set().union(*map(_watched_nodes, conditions)))
        }
        #: The active nodes of each pass up to termination, unless a
        #: condition reads outputs.
        self.schedule: Optional[List[Tuple[str, ...]]] = None
        if not self.watched:
            counts = dict.fromkeys(self.order, 0)
            passes = (self.advance(p, counts, []) for p in range(layout.max_passes))
            self.schedule = list(itertools.takewhile(lambda active: active is not None, passes))

    def advance(
        self, pass_index: int, counts: Dict[str, int], prev_buf: List[float]
    ) -> Optional[Tuple[str, ...]]:
        """The nodes that run on a pass, added to ``counts``; ``None`` when
        the trial terminates before it.  Every condition sees the
        start-of-pass snapshot, as in the compiled ``run_pass``."""
        if self.schedule is not None:
            return self.schedule[pass_index] if pass_index < len(self.schedule) else None
        state = cond.SchedulerState(
            pass_index=pass_index,
            call_counts=dict(counts),
            outputs={name: np.array(prev_buf[o : o + s]) for name, (o, s) in self.watched.items()},
        )
        if pass_index > 0 and self.composition.termination.is_satisfied(state):
            return None
        conditions = self.composition.conditions
        active = tuple(name for name in self.order if conditions[name].is_satisfied(state))
        for name in active:
            counts[name] += 1
        return active


def grid_driver_plan(compiled) -> GridDriverPlan:
    """The cached :class:`GridDriverPlan` of a compiled model."""
    plan = compiled._grid_driver_plan
    if plan is None:
        plan = GridDriverPlan(compiled)
        compiled._grid_driver_plan = plan
    return plan


# ---------------------------------------------------------------------------
# Requests and the lockstep driver
# ---------------------------------------------------------------------------


@dataclass
class GridRequest:
    """One grid evaluation an engine must run (one controller execution)."""

    prepared: PreparedGrid
    params: List[float]
    true_input: List[float]
    key: int
    counter_base: int


#: A batch evaluator: (compiled, [GridRequest, ...]) -> one cost vector per request.
BatchGridEvaluator = Callable[[object, List[GridRequest]], List[np.ndarray]]


class _Element:
    """One element in one trial: its buffers reset for the trial and as the
    node functions take them, the trial's call counts and passes run."""

    __slots__ = ("buffers", "state", "prev", "cur", "args", "counts", "passes")

    def __init__(self, plan: GridDriverPlan, buffers: Dict[str, object], trial: int):
        self.buffers = buffers
        self.state, self.prev, self.cur = buffers["state"], buffers["prev"], buffers["cur"]
        for offset, values in plan.layout.state_reset_entries:
            self.state[offset : offset + len(values)] = values
        self.prev[:] = self.cur[:] = [0.0] * len(self.prev)
        ext = (buffers["inputs"], trial % buffers["rows"] * plan.layout.input_size)
        self.args = ((buffers["params"], 0), (self.state, 0), (self.prev, 0), (self.cur, 0), ext)
        self.counts = dict.fromkeys(plan.order, 0)
        self.passes = 0


def drive_elements(
    compiled,
    elements: Sequence[Tuple[Dict[str, object], int]],
    batch_evaluator: Optional[BatchGridEvaluator] = None,
) -> None:
    """Run several independent ``(buffers, num_trials)`` elements.

    Without ``batch_evaluator`` every node runs its compiled node function
    (the ``per-node`` engine).  With one, the grid-search evaluations of
    each pass go to the evaluator in one call; a model without a
    grid-search controller then has nothing to offload and runs its whole
    compiled ``run_model`` instead.  Elements own separate buffers and run
    their trials in order (PRNG counters carry across trials), so results
    are bitwise identical to looped runs.
    """
    plan = grid_driver_plan(compiled)
    if batch_evaluator is not None and not plan.controls:
        for buffers, num_trials in elements:
            compiled._run_whole_compiled(buffers, num_trials)
        return
    layout = plan.layout
    offloaded = plan.prepared if batch_evaluator is not None else {}
    node_fns, count_offsets, epoch_offsets = plan.node_fns, plan.count_offsets, plan.epoch_offsets

    for trial in range(max((num_trials for _, num_trials in elements), default=0)):
        live = [_Element(plan, buffers, trial) for buffers, n in elements if n > trial]
        trial_elements = live
        for pass_index in range(layout.max_passes):
            epoch = trial * layout.max_passes + pass_index
            running: List[_Element] = []
            requests: List[Tuple[GridRequest, _Element]] = []
            for element in live:
                active = plan.advance(pass_index, element.counts, element.prev)
                if active is None:
                    continue
                running.append(element)
                state_buf = element.state
                for name in active:
                    if name in epoch_offsets:
                        state_buf[epoch_offsets[name]] = float(epoch)
                    prepared = offloaded.get(name)
                    if prepared is None:
                        node_fns[name](*element.args)
                        state_buf[count_offsets[name]] += 1.0
                        continue
                    true_input = [0.0] * prepared.input_size
                    plan.input_helpers[name](*element.args, (true_input, 0))
                    request = GridRequest(
                        prepared,
                        element.buffers["params"],
                        true_input,
                        key=int(state_buf[plan.rng_offsets[name]]),
                        counter_base=epoch * prepared.grid_size * prepared.counter_stride,
                    )
                    requests.append((request, element))
            live = running
            if not live:
                break
            if requests:
                evaluations = batch_evaluator(compiled, [request for request, _ in requests])
                _apply_selections(plan, requests, evaluations)
            for element in live:
                # Double-buffer swap, monitor recording.
                element.prev[:] = element.cur
                element.passes += 1
                record = epoch * layout.monitor_size
                for node_name, (offset, size) in layout.monitor_layout.items():
                    o = plan.out_offsets[node_name][0]
                    element.buffers["monitor"][record + offset : record + offset + size] = (
                        element.prev[o : o + size]
                    )

        base = trial * plan.record_size
        for element in trial_elements:
            results = element.buffers["results"]
            for node_name, (offset, size) in layout.result_layout.items():
                o = plan.out_offsets[node_name][0]
                results[base + offset : base + offset + size] = element.prev[o : o + size]
            results[base + layout.result_size] = float(element.passes)


def _apply_selections(
    plan: GridDriverPlan, requests: List[Tuple[GridRequest, _Element]], results: List[np.ndarray]
) -> None:
    """Select each request's winner, a controller's cost vectors as one
    block, and write it to its element: allocation to the output, best cost
    and count to the state."""
    if len(results) != len(requests):
        raise EngineError(
            f"batch grid evaluator returned {len(results)} results for "
            f"{len(requests)} requests"
        )
    groups: Dict[str, List[int]] = {}
    for index, (request, _) in enumerate(requests):
        groups.setdefault(request.prepared.control_name, []).append(index)
    for name, rows in groups.items():
        costs = np.array([results[i] for i in rows], dtype=float)
        states = [requests[i][1].state for i in rows]
        picks = select_block(costs, states, plan.rng_offsets[name], name)
        out_offset, out_size = plan.out_offsets[name]
        for i, (best, best_cost) in zip(rows, picks):
            prepared, element = requests[i][0].prepared, requests[i][1]
            element.cur[out_offset : out_offset + out_size] = allocation_for_index(
                prepared.levels, best, prepared.strides
            )
            element.state[plan.cost_offsets[name]] = best_cost
            element.state[plan.count_offsets[name]] += 1.0
