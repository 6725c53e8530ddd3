"""The interpretive reference runner — the "CPython + PsyNeuLink" baseline.

This engine executes a composition the way the modelling framework the paper
targets does: Python objects everywhere, dictionaries keyed by node and port
names carrying every signal, activation conditions re-evaluated every pass,
per-node execution metadata maintained for the scientist, and values copied
defensively between nodes.  None of this work is algorithmically necessary —
which is precisely the paper's point: Distill strips it away.

Scheduling semantics (shared with the compiled engines):

* a run consists of ``num_trials`` trials; trial ``t`` uses input
  ``inputs[t % len(inputs)]``;
* each trial runs passes ``0 .. max_passes-1``; before each pass (except the
  first) the termination condition is checked;
* within a pass, nodes execute in the composition's topological order if
  their activation condition is satisfied; every node reads the *previous*
  pass's outputs (double buffering) and external inputs, and writes its new
  output;
* mechanism state (integrators, etc.) is reset at the start of every trial;
  PRNG streams persist across trials so that trials see fresh noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import EngineError, ModelStructureError
from .composition import Composition
from .conditions import SchedulerState
from .mechanisms import GridSearchControlMechanism
from .prng import CounterRNG
from .sanitize import SanitizationInfo, sanitize

InputSpec = Union[Dict[str, Sequence[float]], Sequence[float]]


@dataclass
class TrialResult:
    """Outputs of one trial."""

    outputs: Dict[str, np.ndarray]
    passes: int
    monitored: Dict[str, List[np.ndarray]] = field(default_factory=dict)


@dataclass
class RunResults:
    """Results of a full run (all trials)."""

    model_name: str
    trials: List[TrialResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    engine: str = "reference"

    def final_outputs(self, node: str) -> np.ndarray:
        """Stack the final output of ``node`` across trials -> (trials, size)."""
        return np.array([trial.outputs[node] for trial in self.trials])

    def monitored_series(self, node: str, trial: int = 0) -> np.ndarray:
        return np.array(self.trials[trial].monitored[node])

    def pass_counts(self) -> List[int]:
        return [trial.passes for trial in self.trials]


def normalize_inputs(
    composition: Composition, inputs: Sequence[InputSpec]
) -> List[Dict[str, np.ndarray]]:
    """Normalise user-provided inputs to a list of per-node dictionaries."""
    normalized: List[Dict[str, np.ndarray]] = []
    for i, spec in enumerate(inputs):
        if isinstance(spec, dict):
            entry = {}
            for name in composition.input_nodes:
                if name not in spec:
                    raise EngineError(f"input #{i} is missing a value for node {name!r}")
                entry[name] = np.asarray(spec[name], dtype=float).ravel()
        else:
            flat = np.asarray(spec, dtype=float).ravel()
            entry = {}
            offset = 0
            for name in composition.input_nodes:
                size = composition.mechanisms[name].output_size
                entry[name] = flat[offset : offset + size]
                offset += size
            if offset != flat.size:
                raise EngineError(
                    f"input #{i}: expected {offset} values for nodes "
                    f"{composition.input_nodes}, got {flat.size}"
                )
        for name, value in entry.items():
            expected = composition.mechanisms[name].output_size
            if value.size != expected:
                raise EngineError(
                    f"input #{i}: node {name!r} expects {expected} values, got {value.size}"
                )
        normalized.append(entry)
    return normalized


class ReferenceRunner:
    """Interpretive execution engine for compositions."""

    def __init__(self, composition: Composition, seed: int = 0, sanitization: Optional[SanitizationInfo] = None):
        self.composition = composition
        self.seed = seed
        self.sanitization = sanitization or sanitize(composition, seed=seed)
        order = self.sanitization.execution_order
        self._order = order
        # One independent, persistent PRNG stream per mechanism.
        self._rngs: Dict[str, CounterRNG] = {
            name: CounterRNG(seed, stream=index)
            for index, name in enumerate(order)
            if composition.mechanisms[name].needs_rng
        }
        # Execution metadata maintained for the modeller (and, incidentally,
        # a faithful source of baseline overhead).
        self.execution_counts: Dict[str, int] = {name: 0 for name in order}
        self.execution_history: List[Dict[str, object]] = []

    # -- public API ----------------------------------------------------------------------
    def run(self, inputs: Sequence[InputSpec], num_trials: Optional[int] = None) -> RunResults:
        """Run the composition and return per-trial results."""
        composition = self.composition
        input_sets = normalize_inputs(composition, inputs)
        if not input_sets:
            raise EngineError("run requires at least one input set")
        if num_trials is None:
            num_trials = len(input_sets)

        results = RunResults(model_name=composition.name, engine="reference")
        started = time.perf_counter()

        for trial_index in range(num_trials):
            external = input_sets[trial_index % len(input_sets)]
            results.trials.append(self._run_trial(trial_index, external))

        results.wall_seconds = time.perf_counter() - started
        return results

    # -- trial execution --------------------------------------------------------------------
    def _run_trial(self, trial_index: int, external: Dict[str, np.ndarray]) -> TrialResult:
        composition = self.composition
        mechanisms = composition.mechanisms
        max_passes = composition.max_passes

        # Fresh per-trial state; persistent RNG streams.
        states: Dict[str, Dict[str, np.ndarray]] = {
            name: mechanisms[name].state_spec() for name in self._order
        }
        previous: Dict[str, np.ndarray] = {
            name: np.zeros(mechanisms[name].output_size) for name in self._order
        }
        current: Dict[str, np.ndarray] = {name: value.copy() for name, value in previous.items()}
        call_counts: Dict[str, int] = {name: 0 for name in self._order}
        monitored: Dict[str, List[np.ndarray]] = {
            name: [] for name in composition.monitored_nodes
        }

        passes_run = 0
        for pass_index in range(max_passes):
            scheduler_state = SchedulerState(
                pass_index=pass_index,
                trial_index=trial_index,
                call_counts=dict(call_counts),
                outputs=previous,
            )
            if pass_index > 0 and composition.termination.is_satisfied(scheduler_state):
                break
            for name in self._order:
                mech = mechanisms[name]
                condition = composition.conditions[name]
                if not condition.is_satisfied(scheduler_state):
                    continue
                variable = self._collect_variable(mech, previous, external)
                rng = self._rngs.get(name)
                if isinstance(mech, GridSearchControlMechanism):
                    states[name]["eval_epoch"] = np.array(
                        [float(trial_index * max_passes + pass_index)]
                    )
                value = mech.execute(variable, states[name], rng)
                current[name] = np.array(value, dtype=float, copy=True)
                call_counts[name] += 1
                self.execution_counts[name] += 1
                # Metadata of the kind modelling frameworks keep per execution.
                self.execution_history.append(
                    {
                        "trial": trial_index,
                        "pass": pass_index,
                        "node": name,
                        "output_norm": float(np.sum(np.abs(current[name]))),
                    }
                )
            # End of pass: current values become the previous values.
            for name in self._order:
                previous[name] = current[name].copy()
            for name in composition.monitored_nodes:
                monitored[name].append(previous[name].copy())
            passes_run = pass_index + 1

        outputs = {
            name: previous[name].copy() for name in composition.output_nodes
        }
        return TrialResult(outputs=outputs, passes=passes_run, monitored=monitored)

    # -- input collection -------------------------------------------------------------------
    def _collect_variable(
        self,
        mech,
        previous: Dict[str, np.ndarray],
        external: Dict[str, np.ndarray],
    ) -> np.ndarray:
        composition = self.composition
        port_values: Dict[str, np.ndarray] = {
            port.name: np.zeros(port.size) for port in mech.input_ports
        }
        if mech.name in composition.input_nodes:
            # External stimulus drives the (first port of the) input node.
            stimulus = external[mech.name]
            first_port = mech.input_ports[0].name
            port_values[first_port] = port_values[first_port] + stimulus
        for projection in composition.incoming_projections(mech):
            contribution = projection.apply(previous[projection.sender.name])
            port_values[projection.port] = port_values[projection.port] + contribution
        return np.concatenate([port_values[port.name] for port in mech.input_ports])


def run_reference(
    composition: Composition,
    inputs: Sequence[InputSpec],
    num_trials: Optional[int] = None,
    seed: int = 0,
) -> RunResults:
    """Convenience wrapper: sanitize, build a runner, run."""
    return ReferenceRunner(composition, seed=seed).run(inputs, num_trials)
