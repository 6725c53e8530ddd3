"""Seeded random model generation for the conformance fuzzer.

The generator composes models from exactly the vocabulary the curated models
use — the function registry (:data:`repro.cogframe.functions.FUNCTION_REGISTRY`),
the condition registry (:data:`repro.cogframe.conditions.CONDITION_REGISTRY`),
grid-search control mechanisms and weighted/sliced projections — so every
generated model is, by construction, inside the compilable subset.  Topology
includes feed-forward chains, fan-in/fan-out, feedback cycles (legal under
the double-buffered pass semantics) and self-loops.

A generated model is first captured as a declarative :class:`ModelSpec` whose
``to_source()`` emits a *self-contained* Python module re-building the same
composition.  ``build()`` executes that source, so the composition the oracle
checks and the composition a written reproducer re-builds are guaranteed to
be the same model — there is no separate (and divergence-prone) in-memory
construction path.  The spec is also the unit the delta-debugging reducer
(:mod:`repro.fuzz.reduce`) mutates.

Grid-cost *ties* are a deliberate focus: with :data:`TIE_BIAS` probability
the generator quantises objective weights and allocation levels to small
integers so that many grid points produce exactly equal costs, driving the
reservoir-sampling tie-break draws whose PRNG bookkeeping PR 2 showed to be
the hardest thing to keep bit-identical across engines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cogframe.conditions import ACTIVATION_CONDITIONS, CONDITION_REGISTRY
from ..cogframe.functions import FUNCTION_REGISTRY

__all__ = [
    "FunctionSpec",
    "ConditionSpec",
    "MechanismSpec",
    "StepSpec",
    "ControlSpec",
    "ProjectionSpec",
    "ModelSpec",
    "generate_model_spec",
    "generate_scale_spec",
    "scale_edit_specs",
    "perturb_spec",
    "ELEMENTWISE_FUNCTIONS",
    "REDUCER_FUNCTIONS",
    "TIE_BIAS",
]

# ---------------------------------------------------------------------------
# Vocabulary (validated against the cogframe registries at import time)
# ---------------------------------------------------------------------------

#: Size-preserving functions (usable anywhere, required for input nodes whose
#: external stimulus must match the first port's size).
ELEMENTWISE_FUNCTIONS: Tuple[str, ...] = (
    "linear",
    "logistic",
    "relu",
    "tanh",
    "softmax",
    "gaussian_noise",
    "uniform_range",
    "accumulator",
    "leaky_integrator",
    "lca",
)

#: Functions reducing an arbitrary input to a fixed-size output.
REDUCER_FUNCTIONS: Tuple[str, ...] = (
    "linear_combination",
    "energy",
    "distance",
    "ddm_integrator",
    "ddm_analytical",
)

#: Objective candidates for generated grid-search pipelines (must be n -> 1).
OBJECTIVE_FUNCTIONS: Tuple[str, ...] = ("linear_combination", "energy", "distance")

_missing = [
    name
    for name in ELEMENTWISE_FUNCTIONS + REDUCER_FUNCTIONS + ("linear_matrix",)
    if name not in FUNCTION_REGISTRY
]
if _missing:  # pragma: no cover - registry drift guard
    raise RuntimeError(f"fuzz vocabulary references unregistered functions: {_missing}")

_missing = [name for name in ACTIVATION_CONDITIONS if name not in CONDITION_REGISTRY]
if _missing:  # pragma: no cover - registry drift guard
    raise RuntimeError(f"fuzz vocabulary references unregistered conditions: {_missing}")

#: Probability that a control mechanism's cost landscape is quantised to
#: provoke exact grid-cost ties (reservoir-sampling PRNG coverage).
TIE_BIAS = 0.45


# ---------------------------------------------------------------------------
# Spec dataclasses
# ---------------------------------------------------------------------------


@dataclass
class FunctionSpec:
    """A library function by registry name plus constructor parameters."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)

    def to_code(self) -> str:
        cls = FUNCTION_REGISTRY[self.name].__name__
        args = ", ".join(f"{key}={value!r}" for key, value in self.params.items())
        return f"F.{cls}({args})"


@dataclass
class ConditionSpec:
    """A condition tree by registry kind (class name)."""

    kind: str
    args: List[object] = field(default_factory=list)
    children: List["ConditionSpec"] = field(default_factory=list)

    def to_code(self) -> str:
        parts = [repr(a) for a in self.args]
        parts += [child.to_code() for child in self.children]
        return f"C.{self.kind}({', '.join(parts)})"


@dataclass
class MechanismSpec:
    name: str
    kind: str  # "processing" | "integrator" | "objective"
    function: FunctionSpec
    ports: List[Tuple[str, int]]
    condition: Optional[ConditionSpec] = None
    is_input: bool = False
    is_output: bool = False
    monitor: bool = False

    _KIND_CLASS = {
        "processing": "ProcessingMechanism",
        "integrator": "IntegratorMechanism",
        "objective": "ObjectiveMechanism",
    }

    @property
    def input_size(self) -> int:
        return sum(size for _, size in self.ports)

    def to_code(self, var: str) -> List[str]:
        cls = self._KIND_CLASS[self.kind]
        if len(self.ports) == 1 and self.ports[0][0] == "input":
            shape = f"size={self.ports[0][1]}"
        else:
            port_list = ", ".join(f"InputPort({n!r}, {s})" for n, s in self.ports)
            shape = f"input_ports=[{port_list}]"
        lines = [f"{var} = {cls}({self.name!r}, {self.function.to_code()}, {shape})"]
        flags = []
        if self.condition is not None:
            flags.append(f"condition={self.condition.to_code()}")
        for flag in ("is_input", "is_output", "monitor"):
            if getattr(self, flag):
                flags.append(f"{flag}=True")
        lines.append(f"comp.add_node({var}{', ' if flags else ''}{', '.join(flags)})")
        return lines


@dataclass
class StepSpec:
    """One stage of a generated control-evaluation pipeline.

    ``SimulationStep`` maps sources to input ports positionally (one source
    per port), so the step mechanism declares one port per source with the
    source's width.
    """

    name: str
    function: FunctionSpec
    #: Source tuples exactly as :class:`SimulationStep` consumes them.
    sources: List[Tuple]
    #: Width of each source, in order (becomes the port sizes).
    source_sizes: List[int]

    def to_code(self, var: str) -> str:
        """Construction of the step's mechanism object (a composition node)."""
        fn = self.function.to_code()
        if len(self.sources) == 1:
            shape = f"size={self.source_sizes[0]}"
        else:
            ports = ", ".join(
                f"InputPort('p{i}', {size})" for i, size in enumerate(self.source_sizes)
            )
            shape = f"input_ports=[{ports}]"
        return f"{var} = ProcessingMechanism({self.name!r}, {fn}, {shape})"

    def to_step_code(self, var: str) -> str:
        sources = ", ".join(repr(tuple(s)) for s in self.sources)
        return f"SimulationStep({var}, [{sources}])"


@dataclass
class ControlSpec:
    name: str
    input_size: int
    levels: List[List[float]]
    steps: List[StepSpec]
    objective_step: str
    condition: Optional[ConditionSpec] = None
    is_output: bool = True
    monitor: bool = False

    @property
    def num_signals(self) -> int:
        return len(self.levels)

    @property
    def grid_size(self) -> int:
        size = 1
        for lv in self.levels:
            size *= len(lv)
        return size

    def to_code(self, var: str) -> List[str]:
        # Step mechanisms are real composition nodes, exactly as the curated
        # predator-prey model wires its Obs/Action/Objective stages: the
        # compiler mines their shapes from the sanitization run and the same
        # objects appear in the controller's evaluation pipeline.
        lines: List[str] = []
        step_vars: Dict[str, str] = {}
        for index, step in enumerate(self.steps):
            step_var = f"{var}_s{index}"
            step_vars[step.name] = step_var
            lines.append(step.to_code(step_var))
        steps = ",\n        ".join(
            step.to_step_code(step_vars[step.name]) for step in self.steps
        )
        lines += [
            f"{var} = GridSearchControlMechanism(",
            f"    {self.name!r},",
            f"    input_size={self.input_size},",
            f"    levels={self.levels!r},",
            f"    steps=[\n        {steps},\n    ],",
            f"    objective_step={self.objective_step!r},",
            ")",
        ]
        flags = []
        if self.condition is not None:
            flags.append(f"condition={self.condition.to_code()}")
        if self.is_output:
            flags.append("is_output=True")
        if self.monitor:
            flags.append("monitor=True")
        lines.append(f"comp.add_node({var}{', ' if flags else ''}{', '.join(flags)})")
        for step in self.steps:
            lines.append(f"comp.add_node({step_vars[step.name]})")
        return lines


@dataclass
class ProjectionSpec:
    sender: str
    receiver: str
    port: str = "input"
    #: ``None`` (identity), a scalar, or a nested list (2-D matrix).
    matrix: object = None
    sender_slice: Optional[Tuple[int, int]] = None

    def to_code(self) -> str:
        args = [repr(self.sender), repr(self.receiver)]
        if self.port != "input":
            args.append(f"port={self.port!r}")
        if self.matrix is not None:
            args.append(f"matrix={self.matrix!r}")
        if self.sender_slice is not None:
            args.append(f"sender_slice={tuple(self.sender_slice)!r}")
        return f"comp.add_projection({', '.join(args)})"


@dataclass
class ModelSpec:
    """A complete generated model plus its run configuration."""

    name: str
    seed: int
    mechanisms: List[MechanismSpec]
    projections: List[ProjectionSpec]
    termination: ConditionSpec
    max_passes: int
    control: Optional[ControlSpec] = None
    inputs: List[List[float]] = field(default_factory=list)
    num_trials: int = 2
    run_seed: int = 0

    # -- summaries -------------------------------------------------------------
    def node_names(self) -> List[str]:
        names = [m.name for m in self.mechanisms]
        if self.control is not None:
            names.append(self.control.name)
        return names

    def summary(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "mechanisms": len(self.mechanisms) + (1 if self.control else 0),
            "projections": len(self.projections),
            "grid": self.control.grid_size if self.control else 0,
            "max_passes": self.max_passes,
            "trials": self.num_trials,
        }

    # -- source emission --------------------------------------------------------
    def to_source(self) -> str:
        """A self-contained module that rebuilds this model.

        Defines ``build_model() -> Composition`` plus the run configuration
        constants ``INPUTS``, ``NUM_TRIALS`` and ``RUN_SEED``.  ``build()``
        executes exactly this source, so reproducer files and the in-process
        oracle are guaranteed to check the same composition.
        """
        body: List[str] = []
        for index, mech in enumerate(self.mechanisms):
            body.extend(mech.to_code(f"m{index}"))
        if self.control is not None:
            body.extend(self.control.to_code("ctl"))
        for projection in self.projections:
            body.append(projection.to_code())
        body.append(
            f"comp.set_termination({self.termination.to_code()}, "
            f"max_passes={self.max_passes})"
        )
        indented = "\n".join(f"    {line}" for line in body)
        return f'''\
"""Model {self.name!r} generated by repro.fuzz (seed {self.seed})."""

from repro.cogframe import (
    Composition,
    GridSearchControlMechanism,
    InputPort,
    IntegratorMechanism,
    ObjectiveMechanism,
    ProcessingMechanism,
    SimulationStep,
)
from repro.cogframe import conditions as C
from repro.cogframe import functions as F

INPUTS = {self.inputs!r}
NUM_TRIALS = {self.num_trials}
RUN_SEED = {self.run_seed}


def build_model():
    comp = Composition({self.name!r})
{indented}
    return comp
'''

    def build(self):
        """Build the composition by executing :meth:`to_source`."""
        namespace: Dict[str, object] = {}
        exec(compile(self.to_source(), f"<fuzz:{self.name}>", "exec"), namespace)
        return namespace["build_model"]()


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _round(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    """A uniform float rounded so that ``repr`` stays short in reproducers."""
    return round(rng.uniform(lo, hi), digits)


def _function_params(rng: random.Random, name: str) -> Dict[str, object]:
    """Constructor parameters for one library function."""
    if name == "linear":
        return {"slope": _round(rng, -2.0, 2.0), "intercept": _round(rng, -1.0, 1.0)}
    if name == "logistic":
        return {"gain": _round(rng, 0.2, 3.0), "bias": _round(rng, -1.0, 1.0)}
    if name == "relu":
        return {"gain": _round(rng, 0.2, 2.0)}
    if name == "tanh":
        return {"gain": _round(rng, 0.2, 2.0), "bias": _round(rng, -1.0, 1.0)}
    if name == "softmax":
        return {"gain": _round(rng, 0.5, 2.0)}
    if name == "gaussian_noise":
        return {
            "standard_deviation": _round(rng, 0.0, 1.0),
            "mean_offset": _round(rng, -0.5, 0.5),
        }
    if name == "uniform_range":
        low = _round(rng, -1.0, 0.5)
        return {"low": low, "high": round(low + rng.uniform(0.1, 2.0), 3)}
    if name == "accumulator":
        return {"rate": _round(rng, -1.5, 1.5), "noise": rng.choice([0.0, 0.25, 1.0])}
    if name == "leaky_integrator":
        return {
            "rate": _round(rng, 0.2, 1.5),
            "leak": _round(rng, 0.0, 0.5),
            "noise": rng.choice([0.0, 0.5]),
            "time_step": rng.choice([0.1, 0.05]),
        }
    if name == "lca":
        return {
            "leak": _round(rng, 0.0, 0.5),
            "competition": _round(rng, 0.0, 0.5),
            "noise": rng.choice([0.0, 0.5]),
            "time_step": rng.choice([0.1, 0.05]),
            "non_negative": rng.choice([0.0, 1.0]),
        }
    if name == "ddm_integrator":
        return {
            "rate": _round(rng, 0.2, 2.0),
            "noise": rng.choice([0.0, 1.0]),
            "time_step": 0.01,
        }
    if name == "ddm_analytical":
        return {
            "drift_rate": _round(rng, 0.2, 2.0),
            "threshold": _round(rng, 0.5, 2.0),
            "noise": _round(rng, 0.5, 1.5),
        }
    if name == "energy":
        return {"weight": _round(rng, -1.0, 1.0), "bias": _round(rng, -0.5, 0.5)}
    if name == "distance":
        return {}
    if name == "linear_combination":
        return {"scale": _round(rng, -1.5, 1.5), "offset": _round(rng, -1.0, 1.0)}
    raise ValueError(f"no parameter recipe for function {name!r}")


def _matrix(rng: random.Random, rows: int, cols: int, quantised: bool) -> List[List[float]]:
    if quantised:
        choices = [-1.0, 0.0, 0.0, 1.0]
        return [[rng.choice(choices) for _ in range(cols)] for _ in range(rows)]
    return [[_round(rng, -1.0, 1.0) for _ in range(cols)] for _ in range(rows)]


def _condition(
    rng: random.Random,
    node_names: Sequence[str],
    max_passes: int,
    depth: int = 0,
) -> ConditionSpec:
    kinds = list(ACTIVATION_CONDITIONS)
    if depth >= 1:
        kinds = [k for k in kinds if k not in ("All", "Any", "Not")]
    # Never starves a node completely; keep it rare.
    weights = {"Never": 0.2, "All": 0.5, "Any": 0.5, "Not": 0.5}
    kind = rng.choices(kinds, weights=[weights.get(k, 1.0) for k in kinds])[0]
    if kind == "Always" or kind == "Never":
        return ConditionSpec(kind)
    if kind == "AtPass":
        return ConditionSpec(kind, [rng.randrange(0, max_passes)])
    if kind == "AfterPass":
        return ConditionSpec(kind, [rng.randrange(0, max_passes)])
    if kind == "EveryNPasses":
        n = rng.randint(1, 3)
        return ConditionSpec(kind, [n, rng.randrange(0, n)])
    if kind == "EveryNCalls":
        return ConditionSpec(kind, [rng.choice(list(node_names)), rng.randint(1, 3)])
    children = [
        _condition(rng, node_names, max_passes, depth + 1)
        for _ in range(1 if kind == "Not" else 2)
    ]
    return ConditionSpec(kind, [], children)


def _projection_between(
    rng: random.Random,
    sender: str,
    sender_size: int,
    receiver: str,
    port: str,
    port_size: int,
    quantised: bool,
) -> ProjectionSpec:
    """A shape-correct projection sender -> receiver.port."""
    if sender_size == port_size and rng.random() < 0.55:
        matrix = None if rng.random() < 0.7 else _round(rng, -1.5, 1.5)
        return ProjectionSpec(sender, receiver, port, matrix)
    if sender_size > port_size and rng.random() < 0.5:
        start = rng.randrange(0, sender_size - port_size + 1)
        return ProjectionSpec(sender, receiver, port, None, (start, port_size))
    return ProjectionSpec(
        sender, receiver, port, _matrix(rng, port_size, sender_size, quantised)
    )


def _output_size(spec: MechanismSpec) -> int:
    """Output size of a generated mechanism (mirrors the function library)."""
    name = spec.function.name
    if name in ("linear_combination", "energy", "distance", "ddm_integrator"):
        return 1
    if name == "ddm_analytical":
        return 2
    if name == "linear_matrix":
        return len(spec.function.params["matrix"])
    return spec.input_size


def _control_spec(rng: random.Random, index: int, input_size: int) -> ControlSpec:
    tie_biased = rng.random() < TIE_BIAS
    num_signals = rng.randint(1, 2)
    levels: List[List[float]] = []
    for _ in range(num_signals):
        count = rng.randint(2, 3)
        if tie_biased:
            levels.append([float(v) for v in rng.sample(range(0, 4), count)])
        else:
            values = sorted(_round(rng, 0.0, 2.0) for _ in range(count))
            levels.append(values)

    steps: List[StepSpec] = []
    sources: List[Tuple] = [("allocation", -1)]
    source_sizes: List[int] = [num_signals]
    if rng.random() < 0.6:
        length = rng.randint(1, input_size)
        start = rng.randrange(0, input_size - length + 1)
        sources.append(("input", start, length))
        source_sizes.append(length)
    if rng.random() < 0.4:
        # A stochastic intermediate step: per-evaluation PRNG coverage.
        noise_len = rng.randint(1, input_size)
        noise_start = rng.randrange(0, input_size - noise_len + 1)
        steps.append(
            StepSpec(
                name=f"noise{index}",
                function=FunctionSpec(
                    "gaussian_noise", _function_params(rng, "gaussian_noise")
                ),
                sources=[("input", noise_start, noise_len)],
                source_sizes=[noise_len],
            )
        )
        sources.append(("step", f"noise{index}"))
        source_sizes.append(noise_len)
    score_size = sum(source_sizes)

    objective = rng.choice(OBJECTIVE_FUNCTIONS)
    params = _function_params(rng, objective)
    if objective == "linear_combination":
        if tie_biased:
            params["scale"] = rng.choice([0.0, 1.0])
            params["offset"] = float(rng.randint(-1, 1))
            params["weights"] = [float(rng.choice([-1, 0, 1])) for _ in range(score_size)]
        else:
            params["weights"] = [_round(rng, -1.0, 1.0) for _ in range(score_size)]
    elif tie_biased and objective == "energy":
        params["weight"] = float(rng.choice([0, 1]))
        params["bias"] = float(rng.randint(0, 2))
    steps.append(
        StepSpec(
            name=f"score{index}",
            function=FunctionSpec(objective, params),
            sources=sources,
            source_sizes=source_sizes,
        )
    )
    return ControlSpec(
        name=f"ctl{index}",
        input_size=input_size,
        levels=levels,
        steps=steps,
        objective_step=f"score{index}",
        is_output=True,
        monitor=rng.random() < 0.5,
    )


def generate_model_spec(seed: int) -> ModelSpec:
    """Generate one random, structurally valid model spec from ``seed``.

    The same seed always yields the same spec (the generator is driven by a
    private :class:`random.Random`), which is what makes every campaign —
    and every reproducer file — replayable from its seed alone.
    """
    rng = random.Random(seed ^ 0x5EED5EED)
    max_passes = rng.randint(2, 5)
    n_mech = rng.randint(2, 5)
    with_control = rng.random() < 0.4

    mechanisms: List[MechanismSpec] = []
    for i in range(n_mech):
        is_input = i == 0 or (i == 1 and rng.random() < 0.25)
        if is_input:
            # Input nodes keep stimulus shape: single port + elementwise fn.
            size = rng.randint(1, 3)
            name = rng.choice(ELEMENTWISE_FUNCTIONS)
            ports = [("input", size)]
            kind = "integrator" if name in ("accumulator", "leaky_integrator", "lca") else "processing"
        else:
            if rng.random() < 0.2:
                ports = [("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))]
            else:
                ports = [("input", rng.randint(1, 3))]
            total = sum(s for _, s in ports)
            pool = list(ELEMENTWISE_FUNCTIONS) + list(REDUCER_FUNCTIONS)
            if rng.random() < 0.15:
                name = "linear_matrix"
            else:
                name = rng.choice(pool)
            if name == "distance" and total < 2:
                name = "linear_combination"
            kind = (
                "integrator"
                if name in ("accumulator", "leaky_integrator", "lca", "ddm_integrator")
                else ("objective" if name in REDUCER_FUNCTIONS else "processing")
            )
        if name == "linear_matrix":
            total = sum(s for _, s in ports)
            params: Dict[str, object] = {
                "matrix": _matrix(rng, rng.randint(1, 3), total, rng.random() < 0.3)
            }
        elif name == "linear_combination":
            total = sum(s for _, s in ports)
            params = _function_params(rng, name)
            if rng.random() < 0.5:
                params["weights"] = [_round(rng, -1.0, 1.0) for _ in range(total)]
        else:
            params = _function_params(rng, name)
        mechanisms.append(
            MechanismSpec(
                name=f"n{i}",
                kind=kind,
                function=FunctionSpec(name, params),
                ports=list(ports),
                is_input=is_input,
                monitor=rng.random() < 0.3,
            )
        )

    sizes = {m.name: _output_size(m) for m in mechanisms}
    port_table = {m.name: list(m.ports) for m in mechanisms}

    control: Optional[ControlSpec] = None
    if with_control:
        control = _control_spec(rng, n_mech, rng.randint(1, 3))
        sizes[control.name] = control.num_signals
        port_table[control.name] = [("input", control.input_size)]

    names = [m.name for m in mechanisms]
    all_names = names + ([control.name] if control else [])

    projections: List[ProjectionSpec] = []
    quantised = rng.random() < 0.3
    # Forward edges: every non-input mechanism gets at least one feeder.
    for j, mech in enumerate(mechanisms[1:], start=1):
        feeders = rng.randint(1, min(2, j))
        for sender in rng.sample(names[:j], feeders):
            port, port_size = rng.choice(port_table[mech.name])
            projections.append(
                _projection_between(
                    rng, sender, sizes[sender], mech.name, port, port_size, quantised
                )
            )
    if control is not None:
        # The controller observes some upstream node...
        sender = rng.choice(names)
        projections.append(
            _projection_between(
                rng, sender, sizes[sender], control.name, "input",
                control.input_size, quantised,
            )
        )
        # ... and with some probability feeds its allocation downstream.
        if len(mechanisms) > 1 and rng.random() < 0.7:
            receiver = rng.choice(mechanisms[1:])
            port, port_size = rng.choice(port_table[receiver.name])
            projections.append(
                _projection_between(
                    rng, control.name, control.num_signals, receiver.name,
                    port, port_size, quantised,
                )
            )
    # Feedback edges (cycles, possibly self-loops).
    if rng.random() < 0.45:
        sender = rng.choice(names)
        receiver = rng.choice(mechanisms)
        port, port_size = rng.choice(port_table[receiver.name])
        projections.append(
            _projection_between(
                rng, sender, sizes[sender], receiver.name, port, port_size, quantised
            )
        )

    # Conditions (pass-start-snapshot semantics apply; see DESIGN.md).
    for mech in mechanisms:
        if not mech.is_input and rng.random() < 0.45:
            mech.condition = _condition(rng, all_names, max_passes)
    if control is not None and rng.random() < 0.3:
        control.condition = _condition(rng, all_names, max_passes)

    # Designated outputs: at least one; bias toward sink nodes.
    output_pool = mechanisms[1:] or mechanisms
    for mech in output_pool:
        mech.is_output = rng.random() < 0.4
    if not any(m.is_output for m in mechanisms) and control is None:
        output_pool[-1].is_output = True

    # Termination.
    if rng.random() < 0.3:
        node = rng.choice(all_names)
        termination = ConditionSpec(
            "ThresholdCrossed",
            [
                node,
                _round(rng, 0.2, 3.0),
                rng.choice([">=", ">", "<=", "<"]),
                rng.choice(["max_abs", "max", "min"]),
            ],
        )
    else:
        termination = ConditionSpec("AfterNPasses", [max_passes])

    # External inputs: one or two rows over the input nodes' output sizes.
    input_width = sum(sizes[m.name] for m in mechanisms if m.is_input)
    rows = rng.randint(1, 2)
    inputs = [
        [float(rng.choice([rng.randint(-2, 2), _round(rng, -2.0, 2.0)])) for _ in range(input_width)]
        for _ in range(rows)
    ]

    return ModelSpec(
        name=f"fuzz_{seed}",
        seed=seed,
        mechanisms=mechanisms,
        projections=projections,
        termination=termination,
        max_passes=max_passes,
        control=control,
        inputs=inputs,
        num_trials=rng.randint(1, 3),
        run_seed=rng.randrange(0, 1 << 16),
    )


# ---------------------------------------------------------------------------
# Scaling workload (mega-models for the compile-time benchmarks)
# ---------------------------------------------------------------------------


def generate_scale_spec(
    seed: int,
    n_mechanisms: int = 200,
    width: int = 8,
    fan_in: int = 2,
    feedback_rate: float = 0.05,
    with_controls: int = 0,
    max_passes: int = 3,
) -> ModelSpec:
    """Generate a layered mega-model for compile-time scaling measurements.

    Where :func:`generate_model_spec` explores the *breadth* of the
    compilable subset with a handful of mechanisms, this generator explores
    its *depth*: ``n_mechanisms`` mechanisms arranged in layers of ``width``,
    each fed by up to ``fan_in`` upstream mechanisms, with ``feedback_rate``
    of the nodes also sending a back-edge (legal under the double-buffered
    pass semantics).  ``with_controls`` appends that many small grid-search
    controllers.  The same seed always yields the same spec, and the result
    is an ordinary :class:`ModelSpec` — ``to_source()``/``build()`` and the
    differential oracle work unchanged.

    Used by perfbench's ``compile_scale`` workload (cold compile time at
    50/100/200 mechanisms) and, through :func:`scale_edit_specs`, by the
    edit-recompile floor in ``benchmarks/bench_fig7_scale.py``.
    """
    if n_mechanisms < 2:
        raise ValueError("scale specs need at least 2 mechanisms")
    rng = random.Random(seed ^ 0x5CA1E5EED)
    width = max(1, int(width))

    #: Deterministic elementwise choices dominate so sanitize (one
    #: interpretive run of the whole model) stays cheap at depth.
    deterministic = ("linear", "logistic", "relu", "tanh")

    mechanisms: List[MechanismSpec] = []
    for i in range(n_mechanisms):
        is_input = i < width
        size = rng.randint(1, 3)
        if i % 7 == 3 and not is_input:
            name = rng.choice(("linear_combination", "energy"))
            kind = "objective"
        elif i % 23 == 11 and not is_input:
            name = "gaussian_noise"
            kind = "processing"
        else:
            name = rng.choice(deterministic)
            kind = "processing"
        params = _function_params(rng, name)
        mechanisms.append(
            MechanismSpec(
                name=f"n{i}",
                kind=kind,
                function=FunctionSpec(name, params),
                ports=[("input", size)],
                is_input=is_input,
                is_output=i >= n_mechanisms - width,
                monitor=rng.random() < 0.02,
            )
        )

    sizes = {m.name: _output_size(m) for m in mechanisms}
    names = [m.name for m in mechanisms]

    projections: List[ProjectionSpec] = []
    for i in range(width, n_mechanisms):
        mech = mechanisms[i]
        feeders = rng.sample(names[:i], min(fan_in, i, rng.randint(1, fan_in)))
        port, port_size = mech.ports[0]
        for sender in feeders:
            projections.append(
                _projection_between(
                    rng, sender, sizes[sender], mech.name, port, port_size, False
                )
            )
        if rng.random() < feedback_rate and i > width:
            target = mechanisms[rng.randrange(width, i)]
            t_port, t_size = target.ports[0]
            projections.append(
                _projection_between(
                    rng, mech.name, sizes[mech.name], target.name, t_port, t_size, False
                )
            )
        if rng.random() < 0.02:
            mech.condition = ConditionSpec(
                "EveryNPasses", [rng.randint(1, 2), 0]
            )

    control: Optional[ControlSpec] = None
    extra_controls: List[ControlSpec] = []
    for k in range(max(0, int(with_controls))):
        ctl = _control_spec(rng, n_mechanisms + k, rng.randint(1, 2))
        sender = rng.choice(names)
        projections.append(
            _projection_between(
                rng, sender, sizes[sender], ctl.name, "input", ctl.input_size, False
            )
        )
        if control is None:
            control = ctl
        else:
            extra_controls.append(ctl)
    if extra_controls:  # pragma: no cover - ModelSpec carries one control today
        raise ValueError("generate_scale_spec supports at most one control")

    input_width = sum(sizes[m.name] for m in mechanisms if m.is_input)
    inputs = [[_round(rng, -1.0, 1.0) for _ in range(input_width)]]

    return ModelSpec(
        name=f"scale_{seed}_{n_mechanisms}",
        seed=seed,
        mechanisms=mechanisms,
        projections=projections,
        termination=ConditionSpec("AfterNPasses", [max_passes]),
        max_passes=max_passes,
        control=control,
        inputs=inputs,
        num_trials=1,
        run_seed=rng.randrange(0, 1 << 16),
    )


def scale_edit_specs(spec: ModelSpec):
    """Two deterministic single-edit copies of a scale ``spec``.

    Returns ``((param_edit, mechanism_name), (projection_edit, receiver_name))``.
    The param edit scales one mechanism function parameter — those load from
    the params buffer, so ``recompile`` resolves it without re-lowering any
    function ("params-only").  The projection edit scales one non-zero matrix,
    which is baked into the receiver's node function, forcing the per-unit
    re-lower + live-patch path ("patched").
    """
    import copy

    param_edit = copy.deepcopy(spec)
    param_target = None
    for mech in param_edit.mechanisms:
        if mech.is_input:
            continue
        for key, value in mech.function.params.items():
            if key != "non_negative" and isinstance(value, float) and value:
                mech.function.params[key] = _scale_value(value)
                param_target = mech.name
                break
        if param_target:
            break

    proj_edit = copy.deepcopy(spec)
    proj_target = None
    for projection in proj_edit.projections:
        if isinstance(projection.matrix, list) and any(
            v for row in projection.matrix for v in row
        ):
            projection.matrix = [
                [_scale_value(v) for v in row] for row in projection.matrix
            ]
            proj_target = projection.receiver
            break
    if param_target is None or proj_target is None:
        raise ValueError("spec offers no editable parameter/projection site")
    return (param_edit, param_target), (proj_edit, proj_target)


# ---------------------------------------------------------------------------
# Edit perturbation (the incremental-recompile oracle leg)
# ---------------------------------------------------------------------------


def _scale_value(value: float) -> float:
    """A nearby-but-different float (never 0 -> nonzero or sign flips)."""
    return round(value * 1.25, 9)


def perturb_spec(spec: ModelSpec, seed: int):
    """A value-level edit of ``spec``: ``(edited_spec, changed_names)``.

    Picks one editable site — a mechanism's nonzero float parameter, a
    projection's matrix/scalar weight, a control step parameter or level
    row, or the termination threshold — and scales it by 1.25.  Edits never
    change shapes, structure or zero/nonzero-ness, so the edited model
    compiles under the same static layout and the incremental recompiler
    should take the patch path; the oracle's incremental leg asserts the
    patched artifact is bitwise-equal to a cold compile of the edit.

    Returns ``None`` when the spec offers no eligible edit site.
    ``changed_names`` is informational (the oracle exercises the structural
    diff, not explicit ``changed=`` sets).
    """
    import copy

    rng = random.Random(seed ^ 0x0ED17)
    edited = copy.deepcopy(spec)
    candidates = []

    for index, mech in enumerate(edited.mechanisms):
        for key, value in mech.function.params.items():
            if key == "non_negative":
                continue  # a baked branch selector, not a magnitude
            if isinstance(value, float) and value != 0.0:
                candidates.append(("mech-param", index, key))
            elif (
                key in ("weights", "matrix")
                and isinstance(value, list)
                and any(any(v) if isinstance(v, list) else bool(v) for v in value)
            ):
                candidates.append(("mech-list", index, key))
    for index, projection in enumerate(edited.projections):
        if isinstance(projection.matrix, float) and projection.matrix != 0.0:
            candidates.append(("proj-scalar", index, None))
        elif isinstance(projection.matrix, list) and any(
            v for row in projection.matrix for v in row
        ):
            candidates.append(("proj-matrix", index, None))
    if edited.control is not None:
        for s_index, step in enumerate(edited.control.steps):
            for key, value in step.function.params.items():
                if isinstance(value, float) and value != 0.0:
                    candidates.append(("step-param", s_index, key))
        for l_index, level in enumerate(edited.control.levels):
            if any(level):
                candidates.append(("ctl-level", l_index, None))
    if edited.termination.kind == "ThresholdCrossed":
        candidates.append(("termination", None, None))

    if not candidates:
        return None
    kind, index, key = rng.choice(candidates)

    if kind == "mech-param":
        mech = edited.mechanisms[index]
        mech.function.params[key] = _scale_value(mech.function.params[key])
        changed = {mech.name}
    elif kind == "mech-list":
        mech = edited.mechanisms[index]
        value = mech.function.params[key]
        if value and isinstance(value[0], list):
            mech.function.params[key] = [[_scale_value(v) for v in row] for row in value]
        else:
            mech.function.params[key] = [_scale_value(v) for v in value]
        changed = {mech.name}
    elif kind == "proj-scalar":
        projection = edited.projections[index]
        projection.matrix = _scale_value(projection.matrix)
        changed = {projection.receiver}
    elif kind == "proj-matrix":
        projection = edited.projections[index]
        projection.matrix = [
            [_scale_value(v) for v in row] for row in projection.matrix
        ]
        changed = {projection.receiver}
    elif kind == "step-param":
        step = edited.control.steps[index]
        step.function.params[key] = _scale_value(step.function.params[key])
        changed = {edited.control.name}
    elif kind == "ctl-level":
        edited.control.levels[index] = [
            _scale_value(v) for v in edited.control.levels[index]
        ]
        changed = {edited.control.name}
    else:  # termination threshold
        edited.termination.args[1] = _scale_value(edited.termination.args[1])
        changed = set()

    return edited, changed
