"""The cross-engine differential oracle.

For one model the oracle runs a matrix of *legs* and demands agreement:

* **cold vs cached compile** — each pipeline is compiled twice, once with the
  analysis cache disabled (``flags={"analysis_cache": False}``) and once with
  it enabled; the printed IR of both compiles must be byte-identical.  Every
  campaign therefore doubles as a standing stale-analysis audit of the
  preserved-analyses contracts from PR 3.
* **engine conformance** — the cached artifact runs on every registered
  execution engine; the raw result, monitor and state buffers (the state
  buffer includes every mechanism's final PRNG ``(key, counter)``) must be
  bitwise identical to the ``compiled`` engine's buffers.  An engine raising
  where the baseline succeeded (or vice versa) is a divergence too.  The
  ``ir-interp`` engine executes the optimized IR directly, so this leg is
  also the structured Python emitter's bitwise reference: relooping, frame
  planning and constant pooling must never change observable behaviour.
* **pipeline conformance** — the ``compiled``-engine buffers must be bitwise
  identical across every pipeline in the matrix (O0 through O3 by default):
  optimisation must not change observable behaviour.
* **reference conformance** — the interpretive :class:`ReferenceRunner` is
  the semantic baseline; compiled outputs and pass counts must match it to
  the suite-wide tolerance (``rtol=1e-9``, ``atol=1e-12``; engines share one
  IR module so only this leg is toleranced, everything else is bitwise).
* **lane conformance** (``--lane``) — a small ``run_batch`` (distinct
  seeds) on the vectorised lane engine must reproduce the scalar
  ``compiled`` engine's per-element buffers: within :data:`LANE_RTOL` on a
  controller-free model, bitwise on a model with a grid-search controller
  (the stacked grid-kernel launch).
* **sanitizer** (``--sanitizer``) and **incremental** (``--incremental``)
  legs — see :func:`_sanitizer_leg` and :func:`_incremental_leg`.

Each leg other than the cold/cached audit is one
:func:`repro.fuzz.compare.compare` of two sides run through
:func:`~repro.fuzz.compare.observe`, so error symmetry (both sides raising
agrees) and the NaN-aware buffer check are defined once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.distill import compile_composition
from ..driver.engines import engine_capabilities, list_engines
from .compare import LANE_RTOL, buffers_equal, compare, observe, raw_buffers
from .compare import final_rng_counters as _final_rng_counters  # noqa: F401
from .gen import ModelSpec

__all__ = [
    "DEFAULT_PIPELINES",
    "LANE_RTOL",
    "Divergence",
    "ModelVerdict",
    "OracleConfig",
    "check_spec",
    "check_composition",
    "raw_buffers",
    "buffers_equal",
]

#: One pipeline per paper optimisation level — the default oracle matrix.
DEFAULT_PIPELINES: Tuple[str, ...] = tuple(f"default<O{level}>" for level in range(4))

BASELINE_ENGINE = "compiled"


@dataclass
class Divergence:
    """One observed disagreement between oracle legs."""

    kind: str  # "analysis-cache" | "engine" | "engine-error" | "pipeline" | "reference" | "compile-error" | "sanitizer" | "lane" | "incremental"
    pipeline: str
    engine: Optional[str] = None
    detail: str = ""

    def describe(self) -> str:
        engine = f" engine={self.engine}" if self.engine else ""
        return f"[{self.kind}] pipeline={self.pipeline!r}{engine}: {self.detail}"


@dataclass
class ModelVerdict:
    """The oracle's verdict on one model."""

    model_name: str
    divergences: List[Divergence] = field(default_factory=list)
    legs: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class OracleConfig:
    """What the oracle checks; the default covers the full acceptance matrix."""

    pipelines: Sequence[str] = DEFAULT_PIPELINES
    #: ``None`` = every engine in the driver registry.
    engines: Optional[Sequence[str]] = None
    workers: int = 2
    check_reference: bool = True
    check_analysis_cache: bool = True
    #: Recompile the first pipeline with ``flags={"sanitize": True}`` and
    #: cross-validate the static safety suite (see :mod:`repro.lint`): a
    #: sanitizer trap on a model with no lint findings is an analysis false
    #: negative, and a trap-free instrumented run must reproduce the
    #: baseline buffers bitwise.  Off by default (the nightly campaign and
    #: ``python -m repro.fuzz --sanitizer`` enable it).
    check_sanitizer: bool = False
    #: Apply an edit to a live model via :meth:`CompiledModel.recompile` and
    #: demand buffers bitwise equal to a *cold* full compile of the edited
    #: model on every engine — the incremental-recompilation differential
    #: contract.  Runs when :func:`check_composition` is given the edited
    #: model's builder (:func:`check_spec` derives one with
    #: :func:`repro.fuzz.gen.perturb_spec`).  Off by default (the nightly
    #: campaign and ``python -m repro.fuzz --incremental`` enable it).
    check_incremental: bool = False
    #: Execute a small ``run_batch`` (one lane per batch element, distinct
    #: seeds) on the lane engine and demand per-element result/monitor/state
    #: buffers equal to running the same elements on the scalar ``compiled``
    #: engine (within :data:`LANE_RTOL` unless the model has a grid-search
    #: controller, then bitwise).  Off by default (the nightly campaign
    #: and ``python -m repro.fuzz --lane`` enable it).
    check_lane: bool = False

    def resolved_engines(self) -> List[str]:
        if self.engines is not None:
            return list(self.engines)
        # The lane engine is deliberately absent from the default (bitwise)
        # engine matrix: its transcendental intrinsics and ``rng_normal``
        # values may differ from the scalar engines' in the final ulp (numpy
        # vs libm kernels),
        # so it is checked by its own ``check_lane`` leg under the documented
        # :data:`LANE_RTOL` instead.  Passing ``engines=[..., "lane"]``
        # explicitly still opts it into the bitwise legs.
        return [name for name in list_engines() if name != "lane"]


def _engine_options(engine: str, workers: int) -> Dict[str, object]:
    capabilities = engine_capabilities().get(engine)
    if capabilities is not None and capabilities.supports_workers and workers:
        return {"workers": workers}
    return {}


def _run(model, engine: str, inputs, num_trials: int, run_seed: int, workers: int):
    """Observe ``model`` on ``engine``; a compile error string passes through."""
    if isinstance(model, str):
        return model
    return observe(
        raw_buffers, model, inputs, num_trials, run_seed, engine,
        **_engine_options(engine, workers),
    )


# ---------------------------------------------------------------------------
# The sanitizer cross-validation leg
# ---------------------------------------------------------------------------


def _sanitizer_leg(
    build, inputs, num_trials, run_seed, pipeline_text, baseline, verdict
) -> List[Divergence]:
    """Cross-validate the static safety suite against its runtime sanitizer.

    The leg recompiles the model with ``flags={"sanitize": True}`` and runs
    it.  Three outcomes:

    * a :class:`~repro.backends.runtime.SanitizerTrap` on a model the lint
      suite reports *clean* (no diagnostics at default severity) is a lint
      false negative — a divergence;
    * a trap on a model lint already flagged is the suite working as
      documented — no divergence;
    * no trap: the instrumented run must agree with the uninstrumented
      ``baseline`` (instrumentation must never change behaviour).
    """
    from ..backends.runtime import SanitizerTrap
    from ..ir.diagnostics import at_or_above
    from ..lint import run_lint

    verdict.legs += 1
    models = []

    def instrumented_run():
        models.append(
            compile_composition(build(), pipeline=pipeline_text, flags={"sanitize": True})
        )
        return raw_buffers(models[0], inputs, num_trials, run_seed, BASELINE_ENGINE)

    try:
        sanitized = observe(instrumented_run)
    finally:
        for model in models:
            model.close_engines()

    if isinstance(sanitized, str) and sanitized.startswith(f"{SanitizerTrap.__name__}:"):
        try:
            findings = at_or_above(run_lint(models[0].module))
        except Exception as exc:  # noqa: BLE001 - the oracle reports, never raises
            detail = f"lint failed while triaging a trap: {type(exc).__name__}: {exc}"
        else:
            if findings:
                return []
            detail = "sanitizer trap on a statically clean model (lint false negative)"
        return [Divergence("sanitizer", pipeline_text, None, f"{detail} ({sanitized})")]

    mismatch = compare(baseline, sanitized, ("plain", "sanitize"), models[0] if models else None)
    if mismatch is None:
        return []
    return [
        Divergence(
            "sanitizer", pipeline_text, None,
            f"instrumented vs plain compile: {mismatch.detail}",
        )
    ]


# ---------------------------------------------------------------------------
# The batched-lane differential leg
# ---------------------------------------------------------------------------

#: Batch elements (= lanes) the lane leg runs; each gets a distinct seed so
#: the comparison also covers per-lane PRNG key derivation.
LANE_LEG_BATCH = 3


def _lane_buffers_equal(a, b) -> Optional[str]:
    """:func:`buffers_equal` under the lane leg's :data:`LANE_RTOL`."""
    return buffers_equal(a, b, rtol=LANE_RTOL)


def _lane_leg(
    cached, inputs, num_trials, run_seed, pipeline_text, verdict
) -> List[Divergence]:
    """The batched-lane differential: ``run_batch`` lane vs scalar compiled.

    Allocates :data:`LANE_LEG_BATCH` elements with consecutive seeds and
    executes them as one batch on both engines; per element the raw buffers
    must agree.  A controller-free model runs as one lane per element and
    agrees under :func:`_lane_buffers_equal`; a model with a grid-search
    controller runs every scheduler step's grid evaluations as one stacked
    launch of the grid kernel ``gpu-sim`` shares, and must agree bitwise.
    """
    verdict.legs += 1
    seeds = [run_seed + i for i in range(LANE_LEG_BATCH)]

    def batch_buffers(engine):
        elements = [
            (cached.allocate_buffers(inputs, num_trials, element_seed), num_trials)
            for element_seed in seeds
        ]
        cached.engine_instance(engine).execute_batch(elements)
        return [
            tuple(list(buffers[name]) for name in ("results", "monitor", "state"))
            for buffers, _ in elements
        ]

    mismatch = compare(
        observe(batch_buffers, BASELINE_ENGINE),
        observe(batch_buffers, "lane"),
        (BASELINE_ENGINE, "lane"),
        cached,
        equal=buffers_equal if cached.grid_searches else _lane_buffers_equal,
    )
    if mismatch is None:
        return []
    return [
        Divergence(
            "lane", pipeline_text, "lane", f"run_batch seeds {seeds}: {mismatch.detail}"
        )
    ]


# ---------------------------------------------------------------------------
# The edit-recompile differential leg
# ---------------------------------------------------------------------------


def _incremental_leg(
    build, build_edited, inputs, num_trials, run_seed, config, verdict
) -> List[Divergence]:
    """The edit-recompile differential: patched-in-place vs cold full compile.

    Compiles the original model (``build``) and runs it once on every engine
    (so engine bindings and cached scheduler state exist before the edit),
    applies the edited model (``build_edited``) through
    :meth:`CompiledModel.recompile` (structural-diff path — no explicit
    ``changed=`` hints), cold-compiles the edited model, and requires the two
    artifacts to agree on every engine.  A compile or recompile error is that
    side's observation on every engine.
    """
    pipeline_text = config.pipelines[0]
    engines = config.resolved_engines()
    verdict.legs += 1
    models = []
    report: Dict[str, object] = {}

    def compiled(composition):
        models.append(compile_composition(composition, pipeline=pipeline_text))
        return models[-1]

    def patch():
        model = compiled(build())
        for engine in engines:
            _run(model, engine, inputs, num_trials, run_seed, config.workers)
        report.update(model.recompile(composition=build_edited()))
        return model

    divergences: List[Divergence] = []
    try:
        patched = observe(patch)
        cold = observe(lambda: compiled(build_edited()))
        context = (
            f"(mode={report.get('mode', '?')}, relowered={report.get('relowered', '?')})"
        )
        for engine in engines:
            verdict.legs += 1
            mismatch = compare(
                _run(patched, engine, inputs, num_trials, run_seed, config.workers),
                _run(cold, engine, inputs, num_trials, run_seed, config.workers),
                ("patched", "cold"),
                models[0] if models else None,
            )
            if mismatch is not None:
                divergences.append(
                    Divergence(
                        "incremental", pipeline_text, engine, f"{mismatch.detail} {context}"
                    )
                )
    finally:
        for model in models:
            model.close_engines()
    return divergences


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def check_composition(
    build: Callable[[], object],
    inputs,
    num_trials: int,
    run_seed: int,
    config: Optional[OracleConfig] = None,
    model_name: str = "<model>",
    build_edited: Optional[Callable[[], object]] = None,
) -> ModelVerdict:
    """Run the full differential matrix over one model.

    ``build`` must return a *fresh* composition per call (compiles mutate
    nothing, but the reference runner and sanitization both execute the
    model's stateful objects).  ``build_edited`` builds the edited model the
    incremental leg recompiles to; without it that leg does not run.
    """
    config = config or OracleConfig()
    verdict = ModelVerdict(model_name=model_name)
    started = time.perf_counter()
    engines = config.resolved_engines()

    first_pipeline: Optional[str] = None
    first_baseline = None
    first_results = None

    for pipeline_text in config.pipelines:
        # -- compile legs: cached is the artifact under test, cold the audit --
        try:
            cached = compile_composition(build(), pipeline=pipeline_text)
        except Exception as exc:  # noqa: BLE001 - the oracle reports, never raises
            verdict.divergences.append(
                Divergence("compile-error", pipeline_text, None, f"{type(exc).__name__}: {exc}")
            )
            continue
        verdict.legs += 1
        if config.check_analysis_cache:
            try:
                cold = compile_composition(
                    build(), pipeline=pipeline_text, flags={"analysis_cache": False}
                )
                verdict.legs += 1
                if cold.print_ir() != cached.print_ir():
                    verdict.divergences.append(
                        Divergence(
                            "analysis-cache",
                            pipeline_text,
                            None,
                            "printed IR differs between cold and cached "
                            "analysis-manager compiles (stale analysis?)",
                        )
                    )
            except Exception as exc:  # noqa: BLE001
                verdict.divergences.append(
                    Divergence(
                        "analysis-cache", pipeline_text, None,
                        f"cold compile failed: {type(exc).__name__}: {exc}",
                    )
                )

        # -- engine legs ------------------------------------------------------
        baseline = _run(cached, BASELINE_ENGINE, inputs, num_trials, run_seed, config.workers)
        verdict.legs += 1

        try:
            for engine in engines:
                if engine == BASELINE_ENGINE:
                    continue
                verdict.legs += 1
                mismatch = compare(
                    baseline,
                    _run(cached, engine, inputs, num_trials, run_seed, config.workers),
                    (BASELINE_ENGINE, engine),
                    cached,
                )
                if mismatch is not None:
                    verdict.divergences.append(
                        Divergence(
                            "engine-error" if mismatch.raised else "engine",
                            pipeline_text,
                            engine,
                            mismatch.detail,
                        )
                    )

            # -- cross-pipeline leg -------------------------------------------
            # The first pipeline anchors the comparison whether its baseline
            # ran or raised: a pipeline whose compiled run raises while
            # another pipeline's succeeds is a divergence (optimisation must
            # not change observable behaviour, crashes included).
            if first_pipeline is None:
                first_pipeline = pipeline_text
                first_baseline = baseline
                if config.check_reference:
                    first_results = observe(
                        cached.run, inputs, num_trials=num_trials, seed=run_seed
                    )
                if config.check_sanitizer:
                    verdict.divergences.extend(
                        _sanitizer_leg(
                            build, inputs, num_trials, run_seed,
                            pipeline_text, baseline, verdict,
                        )
                    )
                if config.check_lane:
                    verdict.divergences.extend(
                        _lane_leg(
                            cached, inputs, num_trials, run_seed,
                            pipeline_text, verdict,
                        )
                    )
            else:
                verdict.legs += 1
                mismatch = compare(
                    first_baseline, baseline, (first_pipeline, pipeline_text), cached
                )
                if mismatch is not None:
                    verdict.divergences.append(
                        Divergence(
                            "pipeline",
                            pipeline_text,
                            None,
                            f"vs {first_pipeline!r}: {mismatch.detail}",
                        )
                    )
        finally:
            cached.close_engines()

    # -- reference leg ---------------------------------------------------------
    if config.check_reference and first_pipeline is not None:
        from ..cogframe.runner import ReferenceRunner

        verdict.legs += 1
        mismatch = compare(
            observe(
                lambda: ReferenceRunner(build(), seed=run_seed).run(
                    inputs, num_trials=num_trials
                )
            ),
            first_results,
            ("reference", "compiled"),
            equal=_compare_reference,
        )
        if mismatch is not None:
            verdict.divergences.append(
                Divergence("reference", first_pipeline, None, mismatch.detail)
            )

    # -- incremental leg -------------------------------------------------------
    if config.check_incremental and build_edited is not None and config.pipelines:
        verdict.divergences.extend(
            _incremental_leg(
                build, build_edited, inputs, num_trials, run_seed, config, verdict
            )
        )

    verdict.seconds = time.perf_counter() - started
    return verdict


def _compare_reference(reference, compiled_results, rtol=1e-9, atol=1e-12) -> Optional[str]:
    """Compare reference-runner results to compiled results (toleranced)."""
    if len(reference.trials) != len(compiled_results.trials):
        return (
            f"trial counts differ: reference {len(reference.trials)} vs "
            f"compiled {len(compiled_results.trials)}"
        )
    for index, (ref, cand) in enumerate(zip(reference.trials, compiled_results.trials)):
        if ref.passes != cand.passes:
            return f"trial {index}: pass counts differ ({ref.passes} vs {cand.passes})"
        for node, value in ref.outputs.items():
            if not np.allclose(
                value, cand.outputs[node], rtol=rtol, atol=atol, equal_nan=True
            ):
                return (
                    f"trial {index}, node {node!r}: reference {value!r} vs "
                    f"compiled {cand.outputs[node]!r}"
                )
    return None


def check_spec(spec: ModelSpec, config: Optional[OracleConfig] = None) -> ModelVerdict:
    """Run the oracle over a generated :class:`ModelSpec`.

    With ``check_incremental`` the edited model is
    :func:`repro.fuzz.gen.perturb_spec` of ``spec`` (a spec without an
    editable value skips the leg).
    """
    from .gen import perturb_spec

    config = config or OracleConfig()
    perturbed = perturb_spec(spec, spec.seed) if config.check_incremental else None
    return check_composition(
        spec.build,
        spec.inputs,
        spec.num_trials,
        spec.run_seed,
        config=config,
        model_name=spec.name,
        build_edited=perturbed[0].build if perturbed is not None else None,
    )
