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
* **lane conformance** (``--lane``) — a small ``run_batch`` (one lane per
  element, distinct seeds) on the vectorised lane engine must reproduce the
  scalar ``compiled`` engine's per-element buffers: bitwise, except for a
  documented ulp-level fallback (:data:`LANE_RTOL`) absorbing numpy-vs-libm
  transcendental rounding (the ``exp``/``log``/``log1p``/``tanh``/``pow``
  intrinsics and the ``rng_normal`` draw); PRNG counters stay bitwise.

Buffers are compared NaN-aware (two NaNs at the same slot agree): engines
must diverge from each other, not merely from IEEE comfort.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.distill import compile_composition
from ..driver.engines import engine_capabilities, list_engines
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

    kind: str  # "analysis-cache" | "engine" | "engine-error" | "pipeline" | "reference" | "compile-error" | "sanitizer" | "lane"
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
    #: Final PRNG counters of the baseline leg, per mechanism (first pipeline).
    rng_counters: Dict[str, int] = field(default_factory=dict)

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
    #: Perturb one parameter/matrix/threshold of the spec
    #: (:func:`repro.fuzz.gen.perturb_spec`), apply the edit to a live model
    #: via :meth:`CompiledModel.recompile` and demand buffers bitwise equal
    #: to a *cold* full compile of the edited model on every engine — the
    #: incremental-recompilation differential contract.  Off by default (the
    #: nightly campaign and ``python -m repro.fuzz --incremental`` enable
    #: it); only runs for spec-driven checks (:func:`check_spec`).
    check_incremental: bool = False
    #: Execute a small ``run_batch`` (one lane per batch element, distinct
    #: seeds) on the lane engine and demand per-element result/monitor/state
    #: buffers equal to running the same elements on the scalar ``compiled``
    #: engine — bitwise, with the documented :data:`LANE_RTOL` fallback for
    #: float values (numpy's transcendental kernels — the exp/log/log1p/
    #: tanh/pow intrinsics and ``np.log`` inside ``rng_normal`` — may differ
    #: from libm's in the final ulp); final
    #: per-mechanism PRNG counters must stay bitwise.  Off by default (the
    #: nightly campaign and ``python -m repro.fuzz --lane`` enable it).
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


# ---------------------------------------------------------------------------
# Raw execution and comparison helpers
# ---------------------------------------------------------------------------

# The bitwise comparators are shared with the pipeline autotuner (which
# demands the exact same equivalence bar before racing a candidate pipeline)
# and live in repro.fuzz.compare; the historical oracle names re-export them
# so existing callers and reproducer files keep working.
from .compare import buffers_equal, raw_buffers  # noqa: E402,F401
from .compare import arrays_equal as _arrays_equal  # noqa: E402,F401
from .compare import final_rng_counters as _final_rng_counters  # noqa: E402


def _engine_options(engine: str, workers: int) -> Dict[str, object]:
    capabilities = engine_capabilities().get(engine)
    if capabilities is not None and capabilities.supports_workers and workers:
        return {"workers": workers}
    return {}


# ---------------------------------------------------------------------------
# The sanitizer cross-validation leg
# ---------------------------------------------------------------------------


def _sanitizer_leg(
    build, inputs, num_trials, run_seed, pipeline_text, baseline, baseline_error,
    verdict,
) -> List[Divergence]:
    """Cross-validate the static safety suite against its runtime sanitizer.

    The leg recompiles the model with ``flags={"sanitize": True}`` and runs
    it.  Three outcomes:

    * a :class:`~repro.backends.runtime.SanitizerTrap` on a model the lint
      suite reports *clean* (no diagnostics at default severity) is a lint
      false negative — a divergence;
    * a trap on a model lint already flagged is the suite working as
      documented — no divergence;
    * no trap: the instrumented buffers must be bitwise identical to the
      uninstrumented baseline (instrumentation must never change behaviour).
    """
    from ..backends.runtime import SanitizerTrap
    from ..lint import run_lint
    from ..ir.diagnostics import at_or_above

    divergences: List[Divergence] = []
    verdict.legs += 1
    instrumented = None
    san_buffers = None
    san_trap: Optional[str] = None
    san_error: Optional[str] = None
    try:
        instrumented = compile_composition(
            build(), pipeline=pipeline_text, flags={"sanitize": True}
        )
        san_buffers = raw_buffers(
            instrumented, inputs, num_trials, run_seed, BASELINE_ENGINE
        )
    except SanitizerTrap as exc:
        san_trap = str(exc)
    except Exception as exc:  # noqa: BLE001 - the oracle reports, never raises
        san_error = f"{type(exc).__name__}: {exc}"
    finally:
        if instrumented is not None:
            instrumented.close_engines()

    if san_trap is not None:
        try:
            findings = at_or_above(run_lint(instrumented.module))
        except Exception as exc:  # noqa: BLE001
            findings = None
            divergences.append(
                Divergence(
                    "sanitizer", pipeline_text, None,
                    f"lint failed while triaging a trap: "
                    f"{type(exc).__name__}: {exc} (trap: {san_trap})",
                )
            )
        if findings is not None and not findings:
            divergences.append(
                Divergence(
                    "sanitizer", pipeline_text, None,
                    f"sanitizer trap on a statically clean model "
                    f"(lint false negative): {san_trap}",
                )
            )
        return divergences

    if (san_buffers is None) != (baseline is None):
        divergences.append(
            Divergence(
                "sanitizer", pipeline_text, None,
                f"instrumented vs plain compile: plain="
                f"{baseline_error or 'ok'} vs sanitize={san_error or 'ok'}",
            )
        )
    elif baseline is not None:
        mismatch = buffers_equal(baseline, san_buffers)
        if mismatch is not None:
            divergences.append(
                Divergence(
                    "sanitizer", pipeline_text, None,
                    f"instrumented buffers differ from baseline: {mismatch}",
                )
            )
    return divergences


# ---------------------------------------------------------------------------
# The batched-lane differential leg
# ---------------------------------------------------------------------------

#: Relative tolerance of the lane leg's *fallback* comparison.  The lane
#: engine evaluates the exp/log/log1p/tanh/pow intrinsics and ``rng_normal``
#: through numpy ufuncs whose transcendental kernels may differ from libm's
#: in the final ulp (measured up to 4e-16 relative on numpy 2.4.6), so those
#: values — and any value computed from them — can sit a few ulps away from
#: the scalar engine's.  Bitwise equality is always tried first; integers,
#: uniforms and PRNG counters therefore stay exact, and the tolerance only
#: absorbs last-ulp transcendental rounding (DESIGN.md, "Lane backend:
#: tolerance policy").
LANE_RTOL = 1e-14

#: Batch elements (= lanes) the lane leg runs; each gets a distinct seed so
#: the comparison also covers per-lane PRNG key derivation.
LANE_LEG_BATCH = 3


def _lane_buffers_equal(a, b) -> Optional[str]:
    """Like :func:`buffers_equal` with the documented ulp fallback."""
    for name, left, right in zip(("results", "monitor", "state"), a, b):
        la = np.asarray(left, dtype=float)
        ra = np.asarray(right, dtype=float)
        if np.array_equal(la, ra, equal_nan=True):
            continue
        if np.allclose(la, ra, rtol=LANE_RTOL, atol=0.0, equal_nan=True):
            continue
        index = next(
            (
                i
                for i, (x, y) in enumerate(zip(left, right))
                if x != y and not (math.isnan(x) and math.isnan(y))
            ),
            -1,
        )
        return (
            f"{name} buffers differ at slot {index} beyond rtol={LANE_RTOL}: "
            f"{left[index] if index >= 0 else '?'} vs "
            f"{right[index] if index >= 0 else '?'}"
        )
    return None


def _lane_leg(
    cached, inputs, num_trials, run_seed, pipeline_text, verdict
) -> List[Divergence]:
    """The batched-lane differential: ``run_batch`` lane vs scalar compiled.

    Allocates :data:`LANE_LEG_BATCH` elements with consecutive seeds and
    executes them as one batch on both engines (every element is one lane of
    the lane engine's array program).  Per element, the raw result/monitor/
    state buffers must agree under :func:`_lane_buffers_equal` and the final
    per-mechanism PRNG counters must agree bitwise.  Error symmetry applies:
    both engines raising is agreement.
    """
    divergences: List[Divergence] = []
    verdict.legs += 1
    seeds = [run_seed + i for i in range(LANE_LEG_BATCH)]

    def batch_buffers(engine):
        elements = [
            (cached.allocate_buffers(inputs, num_trials, element_seed), num_trials)
            for element_seed in seeds
        ]
        cached.engine_instance(engine).execute_batch(elements)
        return [
            (list(buffers["results"]), list(buffers["monitor"]), list(buffers["state"]))
            for buffers, _ in elements
        ]

    baseline = lane = None
    baseline_error = lane_error = None
    try:
        baseline = batch_buffers(BASELINE_ENGINE)
    except Exception as exc:  # noqa: BLE001 - the oracle reports, never raises
        baseline_error = f"{type(exc).__name__}: {exc}"
    try:
        lane = batch_buffers("lane")
    except Exception as exc:  # noqa: BLE001
        lane_error = f"{type(exc).__name__}: {exc}"

    if (baseline is None) != (lane is None):
        divergences.append(
            Divergence(
                "lane", pipeline_text, "lane",
                f"run_batch: {BASELINE_ENGINE}={baseline_error or 'ok'} vs "
                f"lane={lane_error or 'ok'}",
            )
        )
        return divergences
    if baseline is None:
        return divergences  # both raised: agreement

    for element, (base, cand) in enumerate(zip(baseline, lane)):
        mismatch = _lane_buffers_equal(base, cand)
        base_counters = _final_rng_counters(cached, base[2])
        cand_counters = _final_rng_counters(cached, cand[2])
        if mismatch is None and base_counters != cand_counters:
            mismatch = "final PRNG counters differ"
        if mismatch is not None:
            divergences.append(
                Divergence(
                    "lane", pipeline_text, "lane",
                    f"batch element {element} (seed {seeds[element]}): {mismatch}"
                    f"; final PRNG counters {BASELINE_ENGINE}={base_counters} "
                    f"vs lane={cand_counters}",
                )
            )
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
) -> ModelVerdict:
    """Run the full differential matrix over one model.

    ``build`` must return a *fresh* composition per call (compiles mutate
    nothing, but the reference runner and sanitization both execute the
    model's stateful objects).
    """
    config = config or OracleConfig()
    verdict = ModelVerdict(model_name=model_name)
    started = time.perf_counter()
    engines = config.resolved_engines()

    first_pipeline: Optional[str] = None
    first_baseline: Optional[Tuple[List[float], List[float], List[float]]] = None
    first_error: Optional[str] = None
    reference_model = None

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
        try:
            baseline = raw_buffers(
                cached, inputs, num_trials, run_seed, BASELINE_ENGINE
            )
            baseline_error = None
        except Exception as exc:  # noqa: BLE001
            baseline = None
            baseline_error = f"{type(exc).__name__}: {exc}"
        verdict.legs += 1

        try:
            for engine in engines:
                if engine == BASELINE_ENGINE:
                    continue
                options = _engine_options(engine, config.workers)
                try:
                    candidate = raw_buffers(
                        cached, inputs, num_trials, run_seed, engine, **options
                    )
                    candidate_error = None
                except Exception as exc:  # noqa: BLE001
                    candidate = None
                    candidate_error = f"{type(exc).__name__}: {exc}"
                verdict.legs += 1

                if (candidate is None) != (baseline is None):
                    verdict.divergences.append(
                        Divergence(
                            "engine-error",
                            pipeline_text,
                            engine,
                            f"baseline={baseline_error or 'ok'} vs "
                            f"{engine}={candidate_error or 'ok'}",
                        )
                    )
                    continue
                if baseline is None:
                    continue  # both raised: agreement (e.g. all-NaN grids)
                mismatch = buffers_equal(baseline, candidate)
                if mismatch is not None:
                    counters = (
                        f"; final PRNG counters {BASELINE_ENGINE}="
                        f"{_final_rng_counters(cached, baseline[2])} vs "
                        f"{engine}={_final_rng_counters(cached, candidate[2])}"
                        if mismatch.startswith("state")
                        else ""
                    )
                    verdict.divergences.append(
                        Divergence("engine", pipeline_text, engine, mismatch + counters)
                    )

            # -- cross-pipeline leg -------------------------------------------
            # The first pipeline anchors the comparison whether its baseline
            # ran or raised: a pipeline whose compiled run raises while
            # another pipeline's succeeds is a divergence (optimisation must
            # not change observable behaviour, crashes included).
            if first_pipeline is None:
                first_pipeline = pipeline_text
                first_baseline = baseline
                first_error = baseline_error
                if baseline is not None:
                    verdict.rng_counters = _final_rng_counters(cached, baseline[2])
                    reference_model = cached
                if config.check_sanitizer:
                    verdict.divergences.extend(
                        _sanitizer_leg(
                            build, inputs, num_trials, run_seed,
                            pipeline_text, baseline, baseline_error, verdict,
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
                if (baseline is None) != (first_baseline is None):
                    verdict.divergences.append(
                        Divergence(
                            "pipeline",
                            pipeline_text,
                            None,
                            f"vs {first_pipeline!r}: "
                            f"{first_pipeline}={first_error or 'ok'} vs "
                            f"{pipeline_text}={baseline_error or 'ok'}",
                        )
                    )
                elif baseline is not None:
                    mismatch = buffers_equal(first_baseline, baseline)
                    if mismatch is not None:
                        verdict.divergences.append(
                            Divergence(
                                "pipeline",
                                pipeline_text,
                                None,
                                f"vs {first_pipeline!r}: {mismatch}",
                            )
                        )
        finally:
            cached.close_engines()

    # -- reference leg ---------------------------------------------------------
    if config.check_reference and first_pipeline is not None:
        from ..cogframe.runner import ReferenceRunner

        verdict.legs += 1
        try:
            reference = ReferenceRunner(build(), seed=run_seed).run(
                inputs, num_trials=num_trials
            )
            reference_error: Optional[str] = None
        except Exception as exc:  # noqa: BLE001
            reference = None
            reference_error = f"{type(exc).__name__}: {exc}"

        if first_baseline is None:
            # Every compiled baseline raised; that only counts as agreement
            # if the semantic baseline fails this model as well.
            if reference_error is None:
                verdict.divergences.append(
                    Divergence(
                        "reference", first_pipeline, None,
                        f"compiled baseline raised ({first_error}) but the "
                        f"reference runner succeeded",
                    )
                )
        elif reference_error is not None:
            verdict.divergences.append(
                Divergence(
                    "reference", first_pipeline, None,
                    f"reference run failed: {reference_error}",
                )
            )
        else:
            compiled_results = reference_model._collect_results(
                {
                    "results": first_baseline[0],
                    "monitor": first_baseline[1],
                },
                num_trials,
                BASELINE_ENGINE,
            )
            detail = _compare_reference(reference, compiled_results)
            if detail is not None:
                verdict.divergences.append(
                    Divergence("reference", first_pipeline, None, detail)
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


def _incremental_leg(spec: ModelSpec, config: OracleConfig, verdict: ModelVerdict) -> List[Divergence]:
    """The edit-recompile differential: patched-in-place vs cold full compile.

    Perturbs one value site of ``spec`` (never shapes/structure), compiles
    the *original* model and runs it once on every engine (so engine
    bindings and cached scheduler state exist before the edit), applies the
    edit through
    :meth:`CompiledModel.recompile` (structural-diff path — no explicit
    ``changed=`` hints), cold-compiles the edited spec, and requires the raw
    result/monitor/state buffers — final per-mechanism PRNG counters
    included — to be bitwise identical on every engine.  Error symmetry
    applies as in the engine legs: both paths raising is agreement.
    """
    from .gen import perturb_spec

    perturbed = perturb_spec(spec, spec.seed)
    if perturbed is None:
        return []
    edited_spec, changed = perturbed
    pipeline_text = config.pipelines[0]
    divergences: List[Divergence] = []
    verdict.legs += 1

    patched = cold = None
    patched_error = cold_error = None
    report: Dict[str, object] = {}
    try:
        try:
            patched = compile_composition(spec.build(), pipeline=pipeline_text)
            for engine in config.resolved_engines():
                try:
                    raw_buffers(
                        patched, spec.inputs, spec.num_trials, spec.run_seed, engine,
                        **_engine_options(engine, config.workers),
                    )
                except Exception:  # noqa: BLE001 - only the post-edit runs are compared
                    pass
            report = patched.recompile(composition=edited_spec.build())
        except Exception as exc:  # noqa: BLE001 - the oracle reports, never raises
            patched_error = f"{type(exc).__name__}: {exc}"
        try:
            cold = compile_composition(edited_spec.build(), pipeline=pipeline_text)
        except Exception as exc:  # noqa: BLE001
            cold_error = f"{type(exc).__name__}: {exc}"

        context = (
            f"(edit={sorted(changed)}, mode={report.get('mode', '?')}, "
            f"relowered={report.get('relowered', '?')})"
        )
        if (patched is None) != (cold is None):
            divergences.append(
                Divergence(
                    "incremental", pipeline_text, None,
                    f"patched={patched_error or 'ok'} vs cold="
                    f"{cold_error or 'ok'} {context}",
                )
            )
            return divergences
        if patched is None:
            return divergences  # both raised: agreement

        for engine in config.resolved_engines():
            options = _engine_options(engine, config.workers)
            verdict.legs += 1
            try:
                patched_buffers = raw_buffers(
                    patched, edited_spec.inputs, edited_spec.num_trials,
                    edited_spec.run_seed, engine, **options,
                )
                patched_run_error = None
            except Exception as exc:  # noqa: BLE001
                patched_buffers = None
                patched_run_error = f"{type(exc).__name__}: {exc}"
            try:
                cold_buffers = raw_buffers(
                    cold, edited_spec.inputs, edited_spec.num_trials,
                    edited_spec.run_seed, engine, **options,
                )
                cold_run_error = None
            except Exception as exc:  # noqa: BLE001
                cold_buffers = None
                cold_run_error = f"{type(exc).__name__}: {exc}"

            if (patched_buffers is None) != (cold_buffers is None):
                divergences.append(
                    Divergence(
                        "incremental", pipeline_text, engine,
                        f"patched={patched_run_error or 'ok'} vs cold="
                        f"{cold_run_error or 'ok'} {context}",
                    )
                )
                continue
            if patched_buffers is None:
                continue
            mismatch = buffers_equal(patched_buffers, cold_buffers)
            if mismatch is not None:
                counters = (
                    f"; final PRNG counters patched="
                    f"{_final_rng_counters(patched, patched_buffers[2])} vs cold="
                    f"{_final_rng_counters(cold, cold_buffers[2])}"
                    if mismatch.startswith("state")
                    else ""
                )
                divergences.append(
                    Divergence(
                        "incremental", pipeline_text, engine,
                        f"{mismatch}{counters} {context}",
                    )
                )
    finally:
        if patched is not None:
            patched.close_engines()
        if cold is not None:
            cold.close_engines()
    return divergences


def check_spec(spec: ModelSpec, config: Optional[OracleConfig] = None) -> ModelVerdict:
    """Run the oracle over a generated :class:`ModelSpec`."""
    config = config or OracleConfig()
    verdict = check_composition(
        spec.build,
        spec.inputs,
        spec.num_trials,
        spec.run_seed,
        config=config,
        model_name=spec.name,
    )
    if config.check_incremental and config.pipelines:
        started = time.perf_counter()
        verdict.divergences.extend(_incremental_leg(spec, config, verdict))
        verdict.seconds += time.perf_counter() - started
    return verdict
