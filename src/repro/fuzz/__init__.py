"""repro.fuzz — the generative conformance harness.

Csmith-style differential fuzzing for the whole compiler stack: a seeded
random model generator (:mod:`repro.fuzz.gen`) draws mechanisms, functions,
projection topologies (cycles included) and scheduling conditions from the
same registries the curated models use; a differential oracle
(:mod:`repro.fuzz.oracle`) compiles every generated model at O0–O3 with cold
and cached analysis managers and demands bitwise-identical buffers — outputs,
monitor records and final PRNG counters — across every registered execution
engine, plus tolerance-checked agreement with the interpretive reference
runner; and a delta-debugging reducer (:mod:`repro.fuzz.reduce`) shrinks any
failure to a minimal model + pipeline and emits a self-contained pytest
reproducer.

Drive a campaign from code::

    import repro.fuzz
    report = repro.fuzz.run_campaign(seed=0, n_models=25)
    assert report.ok, report.format_table()

or from the command line::

    python -m repro.fuzz --seed 0 --n-models 25 --out-dir fuzz-reproducers

See DESIGN.md, "Generative conformance", for the generator grammar, the
oracle legs and the shrinking strategy.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .gen import ModelSpec, generate_model_spec
from .oracle import (
    DEFAULT_PIPELINES,
    Divergence,
    ModelVerdict,
    OracleConfig,
    check_composition,
    check_spec,
)
from .reduce import _narrowed_config, reproducer_source, shrink_pipeline, shrink_spec

__all__ = [
    "CampaignReport",
    "FailureRecord",
    "ModelSpec",
    "ModelVerdict",
    "Divergence",
    "OracleConfig",
    "DEFAULT_PIPELINES",
    "generate_model_spec",
    "check_spec",
    "check_composition",
    "shrink_spec",
    "shrink_pipeline",
    "reproducer_source",
    "run_campaign",
]


@dataclass
class FailureRecord:
    """One failing model: the original verdict plus the shrunk reproducer."""

    seed: int
    divergences: List[Divergence]
    shrunk: Optional[ModelSpec] = None
    reproducer_path: Optional[str] = None

    def describe(self) -> str:
        lines = [f"seed {self.seed}:"]
        lines += [f"  {d.describe()}" for d in self.divergences]
        if self.shrunk is not None:
            summary = self.shrunk.summary()
            lines.append(
                f"  shrunk to {summary['mechanisms']} mechanisms, "
                f"{summary['projections']} projections"
            )
        if self.reproducer_path:
            lines.append(f"  reproducer: {self.reproducer_path}")
        return "\n".join(lines)


@dataclass
class CampaignReport:
    """Structured result of one fuzz campaign."""

    seed: int
    n_models: int
    rows: List[Dict[str, object]] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    legs: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "models": self.n_models,
            "failures": len(self.failures),
            "legs": self.legs,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }

    def format_table(self) -> str:
        """Human-readable campaign report (bench-harness table style)."""
        from ..bench.harness import FigureReport

        report = FigureReport(
            figure="fuzz",
            title=(
                f"conformance campaign: seeds {self.seed}..{self.seed + self.n_models - 1}"
            ),
        )
        for row in self.rows:
            report.add(**row)
        report.note(
            f"{self.n_models} models, {self.legs} oracle legs, "
            f"{len(self.failures)} failing, {self.elapsed_seconds:.2f}s total"
        )
        for failure in self.failures:
            report.note(failure.describe())
        return report.format_table()


def run_campaign(
    seed: int = 0,
    n_models: int = 25,
    pipelines: Sequence[str] = DEFAULT_PIPELINES,
    engines: Optional[Sequence[str]] = None,
    workers: int = 2,
    check_reference: bool = True,
    check_sanitizer: bool = False,
    check_incremental: bool = False,
    check_lane: bool = False,
    shrink: bool = True,
    out_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Generate and differentially check ``n_models`` models.

    Models use seeds ``seed .. seed + n_models - 1``, so any campaign —
    nightly CI runs included — is replayable model-by-model.  For each
    failure the spec is shrunk to a minimal reproducer (unless ``shrink`` is
    False) and, when ``out_dir`` is given, written there as a self-contained
    pytest file.  Returns a :class:`CampaignReport`; never raises on model
    divergence (the report carries the failures).
    """
    config = OracleConfig(
        pipelines=tuple(pipelines),
        engines=engines,
        workers=workers,
        check_reference=check_reference,
        check_sanitizer=check_sanitizer,
        check_incremental=check_incremental,
        check_lane=check_lane,
    )
    report = CampaignReport(seed=seed, n_models=n_models)
    started = time.perf_counter()

    for model_seed in range(seed, seed + n_models):
        spec = generate_model_spec(model_seed)
        verdict = check_spec(spec, config)
        report.legs += verdict.legs
        summary = spec.summary()
        report.rows.append(
            {
                "seed": model_seed,
                "mechanisms": summary["mechanisms"],
                "projections": summary["projections"],
                "grid": summary["grid"],
                "passes": summary["max_passes"],
                "legs": verdict.legs,
                "status": "ok" if verdict.ok else verdict.divergences[0].kind,
                "seconds": round(verdict.seconds, 3),
            }
        )
        if progress is not None:
            progress(
                f"seed {model_seed}: "
                + ("ok" if verdict.ok else verdict.divergences[0].describe())
                + f" ({verdict.seconds:.2f}s, {verdict.legs} legs)"
            )
        if verdict.ok:
            continue

        failure = FailureRecord(seed=model_seed, divergences=verdict.divergences)
        primary = verdict.divergences[0]
        if shrink:
            kind = primary.kind
            # Shrinking re-runs the oracle per candidate; restrict it to the
            # legs the recorded divergence actually needs (one pipeline pair,
            # one engine pair) instead of the full matrix — an order of
            # magnitude cheaper per candidate, and no mcpu pool spin-ups
            # unless mcpu is the diverging engine.
            shrink_config = _narrowed_config(config, primary)

            def still_fails(candidate: ModelSpec) -> bool:
                candidate_verdict = check_spec(candidate, shrink_config)
                return any(d.kind == kind for d in candidate_verdict.divergences)

            failure.shrunk = shrink_spec(spec, still_fails)
            # Re-check the shrunk spec so the recorded divergence (pipeline,
            # engine) matches the legs the reproducer file replays.
            shrunk_verdict = check_spec(failure.shrunk, shrink_config)
            matching = [d for d in shrunk_verdict.divergences if d.kind == kind]
            if matching:
                primary = matching[0]
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"test_repro_seed_{model_seed}.py")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(reproducer_source(failure.shrunk or spec, primary, config))
            failure.reproducer_path = path
        report.failures.append(failure)

    report.elapsed_seconds = time.perf_counter() - started
    return report
