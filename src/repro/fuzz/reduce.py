"""Delta-debugging reduction of failing fuzz models.

Given a failing :class:`ModelSpec` and a predicate "does this candidate still
fail the same way", the reducer greedily applies shrink transformations until
none helps:

* drop mechanisms (re-designating input/output nodes as needed) and the
  grid-search controller;
* drop projections;
* replace per-node conditions with ``Always`` and the termination with a
  plain ``AfterNPasses``;
* shrink the controller (drop signals, levels and non-objective steps);
* shrink the run configuration (passes, trials, input rows);
* ddmin over the failing pipeline's top-level entries, so a 17-pass O2
  sequence collapses to the one or two passes that actually matter.

Each candidate is validated by building + sanitizing the composition before
the (expensive) oracle predicate runs; invalid mutations are simply skipped.
The result is emitted as a self-contained pytest file whose body re-builds
the model from source (see :meth:`ModelSpec.to_source`) and replays the
oracle's failing legs through :func:`repro.fuzz.oracle.check_composition` —
runnable with nothing but the repro package on ``PYTHONPATH``.
Self-containedness assumes the failing pipeline references in-tree passes
(the default campaign matrix does); a campaign run with an injected
experimental pass must keep that pass importable/registered when replaying
its reproducers.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterator, List, Optional

from ..driver.pipeline import _split_top_level
from .gen import ConditionSpec, ModelSpec, perturb_spec
from .oracle import BASELINE_ENGINE, Divergence, OracleConfig

__all__ = ["shrink_spec", "shrink_pipeline", "reproducer_source"]


def _valid(spec: ModelSpec) -> bool:
    """Cheap structural validation: build + sanitize without compiling."""
    from ..cogframe.sanitize import sanitize

    try:
        sanitize(spec.build())
        return True
    except Exception:  # noqa: BLE001 - any failure just rejects the candidate
        return False


def _candidates(spec: ModelSpec) -> Iterator[ModelSpec]:
    """One-step shrink candidates, most aggressive first."""
    # Drop the controller entirely.
    if spec.control is not None:
        candidate = copy.deepcopy(spec)
        name = candidate.control.name
        candidate.control = None
        candidate.projections = [
            p for p in candidate.projections if name not in (p.sender, p.receiver)
        ]
        yield candidate

    # Drop one mechanism (plus its projections); keep >= 1 input node and
    # re-designate an output if the dropped node was the last one.
    if len(spec.mechanisms) > 1:
        for index in range(len(spec.mechanisms) - 1, -1, -1):
            candidate = copy.deepcopy(spec)
            dropped = candidate.mechanisms.pop(index)
            candidate.projections = [
                p
                for p in candidate.projections
                if dropped.name not in (p.sender, p.receiver)
            ]
            if not any(m.is_input for m in candidate.mechanisms):
                candidate.mechanisms[0].is_input = True
                candidate.mechanisms[0].ports = [("input", candidate.mechanisms[0].ports[0][1])]
            if not any(m.is_output for m in candidate.mechanisms) and (
                candidate.control is None or not candidate.control.is_output
            ):
                candidate.mechanisms[-1].is_output = True
            yield candidate

    # Drop one projection.
    for index in range(len(spec.projections) - 1, -1, -1):
        candidate = copy.deepcopy(spec)
        del candidate.projections[index]
        yield candidate

    # Simplify conditions.
    for index, mech in enumerate(spec.mechanisms):
        if mech.condition is not None:
            candidate = copy.deepcopy(spec)
            candidate.mechanisms[index].condition = None
            yield candidate
    if spec.control is not None and spec.control.condition is not None:
        candidate = copy.deepcopy(spec)
        candidate.control.condition = None
        yield candidate
    if spec.termination.kind != "AfterNPasses":
        candidate = copy.deepcopy(spec)
        candidate.termination = ConditionSpec("AfterNPasses", [candidate.max_passes])
        yield candidate

    # Shrink the controller: signals, levels, optional steps.
    if spec.control is not None:
        control = spec.control
        if control.num_signals > 1:
            candidate = copy.deepcopy(spec)
            candidate.control.levels.pop()
            yield candidate  # may invalidate sources/projections -> _valid() gates
        for signal, levels in enumerate(control.levels):
            if len(levels) > 1:
                candidate = copy.deepcopy(spec)
                candidate.control.levels[signal] = levels[:-1]
                yield candidate
        if len(control.steps) > 1:
            referenced = {
                source[1]
                for step in control.steps
                for source in step.sources
                if source[0] == "step"
            }
            for index, step in enumerate(control.steps):
                if step.name != control.objective_step and step.name not in referenced:
                    candidate = copy.deepcopy(spec)
                    del candidate.control.steps[index]
                    yield candidate

    # Shrink run configuration.
    if spec.max_passes > 1:
        candidate = copy.deepcopy(spec)
        candidate.max_passes = spec.max_passes - 1
        if candidate.termination.kind == "AfterNPasses":
            candidate.termination = ConditionSpec("AfterNPasses", [candidate.max_passes])
        yield candidate
    if spec.num_trials > 1:
        candidate = copy.deepcopy(spec)
        candidate.num_trials = 1
        yield candidate
    if len(spec.inputs) > 1:
        candidate = copy.deepcopy(spec)
        candidate.inputs = candidate.inputs[:1]
        yield candidate


def shrink_spec(
    spec: ModelSpec,
    still_fails: Callable[[ModelSpec], bool],
    max_checks: int = 200,
) -> ModelSpec:
    """Greedy fixpoint reduction of ``spec`` under the failure predicate.

    ``still_fails`` should re-run the oracle and report whether the candidate
    reproduces the *same kind* of divergence (checking the kind, not just
    "anything failed", avoids slipping onto an unrelated bug mid-shrink).
    ``max_checks`` bounds the total number of predicate evaluations so a
    pathological model cannot stall a campaign.
    """
    checks = 0
    current = spec
    progress = True
    while progress and checks < max_checks:
        progress = False
        for candidate in _candidates(current):
            if checks >= max_checks:
                break
            if not _valid(candidate):
                continue
            checks += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current


def shrink_pipeline(
    pipeline_text: str, still_fails: Callable[[str], bool], max_checks: int = 60
) -> str:
    """ddmin over the top-level entries of a textual pipeline description.

    Tries ever-smaller subsequences (preserving order) of the comma-separated
    top-level entries; returns the shortest text that still fails.  The empty
    pipeline (= O0, verification only) is a legal candidate.
    """
    entries = [e.strip() for e in _split_top_level(pipeline_text, "pipeline")]
    entries = [e for e in entries if e]
    checks = 0

    def attempt(candidate_entries: List[str]) -> Optional[str]:
        nonlocal checks
        if checks >= max_checks:
            return None
        candidate = ",".join(candidate_entries)
        checks += 1
        return candidate if still_fails(candidate) else None

    current = entries
    chunk = max(1, len(current) // 2)
    while len(current) > 0 and chunk >= 1:
        reduced = False
        start = 0
        while start < len(current):
            candidate_entries = current[:start] + current[start + chunk :]
            candidate = attempt(candidate_entries)
            if candidate is not None:
                current = candidate_entries
                reduced = True
            else:
                start += chunk
            if checks >= max_checks:
                break
        if checks >= max_checks:
            break
        if not reduced:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return ",".join(current)


# ---------------------------------------------------------------------------
# Reproducer emission
# ---------------------------------------------------------------------------


def _narrowed_config(config: OracleConfig, divergence: Divergence) -> OracleConfig:
    """An :class:`OracleConfig` reduced to the legs ``divergence`` needs.

    Keeps the campaign's first pipeline as the comparison anchor plus the
    failing pipeline, and only the baseline engine plus the diverging one
    (the lane leg's engine is not a bitwise engine leg); reference, cold
    compile, sanitizer, incremental and lane legs run only for their own
    divergence kinds.  The shrinker re-runs the oracle under this config and
    the reproducer file replays it.
    """
    pipelines = [config.pipelines[0]]
    if divergence.pipeline not in pipelines:
        pipelines.append(divergence.pipeline)
    engines = [BASELINE_ENGINE]
    if divergence.engine and divergence.kind != "lane" and divergence.engine not in engines:
        engines.append(divergence.engine)
    return OracleConfig(
        pipelines=tuple(pipelines),
        engines=tuple(engines),
        workers=config.workers,
        check_reference=divergence.kind == "reference",
        check_analysis_cache=divergence.kind == "analysis-cache",
        check_sanitizer=divergence.kind == "sanitizer",
        check_incremental=divergence.kind == "incremental",
        check_lane=divergence.kind == "lane",
    )


def _build_function(spec: ModelSpec, name: str) -> str:
    """The ``def name(): ...`` that builds ``spec``'s composition."""
    return f"def {name}():" + spec.to_source().split("def build_model():", 1)[1]


def reproducer_source(
    spec: ModelSpec,
    divergence: Divergence,
    config: Optional[OracleConfig] = None,
    xfail_reason: Optional[str] = None,
) -> str:
    """A self-contained pytest module reproducing ``divergence`` on ``spec``.

    The test replays the oracle itself: :func:`check_composition` over the
    model's source under ``config`` (the campaign's, default
    :class:`OracleConfig`) narrowed to the legs ``divergence`` needs, as the
    shrinker ran it, and asserts the verdict is clean.  An ``incremental``
    reproducer also carries the edited model's source
    (:func:`repro.fuzz.gen.perturb_spec` of ``spec``).

    With ``xfail_reason`` the test is emitted under
    ``@pytest.mark.xfail(strict=True)`` — the form in which still-open
    findings are committed to the suite (strictness makes the eventual fix
    flip the test loudly).
    """
    narrowed = _narrowed_config(config or OracleConfig(), divergence)
    parts = [
        f'"""Fuzz reproducer: seed {spec.seed}, {divergence.describe()}\n\n'
        f"Auto-generated by repro.fuzz; replay the campaign with\n"
        f"    python -m repro.fuzz --seed {spec.seed} --n-models 1\n"
        f'"""\n\n'
        "import pytest\n\n"
        "from repro.fuzz.oracle import OracleConfig, check_composition\n\n",
        # The model's own source minus its module docstring.
        spec.to_source().split('"""', 2)[2].lstrip("\n"),
    ]
    build_edited = None
    perturbed = perturb_spec(spec, spec.seed) if narrowed.check_incremental else None
    if perturbed is not None:
        build_edited = "build_edited_model"
        parts.append("\n" + _build_function(perturbed[0], build_edited))
    test_name = f"test_fuzz_seed_{spec.seed}_{divergence.kind.replace('-', '_')}"
    decorator = ""
    if xfail_reason is not None:
        decorator = f"@pytest.mark.xfail(strict=True, reason={xfail_reason!r})\n"
    parts.append(
        f"\nCONFIG = {narrowed!r}\n\n\n"
        f"{decorator}def {test_name}():\n"
        f"    verdict = check_composition(\n"
        f"        build_model, INPUTS, NUM_TRIALS, RUN_SEED, CONFIG,\n"
        f"        build_edited={build_edited},\n"
        f"    )\n"
        f'    assert verdict.ok, "\\n".join(d.describe() for d in verdict.divergences)\n'
    )
    return "\n".join(parts)
