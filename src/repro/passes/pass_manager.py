"""Pass manager and the standard optimisation pipelines (O0–O3).

The pipelines correspond to the optimisation levels the paper sweeps in its
compilation-cost study (Figure 7):

* **O0** — no optimisation (verification only).
* **O1** — CFG simplification, mem2reg, constant propagation, DCE.
* **O2** — O1 plus CSE, peephole combining and LICM, iterated twice.
* **O3** — O2 preceded by aggressive inlining (whole-model optimisation
  across node and scheduler boundaries).

They are exposed to textual pipeline descriptions as the ``default<Ok>``
alias (``parse_pipeline("default<O2>")``) and built directly by
:func:`build_standard_pipeline`.

Verification is governed by a policy instead of the historical
verify-after-every-pass behaviour:

* ``"boundary"`` (default) — verify once before the first pass and once
  after the last; O(module) instead of O(passes × module) on hot compile
  paths.
* ``"each"`` — the old paranoid mode: verify before the pipeline and after
  every single pass (use when debugging a miscompiling pass).
* ``"off"`` — no verification.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

from ..driver.registry import create_pass, register_pipeline_alias
from ..ir.module import Module
from ..ir.verifier import verify_module
from .pass_base import Pass, PassTiming, call_pass

#: Accepted verification policies, in decreasing order of paranoia.
VERIFY_POLICIES = ("each", "boundary", "off")


def _new_analysis_manager():
    # Imported lazily: repro.analysis.clone_detect imports this module at
    # package-init time, so a top-level import here would be circular.
    from ..analysis.manager import AnalysisManager

    return AnalysisManager()


def _nested_timings(pass_: Pass) -> List[PassTiming]:
    """The per-entry timing records of a nested pipeline pass, if any."""
    if isinstance(pass_, (PassManager, RepeatPass, FixpointPass)):
        return list(pass_.timings)
    return []


def coerce_verify_policy(verify: Union[str, bool, None]) -> str:
    """Normalise a verify argument (policy string or legacy bool) to a policy."""
    if verify is None:
        return "boundary"
    if isinstance(verify, bool):
        return "boundary" if verify else "off"
    if verify not in VERIFY_POLICIES:
        raise ValueError(
            f"unknown verify policy {verify!r}; choose one of {VERIFY_POLICIES}"
        )
    return verify


def describe_pass(pass_: Pass) -> str:
    """Canonical pipeline text for one pass (see ``PassManager.describe``)."""
    repr_ = getattr(pass_, "pipeline_repr", None)
    if repr_ is not None:
        return repr_
    if isinstance(pass_, PassManager):
        return pass_.describe()
    describe = getattr(pass_, "describe", None)
    if callable(describe):
        return describe()
    return pass_.name


class PassManager(Pass):
    """Runs an ordered list of passes over a module, recording timings.

    A ``PassManager`` is itself a :class:`Pass`, so pipelines nest: a manager
    can appear as an entry of another manager (the textual ``repeat<N>(...)``
    and ``fixpoint(...)`` constructs build on this).  Nested managers default
    to ``verify="off"`` when built by the parser — the outermost pipeline
    owns the verification policy.

    ``run`` threads one :class:`repro.analysis.manager.AnalysisManager`
    through every pass (creating a fresh one when the caller supplies none),
    so analyses computed by one pass are reused by the next until a pass that
    does not preserve them reports a change.  The manager used by the last
    run is kept on ``analysis_manager`` for inspection.
    """

    #: Nested pipelines do their own invalidation bookkeeping pass-by-pass.
    handles_invalidation = True

    def __init__(
        self,
        passes: Sequence[Pass] = (),
        verify: Union[str, bool] = "boundary",
        name: str = "pipeline",
    ):
        self.passes: List[Pass] = list(passes)
        self.verify = coerce_verify_policy(verify)
        self.name = name
        self.timings: List[PassTiming] = []
        self.analysis_manager = None

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, module: Module, am=None) -> bool:
        """Run every pass once, in order.  Returns True if anything changed."""
        if am is None:
            am = _new_analysis_manager()
        self.analysis_manager = am
        self.timings = []
        changed = False
        if self.verify != "off":
            verify_module(module)
        for pass_ in self.passes:
            if am.should_skip(pass_, module):
                # The pass last ran clean on this module and nothing has
                # mutated it since — a deterministic pass finds no new work.
                self.timings.append(PassTiming(pass_.name, 0.0, False))
                continue
            start = time.perf_counter()
            pass_changed = call_pass(pass_, module, am)
            elapsed = time.perf_counter() - start
            self.timings.append(
                PassTiming(
                    pass_.name,
                    elapsed,
                    pass_changed,
                    children=_nested_timings(pass_),
                    converged=getattr(pass_, "converged", None)
                    if isinstance(pass_, FixpointPass)
                    else None,
                )
            )
            changed |= pass_changed
            # Function passes (and nested pipelines) report per-function
            # visits to the manager themselves; for module-level and legacy
            # passes apply the preserved-analyses sweep module-wide here.
            if not (
                getattr(pass_, "handles_invalidation", False)
                and getattr(pass_, "_run_accepts_am", False)
            ):
                am.after_module_pass(pass_, module, pass_changed)
            if self.verify == "each":
                verify_module(module)
        if self.verify == "boundary" and self.passes:
            verify_module(module)
        return changed

    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    def flat_timings(self) -> List[PassTiming]:
        """Leaf timing records with nested pipelines expanded.

        ``timings`` has one entry per pipeline *entry*; a ``repeat``/
        ``fixpoint`` entry hides its inner per-iteration records in
        ``children``.  This flattens to the individual pass executions, so
        per-pass aggregation (the Figure 7 report) attributes nested work to
        the passes that did it instead of lumping it under ``repeat<N>``.
        """
        leaves: List[PassTiming] = []
        for timing in self.timings:
            leaves.extend(timing.leaves())
        return leaves

    def aggregate_timings(self) -> dict:
        """Total seconds and execution counts per pass name, nested included:
        ``{name: {"seconds": float, "runs": int, "changed": int, "noops": int}}``.

        ``changed`` counts executions that reported an IR mutation and
        ``noops`` the executions that found nothing to do — the distinction
        a pure timing table cannot make between a cheap pass and a useless
        one.  A pass with ``changed == 0`` across a whole compile is the
        autotuner's first pruning candidate (see
        :mod:`repro.driver.autotune`).
        """
        summary: dict = {}
        for timing in self.flat_timings():
            row = summary.setdefault(
                timing.name, {"seconds": 0.0, "runs": 0, "changed": 0, "noops": 0}
            )
            row["seconds"] += timing.seconds
            row["runs"] += 1
            if timing.changed:
                row["changed"] += 1
            else:
                row["noops"] += 1
        return summary

    def describe(self) -> str:
        """Canonical textual pipeline; ``parse_pipeline`` round-trips it."""
        return ",".join(describe_pass(p) for p in self.passes)


class RepeatPass(Pass):
    """Run an inner pass (or sub-pipeline) a fixed number of times.

    Textual forms: ``repeat<2>(cse,dce)`` or the per-pass shorthand
    ``cse(iterations=2)``.  Per-iteration timings are collected in
    ``timings`` and surface as ``children`` of this entry's record in the
    enclosing :class:`PassManager` — nested pipeline work is attributed, not
    swallowed.
    """

    handles_invalidation = True

    def __init__(self, inner: Pass, iterations: int):
        if iterations < 1:
            raise ValueError(f"repeat iterations must be >= 1, got {iterations}")
        self.inner = inner
        self.iterations = int(iterations)
        self.name = f"repeat<{self.iterations}>"
        self.timings: List[PassTiming] = []

    def run(self, module: Module, am=None) -> bool:
        self.timings = []
        changed = False
        for _ in range(self.iterations):
            if am is not None and am.should_skip(self.inner, module):
                self.timings.append(PassTiming(self.inner.name, 0.0, False))
                continue
            start = time.perf_counter()
            iteration_changed = call_pass(self.inner, module, am)
            elapsed = time.perf_counter() - start
            self.timings.append(
                PassTiming(
                    self.inner.name,
                    elapsed,
                    iteration_changed,
                    children=_nested_timings(self.inner),
                )
            )
            if am is not None and not (
                getattr(self.inner, "handles_invalidation", False)
                and getattr(self.inner, "_run_accepts_am", False)
            ):
                am.after_module_pass(self.inner, module, iteration_changed)
            changed |= iteration_changed
        return changed

    def describe(self) -> str:
        return f"repeat<{self.iterations}>({describe_pass(self.inner)})"


class FixpointPass(Pass):
    """Run an inner pass (or sub-pipeline) until it stops changing the module.

    This is the conditional-pipeline building block: iteration continues
    *while* the previous round reported a change, bounded by
    ``max_iterations``.  Textual forms: ``fixpoint(instcombine,dce)`` or
    ``fixpoint<5>(...)``.

    After a run, ``converged`` records whether the loop actually reached a
    fixed point (``False`` = it hit ``max_iterations`` while the last round
    still changed the module — previously indistinguishable from
    convergence) and ``iterations_run`` how many rounds executed.  Both
    surface in the enclosing manager's timing records and in
    ``describe(with_state=True)``.
    """

    DEFAULT_MAX_ITERATIONS = 10

    handles_invalidation = True

    def __init__(self, inner: Pass, max_iterations: int = DEFAULT_MAX_ITERATIONS):
        if max_iterations < 1:
            raise ValueError(f"fixpoint max_iterations must be >= 1, got {max_iterations}")
        self.inner = inner
        self.max_iterations = int(max_iterations)
        self.name = f"fixpoint<{self.max_iterations}>"
        self.timings: List[PassTiming] = []
        self.converged: Optional[bool] = None
        self.iterations_run = 0

    def run(self, module: Module, am=None) -> bool:
        self.timings = []
        self.converged = False
        self.iterations_run = 0
        changed = False
        for _ in range(self.max_iterations):
            if am is not None and am.should_skip(self.inner, module):
                # Nothing mutated since the inner pipeline's last clean run:
                # the fixed point is already reached.
                self.converged = True
                break
            start = time.perf_counter()
            iteration_changed = call_pass(self.inner, module, am)
            elapsed = time.perf_counter() - start
            self.iterations_run += 1
            self.timings.append(
                PassTiming(
                    self.inner.name,
                    elapsed,
                    iteration_changed,
                    children=_nested_timings(self.inner),
                )
            )
            if am is not None and not (
                getattr(self.inner, "handles_invalidation", False)
                and getattr(self.inner, "_run_accepts_am", False)
            ):
                am.after_module_pass(self.inner, module, iteration_changed)
            if not iteration_changed:
                self.converged = True
                break
            changed = True
        return changed

    def describe(self, with_state: bool = False) -> str:
        text = f"fixpoint<{self.max_iterations}>({describe_pass(self.inner)})"
        if with_state and self.converged is not None:
            text += (
                f"  # converged={self.converged}"
                f" after {self.iterations_run} iteration(s)"
            )
        return text


def _standard_passes(opt_level: int) -> List[Pass]:
    """The pass instances making up ``default<Ok>`` (built via the registry
    so every instance carries its canonical ``pipeline_repr``)."""
    if opt_level <= 0:
        return []

    base: List[Pass] = [
        create_pass("simplifycfg"),
        create_pass("mem2reg"),
        create_pass("constprop"),
        create_pass("simplifycfg"),
        create_pass("dce"),
    ]
    if opt_level == 1:
        return base

    o2: List[Pass] = []
    if opt_level >= 3:
        o2.append(create_pass("inline", threshold=400, aggressive=True))
    else:
        o2.append(create_pass("inline", threshold=120))
    o2 += base
    o2 += [
        create_pass("cse"),
        create_pass("instcombine"),
        create_pass("licm"),
        create_pass("constprop"),
        create_pass("dce"),
        create_pass("simplifycfg"),
    ]
    # A second round catches opportunities exposed by the first.
    o2 += [
        create_pass("mem2reg"),
        create_pass("constprop"),
        create_pass("cse"),
        create_pass("dce"),
        create_pass("simplifycfg"),
    ]
    return o2


def build_standard_pipeline(
    opt_level: int = 2, verify: Union[str, bool] = "boundary"
) -> PassManager:
    """The standard Distill pipeline for a given ``-O`` level."""
    level = max(0, min(int(opt_level), 3))
    return PassManager(_standard_passes(level), verify=verify, name=f"O{level}")


@register_pipeline_alias("default")
def _default_alias(variant: Optional[str]) -> List[Pass]:
    """Expand ``default<Ok>`` (or bare ``default`` = O2) to the standard passes."""
    if variant is None:
        return _standard_passes(2)
    text = variant.strip().upper()
    if text.startswith("O"):
        text = text[1:]
    if not text.isdigit():
        raise ValueError(f"expected an optimisation level O0..O3, got {variant!r}")
    level = int(text)
    if level > 3:
        raise ValueError(f"expected an optimisation level O0..O3, got {variant!r}")
    return _standard_passes(level)
