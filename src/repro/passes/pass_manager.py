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
from typing import List, Optional, Sequence

from ..driver.registry import create_pass, register_pipeline_alias
from ..ir.module import Module
from ..ir.verifier import verify_module
from .pass_base import Pass, call_pass

#: Accepted verification policies, in decreasing order of paranoia.
VERIFY_POLICIES = ("each", "boundary", "off")


def _new_analysis_manager():
    # Imported lazily: repro.analysis.clone_detect imports this module at
    # package-init time, so a top-level import here would be circular.
    from ..analysis.manager import AnalysisManager

    return AnalysisManager()


def coerce_verify_policy(verify: Optional[str]) -> str:
    """Normalise a verify argument to a policy (``None`` means ``"boundary"``)."""
    if verify is None:
        return "boundary"
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


def run_pass(pass_: Pass, module: Module, am, verify_after: bool = False) -> Optional[bool]:
    """One pipeline step: run ``pass_`` unless ``am`` says it can be skipped.

    Returns the pass's changed flag, or ``None`` when it was skipped (it last
    ran clean on this module and nothing has mutated it since, so a
    deterministic pass finds no new work).  Leaf passes are recorded on
    ``am`` (a skip as a 0-second no-op run); a nested pipeline records
    nothing itself, its leaves do.  Passes that do not invalidate analyses
    per function get the module-wide preserved-analyses sweep here.
    """
    leaf = not isinstance(pass_, _NESTED)
    if am.should_skip(pass_, module):
        if leaf:
            am.record_pass(pass_.name, 0.0, False)
        return None
    start = time.perf_counter()
    changed = call_pass(pass_, module, am)
    if leaf:
        am.record_pass(pass_.name, time.perf_counter() - start, changed)
    if not getattr(pass_, "handles_invalidation", False):
        am.after_module_pass(pass_, module, changed)
    if verify_after:
        verify_module(module)
    return changed


class PassManager(Pass):
    """Runs an ordered list of passes over a module.

    A ``PassManager`` is itself a :class:`Pass`, so pipelines nest: a manager
    can appear as an entry of another manager (the textual ``repeat<N>(...)``
    and ``fixpoint(...)`` constructs build on this).  Nested managers default
    to ``verify="off"`` when built by the parser — the outermost pipeline
    owns the verification policy.

    ``run`` threads one :class:`repro.analysis.manager.AnalysisManager`
    through every pass (creating a fresh one when the caller supplies none),
    so analyses computed by one pass are reused by the next until a pass that
    does not preserve them reports a change.  The manager, not the pipeline,
    keeps the per-pass run record, so one pipeline object can be shared by
    any number of compiles.
    """

    #: Nested pipelines do their own invalidation bookkeeping pass-by-pass.
    handles_invalidation = True

    def __init__(
        self,
        passes: Sequence[Pass] = (),
        verify: str = "boundary",
        name: str = "pipeline",
    ):
        self.passes: List[Pass] = list(passes)
        self.verify = coerce_verify_policy(verify)
        self.name = name

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, module: Module, am=None) -> bool:
        """Run every pass once, in order.  Returns True if anything changed."""
        if am is None:
            am = _new_analysis_manager()
        changed = False
        if self.verify != "off":
            verify_module(module)
        for pass_ in self.passes:
            changed |= bool(run_pass(pass_, module, am, self.verify == "each"))
        if self.verify == "boundary" and self.passes:
            verify_module(module)
        return changed

    def describe(self) -> str:
        """Canonical textual pipeline; ``parse_pipeline`` round-trips it."""
        return ",".join(describe_pass(p) for p in self.passes)


class RepeatPass(Pass):
    """Run an inner pass (or sub-pipeline) a fixed number of times.

    Textual forms: ``repeat<2>(cse,dce)`` or the per-pass shorthand
    ``cse(iterations=2)``.  Each iteration's leaf pass runs are recorded on
    the analysis manager under their own names — nested pipeline work is
    attributed, not swallowed.
    """

    handles_invalidation = True

    def __init__(self, inner: Pass, iterations: int):
        if iterations < 1:
            raise ValueError(f"repeat iterations must be >= 1, got {iterations}")
        self.inner = inner
        self.iterations = int(iterations)
        self.name = f"repeat<{self.iterations}>"

    def run(self, module: Module, am=None) -> bool:
        if am is None:
            am = _new_analysis_manager()
        changed = False
        for _ in range(self.iterations):
            changed |= bool(run_pass(self.inner, module, am))
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
    surface in ``describe(with_state=True)``.
    """

    DEFAULT_MAX_ITERATIONS = 10

    handles_invalidation = True

    def __init__(self, inner: Pass, max_iterations: int = DEFAULT_MAX_ITERATIONS):
        if max_iterations < 1:
            raise ValueError(f"fixpoint max_iterations must be >= 1, got {max_iterations}")
        self.inner = inner
        self.max_iterations = int(max_iterations)
        self.name = f"fixpoint<{self.max_iterations}>"
        self.converged: Optional[bool] = None
        self.iterations_run = 0

    def run(self, module: Module, am=None) -> bool:
        if am is None:
            am = _new_analysis_manager()
        self.converged = False
        self.iterations_run = 0
        changed = False
        for _ in range(self.max_iterations):
            iteration_changed = run_pass(self.inner, module, am)
            if iteration_changed is None:
                # Nothing mutated since the inner pipeline's last clean run:
                # the fixed point is already reached.
                self.converged = True
                break
            self.iterations_run += 1
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


#: Pipeline constructs whose work is recorded by the leaf passes they run.
_NESTED = (PassManager, RepeatPass, FixpointPass)


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


def build_standard_pipeline(opt_level: int = 2, verify: str = "boundary") -> PassManager:
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
