"""Base classes for IR transformation and analysis passes.

Passes run as ``pass.run(module, am)`` where ``am`` is the compile's
:class:`repro.analysis.manager.AnalysisManager` (or ``None`` for a bare run).
Every pass declares, via its ``preserves`` class attribute, which cached
analyses a *changed* run leaves valid:

* ``"all"`` — the pass never invalidates anything;
* ``"cfg"`` — block structure and edges are untouched (DCE, CSE, constant
  propagation, instcombine, LICM, mem2reg), so ``domtree``/``loopinfo``/
  ``cfg-preds`` survive;
* ``"none"`` (the default) — everything is invalidated (SimplifyCFG, the
  inliner, and any external pass that does not declare otherwise).

A run that reports *no change* implicitly preserves everything, and is
recorded by the manager so the same pass can be skipped on the same
still-unmutated function later (see ``AnalysisManager.should_skip``).

The pipeline drivers in :mod:`repro.passes.pass_manager` also record every
leaf pass run (seconds, changed or not) on that manager; a compile copies the
aggregate into ``CompileStats.passes``.  Pass objects themselves hold no
per-run state, so one prebuilt pipeline can serve many compiles.
"""

from __future__ import annotations

from ..ir.module import Function, Module


def call_pass(pass_, module: Module, am=None) -> bool:
    """Run ``pass_`` over ``module`` with the analysis manager; returns the
    pass's changed flag."""
    return pass_.run(module, am=am)


class Pass:
    """Common interface: every pass runs over a module and reports changes."""

    #: Short identifier used in pipeline descriptions and timing reports.
    name = "pass"

    #: Analyses a *changed* run leaves valid: ``"all"``, ``"cfg"``, ``"none"``,
    #: an iterable of analysis names, or a
    #: :class:`repro.analysis.manager.PreservedAnalyses`.  Passes that do not
    #: declare it default to ``"none"`` — maximally conservative.
    preserves = "none"

    def run(self, module: Module, am=None) -> bool:
        raise NotImplementedError


class FunctionPass(Pass):
    """A pass that processes one function at a time.

    When an analysis manager is threaded through, the per-function loop

    * skips functions this pass already ran clean on and that have not been
      mutated since (``am.should_skip``), and
    * reports each visit back (``am.after_function_pass``) so preserved
      analyses are re-stamped and the rest invalidated at function
      granularity.
    """

    #: Marks that this pass does its own per-function invalidation
    #: bookkeeping when it receives a manager, so the enclosing
    #: :class:`PassManager` must not apply module-wide invalidation again.
    handles_invalidation = True

    def run(self, module: Module, am=None) -> bool:
        changed = False
        for function in module.defined_functions():
            if am is not None and am.should_skip(self, function):
                continue
            fn_changed = self.run_on_function(function, am=am)
            if am is not None:
                am.after_function_pass(self, function, fn_changed)
            changed |= fn_changed
        return changed

    def run_on_function(self, function: Function, am=None) -> bool:
        raise NotImplementedError


class ModulePass(Pass):
    """A pass that needs to see the whole module (e.g. the inliner)."""

    def run(self, module: Module, am=None) -> bool:
        raise NotImplementedError
