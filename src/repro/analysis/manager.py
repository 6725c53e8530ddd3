"""The analysis manager: lazily computed, cached, invalidation-aware analyses.

LLVM's new pass manager decouples *computing* an analysis from *using* it: a
pass asks the analysis manager for a result, the manager computes it at most
once, and after each transformation pass the manager invalidates exactly the
results the pass did not declare preserved.  This module is the repro
equivalent.  Before it existed every pass invocation rebuilt its own
:class:`~repro.passes.dominators.DominatorTree` (mem2reg, CSE and LICM each
per function per run, LoopInfo and SCEV again on top), so one ``default<O2>``
compile recomputed the same dominator tree up to a dozen times per function —
the dominant share of the pipeline cost the paper's Figure 7 measures.

Two mechanisms keep cached results sound:

* **Mutation counters.**  ``Function.mutation_count`` / ``Module.mutation_count``
  are bumped by every IR mutation API (see :mod:`repro.ir`).  A cached result
  is served only while the counter matches the value recorded when the result
  was computed — a pass that mutates the IR without declaring anything simply
  loses all cached analyses for that function.
* **Preserved analyses.**  A pass that *does* change the IR declares which
  analyses survive (its ``preserves`` attribute, e.g. DCE preserves the CFG
  analyses).  After a changed run the manager re-stamps preserved entries with
  the new counter value and evicts the rest.  A pass that reports no change
  preserves everything implicitly.

The manager also powers a second optimisation: it records, per (pass,
function), the counter value at the end of a *clean* run (one that reported
no change).  A deterministic pass re-visiting a function whose counter has
not moved since its last clean run is skipped outright.

In ``audit`` mode the manager recomputes preserved CFG analyses after each
changed run and raises :class:`repro.errors.StaleAnalysisError` when a pass
lied about preservation — used by the invalidation-correctness tests.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from ..errors import StaleAnalysisError
from ..ir.cfg import predecessor_map
from ..ir.module import Function, Module
from ..passes.dominators import DominatorTree
from ..passes.loopinfo import LoopInfo

__all__ = [
    "AnalysisManager",
    "PreservedAnalyses",
    "CFG_ANALYSES",
    "FUNCTION_ANALYSES",
    "MODULE_ANALYSES",
    "register_function_analysis",
    "register_module_analysis",
    "analysis_name",
]


#: Function analyses whose results depend only on the CFG shape (blocks and
#: edges), not on the non-terminator instructions inside the blocks.  A pass
#: declaring ``preserves = "cfg"`` keeps exactly these alive across a change.
CFG_ANALYSES = frozenset({"cfg-preds", "domtree", "loopinfo"})


class PreservedAnalyses:
    """The set of analyses a pass run left valid.

    Construct via the classmethods: :meth:`all` (nothing invalidated),
    :meth:`none` (everything invalidated — the safe default for unknown
    passes), :meth:`cfg` (the CFG-shape analyses survive) or
    :meth:`these(names)` for an explicit set.
    """

    __slots__ = ("_all", "_names")

    def __init__(self, names: Iterable[str] = (), preserve_all: bool = False):
        self._all = bool(preserve_all)
        self._names = frozenset(names)

    @classmethod
    def all(cls) -> "PreservedAnalyses":
        return cls(preserve_all=True)

    @classmethod
    def none(cls) -> "PreservedAnalyses":
        return cls()

    @classmethod
    def cfg(cls) -> "PreservedAnalyses":
        return cls(CFG_ANALYSES)

    @classmethod
    def these(cls, names: Iterable[str]) -> "PreservedAnalyses":
        return cls(frozenset(names))

    def preserves(self, name: str) -> bool:
        return self._all or name in self._names

    @property
    def is_all(self) -> bool:
        return self._all

    def __contains__(self, name: str) -> bool:
        return self.preserves(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self._all:
            return "<PreservedAnalyses all>"
        return f"<PreservedAnalyses {sorted(self._names)}>"


def coerce_preserved(spec: Union["PreservedAnalyses", str, Iterable[str], None]) -> PreservedAnalyses:
    """Normalise a pass's ``preserves`` declaration.

    Accepts a :class:`PreservedAnalyses`, the shorthand strings ``"all"`` /
    ``"none"`` / ``"cfg"``, an iterable of analysis names, or ``None``
    (treated as ``"none"``: unknown passes invalidate everything they touch).
    """
    if isinstance(spec, PreservedAnalyses):
        return spec
    if spec is None:
        return PreservedAnalyses.none()
    if isinstance(spec, str):
        if spec == "all":
            return PreservedAnalyses.all()
        if spec == "none":
            return PreservedAnalyses.none()
        if spec == "cfg":
            return PreservedAnalyses.cfg()
        return PreservedAnalyses.these((spec,))
    return PreservedAnalyses.these(spec)


def preserved_analyses_of(pass_) -> PreservedAnalyses:
    """The :class:`PreservedAnalyses` a *changed* run of ``pass_`` leaves valid."""
    return coerce_preserved(getattr(pass_, "preserves", None))


# ---------------------------------------------------------------------------
# Analysis registries
# ---------------------------------------------------------------------------

#: name -> computer(function, manager) for per-function analyses.
FUNCTION_ANALYSES: Dict[str, Callable[[Function, "AnalysisManager"], object]] = {}

#: name -> computer(module, manager) for per-module analyses.
MODULE_ANALYSES: Dict[str, Callable[[Module, "AnalysisManager"], object]] = {}

#: Analysis classes usable as ``am.get(DominatorTree, fn)`` shorthands.
_CLASS_NAMES: Dict[type, str] = {}


def register_function_analysis(name: str, computer: Callable, class_key: Optional[type] = None) -> None:
    """Register a per-function analysis under ``name``.

    ``computer(function, manager)`` builds the result; it may request other
    analyses through the manager (e.g. ``loopinfo`` asks for ``domtree``).
    ``class_key`` optionally registers a class so ``manager.get(cls, fn)``
    resolves to this analysis.
    """
    FUNCTION_ANALYSES[name] = computer
    if class_key is not None:
        _CLASS_NAMES[class_key] = name


def register_module_analysis(name: str, computer: Callable, class_key: Optional[type] = None) -> None:
    """Register a per-module analysis under ``name`` (see
    :func:`register_function_analysis`)."""
    MODULE_ANALYSES[name] = computer
    if class_key is not None:
        _CLASS_NAMES[class_key] = name


def analysis_name(analysis: Union[str, type]) -> str:
    """Resolve an analysis reference (registered name or class) to its name."""
    if isinstance(analysis, str):
        return analysis
    name = _CLASS_NAMES.get(analysis)
    if name is None:
        raise KeyError(
            f"{analysis!r} is not a registered analysis; known: "
            f"{sorted(FUNCTION_ANALYSES) + sorted(MODULE_ANALYSES)}"
        )
    return name


def _compute_domtree(function: Function, am: "AnalysisManager") -> DominatorTree:
    return DominatorTree(function)


def _compute_cfg_preds(function: Function, am: "AnalysisManager"):
    return predecessor_map(function)


def _compute_loopinfo(function: Function, am: "AnalysisManager") -> LoopInfo:
    return LoopInfo(function, domtree=am.get("domtree", function))


def _compute_vrp(function: Function, am: "AnalysisManager"):
    from .vrp import ValueRangePropagation

    return ValueRangePropagation(function).run()


def _compute_intervals(function: Function, am: "AnalysisManager"):
    return am.get("vrp", function).all_ranges()


def _compute_scev(function: Function, am: "AnalysisManager"):
    from .scev import ScalarEvolution

    return ScalarEvolution(
        function,
        loopinfo=am.get("loopinfo", function),
        vrp=am.get("vrp", function),
    )


def _compute_callgraph(module: Module, am: "AnalysisManager") -> Dict[str, int]:
    """Call-site counts per callee name (the inliner's one-call-site heuristic)."""
    from ..passes.inline import count_call_sites

    return count_call_sites(module)


def _compute_memory_facts(function: Function, am: "AnalysisManager"):
    from .dataflow import MemoryFacts

    return MemoryFacts(function)


def _compute_definite_init(function: Function, am: "AnalysisManager"):
    from .dataflow import DefiniteInitProblem, solve

    return solve(DefiniteInitProblem(am.get("memory-facts", function)), function)


def _compute_live_slots(function: Function, am: "AnalysisManager"):
    from .dataflow import LiveSlotsProblem, solve

    return solve(LiveSlotsProblem(am.get("memory-facts", function)), function)


def _compute_div_classes(function: Function, am: "AnalysisManager"):
    from .dataflow import classify_divisions

    return classify_divisions(
        function, am.get("vrp", function), am.get("domtree", function)
    )


register_function_analysis("domtree", _compute_domtree, DominatorTree)
register_function_analysis("cfg-preds", _compute_cfg_preds)
register_function_analysis("loopinfo", _compute_loopinfo, LoopInfo)
register_function_analysis("vrp", _compute_vrp)
register_function_analysis("intervals", _compute_intervals)
register_function_analysis("scev", _compute_scev)
register_function_analysis("memory-facts", _compute_memory_facts)
register_function_analysis("definite-init", _compute_definite_init)
register_function_analysis("live-slots", _compute_live_slots)
register_function_analysis("div-classes", _compute_div_classes)
register_module_analysis("callgraph", _compute_callgraph)


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


class _CacheEntry:
    __slots__ = ("count", "result")

    def __init__(self, count: int, result: object):
        self.count = count
        self.result = result


#: Audit comparators: name -> equality check over two results of the analysis.
_AUDIT_CHECKS: Dict[str, Callable[[object, object], bool]] = {}


def _domtree_equal(a: DominatorTree, b: DominatorTree) -> bool:
    if {id(k) for k in a.idom} != {id(k) for k in b.idom}:
        return False
    by_id = {id(k): v for k, v in b.idom.items()}
    return all(by_id[id(k)] is v for k, v in a.idom.items())


def _preds_equal(a, b) -> bool:
    if {id(k) for k in a} != {id(k) for k in b}:
        return False
    by_id = {id(k): v for k, v in b.items()}
    return all([id(x) for x in v] == [id(x) for x in by_id[id(k)]] for k, v in a.items())


def _loopinfo_equal(a: LoopInfo, b: LoopInfo) -> bool:
    def shape(info):
        return sorted(
            (id(loop.header), tuple(sorted(id(blk) for blk in loop.blocks)))
            for loop in info.loops
        )

    return shape(a) == shape(b)


_AUDIT_CHECKS["domtree"] = _domtree_equal
_AUDIT_CHECKS["cfg-preds"] = _preds_equal
_AUDIT_CHECKS["loopinfo"] = _loopinfo_equal


class AnalysisManager:
    """Caches per-function and per-module analysis results across a pipeline.

    One manager lives for one compile (created by
    :func:`repro.core.distill.compile_composition` and threaded through the
    pass managers); passes request analyses with ``am.get(DominatorTree, fn)``
    or ``am.get("loopinfo", fn)``.

    Parameters
    ----------
    enabled:
        With ``False`` the manager recomputes every request and never skips a
        pass — the "cold" reference configuration used by the differential
        tests and the Figure 7 cache benchmark.
    audit:
        Recompute preserved CFG analyses after every changed pass run and
        raise :class:`~repro.errors.StaleAnalysisError` on disagreement.
        Expensive; meant for tests and debugging miscompiles.
    """

    def __init__(self, enabled: bool = True, audit: bool = False):
        self.enabled = enabled
        self.audit = audit
        #: id(target) -> {analysis name -> entry}; targets are pinned in
        #: ``_targets`` so ids cannot be recycled while entries exist.
        self._function_entries: Dict[int, Dict[str, _CacheEntry]] = {}
        self._module_entries: Dict[int, Dict[str, _CacheEntry]] = {}
        self._targets: Dict[int, object] = {}
        #: (pass key, id(function-or-module)) -> mutation count after a clean run.
        self._clean_runs: Dict[Tuple[object, int], int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.skipped_passes = 0
        #: analysis name -> number of times it was actually computed.
        self.computed: Dict[str, int] = {}
        #: pass name -> {"seconds", "runs", "changed", "noops"} over every
        #: leaf pass run of the compile (see :meth:`record_pass`).
        self.passes: Dict[str, Dict[str, float]] = {}

    # -- lookup ----------------------------------------------------------------
    def get(self, analysis: Union[str, type], target: Union[Function, Module]):
        """The (possibly cached) result of ``analysis`` for ``target``."""
        name = analysis_name(analysis)
        if name in FUNCTION_ANALYSES:
            if not isinstance(target, Function):
                raise TypeError(f"analysis {name!r} is per-function, got {target!r}")
            computer = FUNCTION_ANALYSES[name]
            entries = self._entries_for(self._function_entries, target)
        elif name in MODULE_ANALYSES:
            if not isinstance(target, Module):
                raise TypeError(f"analysis {name!r} is per-module, got {target!r}")
            computer = MODULE_ANALYSES[name]
            entries = self._entries_for(self._module_entries, target)
        else:
            raise KeyError(
                f"unknown analysis {name!r}; known: "
                f"{sorted(FUNCTION_ANALYSES) + sorted(MODULE_ANALYSES)}"
            )

        if self.enabled:
            entry = entries.get(name)
            if entry is not None and entry.count == target.mutation_count:
                self.hits += 1
                return entry.result
        self.misses += 1
        self.computed[name] = self.computed.get(name, 0) + 1
        count = target.mutation_count
        result = computer(target, self)
        if self.enabled:
            entries[name] = _CacheEntry(count, result)
        return result

    def cached(self, analysis: Union[str, type], target) -> Optional[object]:
        """The cached result if present *and valid*, else ``None`` (no compute)."""
        name = analysis_name(analysis)
        entries = (
            self._function_entries if isinstance(target, Function) else self._module_entries
        ).get(id(target))
        if not entries:
            return None
        entry = entries.get(name)
        if entry is not None and entry.count == target.mutation_count:
            return entry.result
        return None

    def _entries_for(self, table, target) -> Dict[str, _CacheEntry]:
        key = id(target)
        entries = table.get(key)
        if entries is None:
            entries = table[key] = {}
            self._targets[key] = target
        return entries

    # -- invalidation -----------------------------------------------------------
    def invalidate(self, target=None, names: Optional[Iterable[str]] = None) -> None:
        """Drop cached results: all of them, all for ``target``, or ``names``
        for ``target``."""
        if target is None:
            for table in (self._function_entries, self._module_entries):
                for entries in table.values():
                    self.invalidations += len(entries)
                    entries.clear()
            self._clean_runs.clear()
            return
        table = self._function_entries if isinstance(target, Function) else self._module_entries
        entries = table.get(id(target))
        if entries:
            for name in list(entries) if names is None else list(names):
                if entries.pop(name, None) is not None:
                    self.invalidations += 1
        if names is None:
            # A full target invalidation is the escape hatch for mutations the
            # counter did not observe — clean-run skip records for the target
            # are equally suspect, so drop them too.
            target_key = id(target)
            self._clean_runs = {
                key: count for key, count in self._clean_runs.items() if key[1] != target_key
            }

    def _sweep(self, entries: Dict[str, _CacheEntry], target, preserved: PreservedAnalyses) -> None:
        """Re-stamp preserved entries to the target's current counter; evict
        stale non-preserved ones.  Entries whose counter already matches are
        untouched (the target was not mutated, so they are valid regardless)."""
        current = target.mutation_count
        for name in list(entries):
            entry = entries[name]
            if entry.count == current:
                continue
            if preserved.preserves(name):
                if self.audit:
                    self._audit_entry(name, target, entry.result)
                entry.count = current
            else:
                del entries[name]
                self.invalidations += 1

    def _audit_entry(self, name: str, target, cached_result) -> None:
        check = _AUDIT_CHECKS.get(name)
        computer = FUNCTION_ANALYSES.get(name) or MODULE_ANALYSES.get(name)
        if check is None or computer is None:
            return
        fresh = computer(target, AnalysisManager(enabled=False))
        if not check(cached_result, fresh):
            label = getattr(target, "name", target)
            raise StaleAnalysisError(
                f"analysis {name!r} of {label!r} was declared preserved but a "
                f"recomputation disagrees with the cached result — the pass "
                f"lied about its PreservedAnalyses"
            )

    # -- pass bookkeeping -----------------------------------------------------
    @staticmethod
    def _pass_key(pass_) -> object:
        # The canonical pipeline text encodes pass name + parameters, so two
        # registry-built instances of the same configured pass share clean-run
        # records; hand-built passes fall back to object identity.
        return getattr(pass_, "pipeline_repr", None) or id(pass_)

    def should_skip(self, pass_, target: Union[Function, Module]) -> bool:
        """True when ``pass_`` last ran clean on ``target`` and nothing has
        mutated it since (deterministic passes cannot find new work)."""
        if not self.enabled:
            return False
        recorded = self._clean_runs.get((self._pass_key(pass_), id(target)))
        if recorded is not None and recorded == target.mutation_count:
            self.skipped_passes += 1
            return True
        return False

    def after_function_pass(self, pass_, function: Function, changed: bool) -> None:
        """Bookkeeping after one function-pass visit: invalidate on change,
        record a clean run otherwise."""
        if not self.enabled:
            return
        if changed:
            preserved = preserved_analyses_of(pass_)
            entries = self._function_entries.get(id(function))
            if entries:
                self._sweep(entries, function, preserved)
            module = function.module
            if module is not None:
                module_entries = self._module_entries.get(id(module))
                if module_entries:
                    self._sweep(module_entries, module, preserved)
        else:
            key = id(function)
            self._targets.setdefault(key, function)
            self._clean_runs[(self._pass_key(pass_), key)] = function.mutation_count

    def after_module_pass(self, pass_, module: Module, changed: bool) -> None:
        """Bookkeeping after a module pass (or a legacy pass the manager could
        not observe per function)."""
        if not self.enabled:
            return
        if changed:
            preserved = preserved_analyses_of(pass_)
            for key, entries in self._function_entries.items():
                if entries:
                    self._sweep(entries, self._targets[key], preserved)
            entries = self._module_entries.get(id(module))
            if entries:
                self._sweep(entries, module, preserved)
        else:
            key = id(module)
            self._targets.setdefault(key, module)
            self._clean_runs[(self._pass_key(pass_), key)] = module.mutation_count

    def record_pass(self, name: str, seconds: float, changed: bool) -> None:
        """Credit one leaf pass run to ``name``.

        ``changed`` counts runs that reported an IR mutation and ``noops``
        the runs that found nothing to do (a skipped run is a 0-second
        no-op) — the distinction a pure timing table cannot make between a
        cheap pass and a useless one.  A pass with ``changed == 0`` across a
        whole compile is the autotuner's first pruning candidate (see
        :mod:`repro.driver.autotune`).  Recorded whether or not the cache
        is enabled.
        """
        row = self.passes.get(name)
        if row is None:
            row = self.passes[name] = {"seconds": 0.0, "runs": 0, "changed": 0, "noops": 0}
        row["seconds"] += seconds
        row["runs"] += 1
        row["changed" if changed else "noops"] += 1

    def clear(self) -> None:
        """Release every cached result, pinned target and skip record.

        Counters and the pass record survive (they describe work already
        done).  Called by :func:`repro.core.distill.compile_composition` once
        the pipeline has run: the manager's lifetime is one compile, and the
        cached dominator trees / range maps would otherwise stay reachable
        for as long as the (session-memoized) compiled model does.
        """
        self._function_entries.clear()
        self._module_entries.clear()
        self._targets.clear()
        self._clean_runs.clear()

    # -- reporting ---------------------------------------------------------------
    def cache_info(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "skipped_passes": self.skipped_passes,
            "computed": dict(self.computed),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<AnalysisManager hits={self.hits} misses={self.misses} "
            f"invalidations={self.invalidations} skipped={self.skipped_passes}>"
        )
