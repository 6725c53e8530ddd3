"""Incremental recompilation: re-lower only the functions an edit touched.

Distill's compile pipeline is content-addressed per *compile unit* (one IR
function); this module exploits that to patch a live :class:`CompiledModel`
after a model edit instead of recompiling from scratch:

1. sanitize + layout run on the edited composition (they are cheap relative
   to optimisation and lowering, and an edit can change mined state);
2. a **layout-compatibility gate** checks that the static data structures
   (param/state/output struct layouts, input/result/monitor maps, execution
   order) are unchanged — otherwise every baked offset is suspect and the
   recompiler transparently falls back to a full compile, adopting its
   result in place;
3. a *patch module* is generated with
   :class:`~repro.core.codegen.ModelCodeGenerator` in selective mode
   (``only=changed``): full bodies for the edited mechanisms and the pass
   function, bare ``node_<name>`` declarations for everything else.  The
   trial drivers (``run_trial``/``run_model``) are always regenerated:
   their block-memory intrinsics keep them O(nodes), so regenerating and
   fingerprinting them is cheap;
4. the regenerated functions are fingerprinted against the previous
   compile.  When none changed, the edit is param-buffer-only (plain
   parameters load from the params buffer, so the IR is bit-identical and
   only the layout's default param values need swapping).  Otherwise the
   *patch scope* is the stale functions plus every caller that may inline
   one, transitively — callers stop at a ``noinline`` callee.  Node
   functions are ``alwaysinline`` and the pass function is ``noinline``
   (see :mod:`repro.core.codegen`), so a node edit scopes to
   ``node_<name>`` and ``run_pass``; every other regenerated function is
   turned back into a declaration (the drivers, unless a state reset
   value or the termination condition moved).  Unchanged functions are never
   re-optimized.  A live compile without that call
   boundary (a scope function that is ``noinline`` in the patch module is
   not ``noinline`` in the live one) falls back to a full compile;
5. the scoped functions are optimised with the model's own pipeline and
   grafted into the live module.  Only the scope functions the ``compiled``
   engine reaches from ``run_model`` are lowered, with everything outside
   the scope *linked in* from the previous compile (the compiled callables
   are injected into the exec namespace; a function not lowered yet is a
   stub that lowers the rest of the module on its first call, see
   :meth:`CompiledModel.exec_linked`).  The
   other scope functions — ``node_<name>`` once it is inlined into
   ``run_pass`` — leave the lowered set and re-lower on first use from the
   grafted IR, as does any lowered function that calls one.  The live
   callers of a replaced function — ``run_model`` calling ``run_pass`` —
   are relinked without re-lowering: their IR call sites are re-pointed by
   name, and the lowered closures' shared cell (or module global) for the
   callee is swapped.

The full-module compile remains the differential anchor: the fuzz oracle's
incremental leg (``python -m repro.fuzz --incremental``) asserts that a
patched model is bitwise-equal — results, monitors and final PRNG counters —
to a cold compile of the edited composition on every engine.

Patched models are deliberately **not** written back to the artifact store:
their ``unit_fingerprints`` describe the original full compile, and the cold
path would happily re-create (or re-fetch) the exact entry anyway.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional, Set

from ..cogframe.composition import Composition
from ..cogframe.mechanisms import GridSearchControlMechanism
from ..cogframe.sanitize import sanitize
from .codegen import ModelCodeGenerator
from .distill import ENTRY_FUNCTION
from .structs import StaticLayout, build_layout

__all__ = ["recompile_model"]


# ---------------------------------------------------------------------------
# Edit discovery
# ---------------------------------------------------------------------------


def _mechanism_codegen_key(composition: Composition, name: str):
    """Everything that feeds ``name``'s generated node function.

    Besides the mechanism itself (type, ports, function parameters and — for
    control mechanisms — levels and steps), the node body bakes the incoming
    projection matrices and slices, and membership in the monitored /
    input / output sets decides which record-keeping code is emitted.
    """
    from ..driver.session import _canonical, _condition_key, _mechanism_key

    mech = composition.mechanisms[name]
    incoming = tuple(
        (p.sender.name, p.port, _canonical(p.matrix), _canonical(p.sender_slice))
        for p in composition.projections
        if p.receiver.name == name
    )
    return (
        _mechanism_key(mech),
        incoming,
        _condition_key(composition.conditions[name]),
        name in composition.input_nodes,
        name in composition.output_nodes,
        name in composition.monitored_nodes,
    )


def _diff_compositions(old: Composition, new: Composition) -> Optional[Set[str]]:
    """Mechanisms whose node function could differ between two compositions.

    Returns ``None`` when the edit is structural (mechanisms added or
    removed) and a patch cannot apply.  Scheduler-level edits (conditions,
    termination, ``max_passes``) need no entry here: the scheduler functions
    are always regenerated, and layout-affecting edits are caught by the
    compatibility gate.
    """
    if set(old.mechanisms) != set(new.mechanisms):
        return None
    return {
        name
        for name in new.mechanisms
        if _mechanism_codegen_key(old, name) != _mechanism_codegen_key(new, name)
    }


def _expand_changed(composition: Composition, changed: Set[str]) -> Set[str]:
    """Pull in control mechanisms whose eval kernels bake a changed step.

    A grid-search kernel inlines the functions and initial state of its step
    mechanisms, so editing a mechanism that doubles as a controller's step
    invalidates the kernel even though the controller itself was not named.
    """
    expanded = set(changed)
    for name, mech in composition.mechanisms.items():
        if name in expanded or not isinstance(mech, GridSearchControlMechanism):
            continue
        if any(step.mechanism.name in changed for step in mech.steps):
            expanded.add(name)
    return expanded


# ---------------------------------------------------------------------------
# Layout compatibility
# ---------------------------------------------------------------------------


def _layout_compatible(old: StaticLayout, new: StaticLayout) -> bool:
    """True when every offset baked into the previous compile still holds.

    Compares the three static structs by full structural signature (field
    names and types in order — :func:`repro.ir.fingerprint.type_signature`)
    plus the buffer maps and the execution order.  Parameter *values* are
    free to differ: they live in the params buffer, not the layout shape.
    """
    from ..ir.fingerprint import type_signature

    return (
        type_signature(old.params_struct) == type_signature(new.params_struct)
        and type_signature(old.state_struct) == type_signature(new.state_struct)
        and type_signature(old.output_struct) == type_signature(new.output_struct)
        and old.execution_order == new.execution_order
        and old.input_layout == new.input_layout
        and old.result_layout == new.result_layout
        and old.monitor_layout == new.monitor_layout
        and old.output_offsets == new.output_offsets
        and old.max_passes == new.max_passes
        and old.input_size == new.input_size
    )


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


def _callers(module) -> Dict[str, Set[str]]:
    """Callee name -> names of the defined functions that call it."""
    from ..ir.instructions import Call

    callers: Dict[str, Set[str]] = {name: set() for name in module.functions}
    for fn in module.defined_functions():
        for instr in fn.instructions():
            if isinstance(instr, Call):
                callers[instr.callee.name].add(fn.name)
    return callers


def _transitive_callers(callers, roots: Iterable[str], module=None) -> Set[str]:
    """``roots`` plus their callers, transitively.

    With ``module``, the walk does not pass a ``noinline`` callee: a caller
    of such a function never holds a copy of its body.
    """
    found = set(roots)
    work = list(found)
    while work:
        name = work.pop()
        if module is not None and module.functions[name].attributes.get("noinline"):
            continue
        for caller in callers.get(name, ()):
            if caller not in found:
                found.add(caller)
                work.append(caller)
    return found


def _declare_only(module, names: Iterable[str]) -> None:
    """Turn the named defined functions of ``module`` into declarations.

    The dropped bodies are garbage as a whole (IR values never cross a
    function), so their use lists are left alone rather than unlinked one
    operand at a time.
    """
    for name in names:
        fn = module.functions[name]
        fn.blocks = []
        fn.notify_mutation()


def _reachable_scope(model, patch_module, scope: Set[str], live_callers: Set[str]) -> Set[str]:
    """The scope functions reachable through calls from the entry function
    once the patch is grafted.  The walk enters only scope functions and
    their live callers: no other live function calls into the scope."""
    from ..ir.instructions import Call

    found: Set[str] = set()
    seen = {ENTRY_FUNCTION}
    work = [ENTRY_FUNCTION]
    while work:
        name = work.pop()
        if name in scope:
            found.add(name)
            fn = patch_module.functions[name]
        elif name in live_callers:
            fn = model.module.functions[name]
        else:
            continue
        for instr in fn.instructions():
            if isinstance(instr, Call) and instr.callee.name not in seen:
                seen.add(instr.callee.name)
                work.append(instr.callee.name)
    return found


def _relink_callers(
    model,
    live_callers: Iterable[str],
    replaced: Dict[str, object],
    lowered: Dict[str, object],
    py_names: Dict[str, str],
) -> None:
    """Point live functions outside the patch at the replaced functions.

    ``replaced`` maps names to the grafted IR functions, ``lowered`` holds
    the callables of the replaced functions that were relowered, and
    ``py_names`` maps the replaced functions' Python names back to IR
    names.  IR call sites of the live callers are re-pointed by name.  A replaced function that
    was not relowered leaves the lowered set, and so does every lowered
    function whose code calls one.  Lowered code reaches a function defined
    in the same compile through a closure cell of the generated module
    factory, and any other function through a global of the exec
    namespace; swapping a shared cell or global relinks every caller of
    that compile at once.
    """
    from ..ir.instructions import Call

    for name in live_callers:
        for instr in model.module.functions[name].instructions():
            if isinstance(instr, Call) and instr.callee.name in replaced:
                instr.callee = replaced[instr.callee.name]
    compiled = model._compiled
    dropped = {py: name for py, name in py_names.items() if name not in lowered}
    kept = {name: fn for name, fn in compiled.items() if name not in replaced}
    while True:
        stale = [
            name
            for name, fn in kept.items()
            if not dropped.keys().isdisjoint(fn.__code__.co_freevars + fn.__code__.co_names)
        ]
        if not stale:
            break
        for name in stale:
            dropped[kept.pop(name).__name__] = name
    for name in dropped.values():
        compiled.pop(name, None)
    compiled.update(lowered)
    relinked = {py: lowered[name] for py, name in py_names.items() if name in lowered}
    for fn in kept.values():
        code = fn.__code__
        for var, cell in zip(code.co_freevars, fn.__closure__ or ()):
            if var in relinked:
                cell.cell_contents = relinked[var]
        for var in code.co_names:
            if var in relinked and var in fn.__globals__:
                fn.__globals__[var] = relinked[var]


def _graft_functions(old_module, patch_module) -> Dict[str, object]:
    """Install the patch module's defined functions into the live module.

    Replaced functions keep their name slot; calls inside grafted functions
    are re-pointed at the live module's functions (unchanged nodes keep
    their original definitions; intrinsics are declared on demand).
    Returns the grafted functions by name.
    """
    from ..ir.instructions import Call

    grafted = {}
    for fn in patch_module.defined_functions():
        old_module.functions[fn.name] = fn
        fn.module = old_module
        grafted[fn.name] = fn
    for fn in grafted.values():
        for instr in fn.instructions():
            if not isinstance(instr, Call):
                continue
            callee = instr.callee
            if callee.module is old_module:
                continue
            target = old_module.functions.get(callee.name)
            if target is None:
                if callee.intrinsic_name:
                    target = old_module.declare_intrinsic(callee.intrinsic_name)
                else:
                    callee.module = old_module
                    old_module.functions[callee.name] = callee
                    target = callee
            instr.callee = target
    return grafted


def _merge_grid_searches(model, regenerated) -> None:
    if not regenerated:
        return
    by_name = {g.control_name: g for g in regenerated}
    merged = [by_name.pop(g.control_name, g) for g in model.artifacts.grid_searches]
    merged.extend(by_name.values())
    model.artifacts.grid_searches = merged


def _invalidate_engines(model) -> None:
    """Drop every engine binding and the scheduler plan: both hold the
    pre-edit callables, layout and grid levels."""
    model.close_engines()
    with model._engine_lock:
        model._engine_instances.clear()
    model._grid_driver_plan = None


def _swap_metadata(model, composition, info, layout) -> None:
    model.composition = composition
    model.info = info
    model.layout = layout
    model.artifacts.layout = layout


def _adopt(model, fresh) -> None:
    """Replace ``model``'s contents with a freshly compiled model's, in place.

    Used by the full-recompile fallback so callers keep one stable handle
    regardless of which path an edit took.  Cumulative recompile counters
    survive the swap.
    """
    patches = model.stats.artifact_patches
    recompile_seconds = model.stats.recompile_seconds
    model.composition = fresh.composition
    model.info = fresh.info
    model.layout = fresh.layout
    model.artifacts = fresh.artifacts  # carries the module, decoded or not
    model.pipeline = fresh.pipeline
    model.pipeline_text = fresh.pipeline_text
    model.flags = fresh.flags
    model.seed = fresh.seed
    model.stats = fresh.stats
    model.stats.artifact_patches = patches
    model.stats.recompile_seconds = recompile_seconds
    model.source = fresh.source
    model.rest_source = fresh.rest_source
    model._deferred_links = fresh._deferred_links
    model.unit_fingerprints = fresh.unit_fingerprints
    model.function_fingerprints = fresh.function_fingerprints
    model._compiled = fresh._compiled


def _full_recompile(model, composition, store, started, reason: str) -> Dict[str, object]:
    from .distill import compile_composition

    fresh = compile_composition(
        composition,
        pipeline=model.pipeline,
        seed=model.seed,
        verify=None,  # a prebuilt manager keeps its own policy
        flags=model.flags or None,
        store=store,
    )
    _adopt(model, fresh)
    _invalidate_engines(model)
    elapsed = time.perf_counter() - started
    model.stats.recompile_seconds += elapsed
    return {
        "mode": "full",
        "reason": reason,
        "changed": None,
        "relowered": sorted(fresh._compiled),
        "seconds": elapsed,
    }


def recompile_model(
    model,
    composition: Optional[Composition] = None,
    changed: Optional[Iterable[str]] = None,
    store=None,
) -> Dict[str, object]:
    """Patch ``model`` in place to match an edited composition.

    ``composition`` defaults to the model's own (for in-place edits);
    ``changed`` names the edited mechanisms.  When both are omitted — or
    when ``changed`` is omitted for an in-place edit — every mechanism is
    regenerated and the fingerprint fixpoint discards the unchanged ones.
    When a *distinct* composition is passed without ``changed``, the edit
    set is discovered by structural diff.

    Contract for explicit ``changed``: it must cover every mechanism whose
    parameters, projections or function were edited (controls whose steps
    reference a changed mechanism are pulled in automatically).  The fuzz
    oracle's incremental leg cross-checks the result against a cold compile.
    """
    from ..analysis.manager import AnalysisManager
    from ..backends.pycodegen import PythonCodeGenerator
    from ..ir.fingerprint import function_fingerprint

    started = time.perf_counter()
    model.edits += 1
    stats = model.stats
    new_composition = composition if composition is not None else model.composition

    if changed is not None:
        if set(new_composition.mechanisms) != set(model.composition.mechanisms):
            return _full_recompile(
                model, new_composition, store, started, "mechanism set changed"
            )
        changed_set = set(changed)
        unknown = changed_set - set(new_composition.mechanisms)
        if unknown:
            raise KeyError(f"changed names unknown mechanisms: {sorted(unknown)}")
    elif new_composition is model.composition:
        changed_set = set(new_composition.mechanisms)
    else:
        diffed = _diff_compositions(model.composition, new_composition)
        if diffed is None:
            return _full_recompile(
                model, new_composition, store, started, "mechanism set changed"
            )
        changed_set = diffed
    changed_set = _expand_changed(new_composition, changed_set)

    # Re-mine types/shapes/state on the edited composition: cheap relative
    # to optimise+lower, and edits can move the sanitize-baked values.
    info = sanitize(new_composition, seed=model.seed)
    layout = build_layout(new_composition, info)
    if not _layout_compatible(model.layout, layout):
        return _full_recompile(
            model, new_composition, store, started, "layout incompatible"
        )

    generator = ModelCodeGenerator(new_composition, info, layout, only=changed_set)
    patch_artifacts = generator.generate()
    patch_module = patch_artifacts.module

    new_fps = {
        fn.name: function_fingerprint(fn) for fn in patch_module.defined_functions()
    }
    stale = sorted(
        name
        for name, fp in new_fps.items()
        if model.function_fingerprints.get(name) != fp
    )

    if not stale:
        # Pure parameter-value edit: the IR is bit-identical (plain params
        # and grid levels load from the params buffer), so only the layout's
        # default values — and the parallel engines' grid metadata — move.
        _swap_metadata(model, new_composition, info, layout)
        _merge_grid_searches(model, generator.grid_searches)
        _invalidate_engines(model)
        elapsed = time.perf_counter() - started
        stats.recompile_seconds += elapsed
        return {
            "mode": "params-only",
            "changed": sorted(changed_set),
            "relowered": [],
            "seconds": elapsed,
        }

    # Patch scope: the stale functions plus every caller that may have
    # inlined one.  Generated callers of a defined function are themselves
    # defined in the patch module (a node calls only its own eval kernel,
    # and both are regenerated together), so the scope is complete.
    callers = _callers(patch_module)
    scope = _transitive_callers(callers, stale, patch_module)
    # The walk stops at ``noinline`` functions: the live callers hold no
    # copy of their bodies only if the live compile kept them ``noinline``
    # too (a store entry from an older generator may not).
    for name in sorted(scope):
        if patch_module.functions[name].attributes.get("noinline"):
            live_fn = model.module.functions.get(name)
            if live_fn is None or not live_fn.attributes.get("noinline"):
                return _full_recompile(
                    model, new_composition, store, started, f"no call boundary at {name}"
                )
    _declare_only(
        patch_module, [fn.name for fn in patch_module.defined_functions() if fn.name not in scope]
    )
    # Live functions outside the scope whose lowered code calls into it
    # (unchanged drivers call the pass function).
    live_callers = _transitive_callers(callers, scope) - scope

    flags = model.flags or {}
    analysis_manager = AnalysisManager(enabled=bool(flags.get("analysis_cache", True)))
    model.pipeline.run(patch_module, analysis_manager)

    # Lower the scope functions the engine reaches; the others re-lower on
    # first use from the grafted IR.
    entry = _reachable_scope(model, patch_module, scope, live_callers)
    lowerer = PythonCodeGenerator(
        patch_module,
        analysis_manager=analysis_manager if analysis_manager.enabled else None,
        sanitize=bool(flags.get("sanitize", False)),
        functions=[fn for fn in patch_module.defined_functions() if fn.name in entry],
    )
    # Everything outside the lowered functions links in from the previous
    # compile: the calls resolve to the compiled callables (or, for a
    # function not lowered yet, a stub lowering the rest on first call)
    # through the exec namespace.
    compiled = model.exec_linked(lowerer, lowerer.generate_source())
    analysis_manager.clear()

    grafted = _graft_functions(model.module, patch_module)
    _relink_callers(
        model,
        sorted(live_callers),
        grafted,
        compiled,
        {lowerer._py_name(fn): name for name, fn in grafted.items()},
    )
    model.function_fingerprints.update(new_fps)
    _swap_metadata(model, new_composition, info, layout)
    _merge_grid_searches(model, generator.grid_searches)
    # The stored source and unit keys describe the original full compile;
    # a patched artifact is never written back to the store.
    model.source = None
    model.rest_source = None
    _invalidate_engines(model)

    elapsed = time.perf_counter() - started
    stats.artifact_patches += len(stale)
    stats.recompile_seconds += elapsed
    return {
        "mode": "patched",
        "changed": sorted(changed_set),
        "relowered": stale,
        "optimized": sorted(scope),
        "seconds": elapsed,
    }
