"""Pass and pipeline-alias registries.

Every optimisation pass in :mod:`repro.passes` self-registers here with the
:func:`register_pass` decorator, under the short name used in textual pipeline
descriptions::

    @register_pass("mem2reg")
    class Mem2Reg(FunctionPass):
        ...

The registry deliberately has no dependencies on the IR or pass modules, so
it can be imported from anywhere without creating cycles; the heavy lifting
of *using* registered passes lives in :mod:`repro.driver.pipeline`.

Pipeline *aliases* are names that expand into whole pass sequences.  The
standard ``default<O0..O3>`` alias (registered by
:mod:`repro.passes.pass_manager`) reproduces the paper's fixed optimisation
levels; experiments can register their own.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import PipelineParseError

#: name -> factory callable (usually the pass class itself).
_PASS_REGISTRY: Dict[str, Callable] = {}

#: alias name -> expander; an expander maps an optional ``<variant>`` string
#: to the list of pass instances the alias stands for.
_ALIAS_REGISTRY: Dict[str, Callable[[Optional[str]], List]] = {}

_BUILTINS_LOADED = False

#: Bumped by :func:`unregister_pass`: the one registry change that can alter
#: what an already-parsed pipeline text means, so memoized parses (see
#: :class:`repro.Session`) key on it.
_GENERATION = 0


def _ensure_builtins() -> None:
    """Import the built-in pass modules so their registrations run."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        importlib.import_module("repro.passes")
        _BUILTINS_LOADED = True


def register_pass(name: str) -> Callable:
    """Class/factory decorator registering a pass under ``name``.

    The decorated callable is invoked with the keyword parameters appearing
    in the textual pipeline entry (e.g. ``inline(threshold=400)``) and must
    return a :class:`repro.passes.Pass` instance.
    """

    def decorator(factory: Callable) -> Callable:
        existing = _PASS_REGISTRY.get(name)
        if existing is not None and existing is not factory:
            raise ValueError(f"pass name {name!r} is already registered to {existing!r}")
        _PASS_REGISTRY[name] = factory
        return factory

    return decorator


def unregister_pass(name: str) -> bool:
    """Remove a registered pass; returns whether it was present.

    Intended for test harnesses that install throwaway passes (e.g. the
    conformance fuzzer's deliberately-miscompiling pass) and must not leak
    them into the process-wide registry other tests and campaigns see.
    """
    global _GENERATION
    if _PASS_REGISTRY.pop(name, None) is None:
        return False
    _GENERATION += 1
    return True


def generation() -> int:
    """How many passes were unregistered so far (see :data:`_GENERATION`)."""
    return _GENERATION


def register_pipeline_alias(name: str) -> Callable:
    """Decorator registering an alias expander under ``name``.

    The expander receives the ``<variant>`` text (``None`` when absent) and
    returns a list of pass instances; it should raise :class:`ValueError`
    for unknown variants.
    """

    def decorator(expander: Callable[[Optional[str]], List]) -> Callable:
        existing = _ALIAS_REGISTRY.get(name)
        if existing is not None and existing is not expander:
            raise ValueError(f"pipeline alias {name!r} is already registered")
        _ALIAS_REGISTRY[name] = expander
        return expander

    return decorator


def format_param_value(value) -> str:
    """Canonical textual form of a pass parameter (round-trips via parsing)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, str) else str(value)


def format_pipeline_entry(name: str, params: Optional[Dict[str, object]] = None) -> str:
    """Canonical textual form of one pipeline entry, e.g. ``inline(threshold=400)``."""
    if not params:
        return name
    args = ", ".join(f"{key}={format_param_value(value)}" for key, value in params.items())
    return f"{name}({args})"


def create_pass(name: str, **params):
    """Instantiate the registered pass ``name`` with ``params``.

    The returned instance carries a ``pipeline_repr`` attribute holding its
    canonical textual form, which :meth:`PassManager.describe` uses so that
    ``parse_pipeline(pm.describe())`` reconstructs the same pipeline.
    """
    _ensure_builtins()
    factory = _PASS_REGISTRY.get(name)
    if factory is None:
        known = ", ".join(sorted(_PASS_REGISTRY))
        raise PipelineParseError(f"unknown pass {name!r}; known passes: {known}")
    try:
        instance = factory(**params)
    except TypeError as exc:
        raise PipelineParseError(f"bad parameters for pass {name!r}: {exc}") from exc
    instance.pipeline_repr = format_pipeline_entry(name, params)
    return instance


def has_alias(name: str) -> bool:
    _ensure_builtins()
    return name in _ALIAS_REGISTRY


def expand_alias(name: str, variant: Optional[str] = None) -> List:
    """Expand a pipeline alias into its pass sequence."""
    _ensure_builtins()
    expander = _ALIAS_REGISTRY.get(name)
    if expander is None:
        known = ", ".join(sorted(_ALIAS_REGISTRY))
        raise PipelineParseError(f"unknown pipeline alias {name!r}; known aliases: {known}")
    try:
        return list(expander(variant))
    except ValueError as exc:
        raise PipelineParseError(
            f"bad variant {variant!r} for pipeline alias {name!r}: {exc}"
        ) from exc


def list_passes() -> Tuple[str, ...]:
    """Names of every registered pass, sorted."""
    _ensure_builtins()
    return tuple(sorted(_PASS_REGISTRY))


def pass_preserves(name: str):
    """The ``preserves`` declaration of the registered pass ``name``.

    Returns the raw declaration (``"all"``, ``"cfg"``, ``"none"`` or an
    iterable of analysis names) read from the pass class; coerce with
    :func:`repro.analysis.manager.coerce_preserved` when a
    :class:`~repro.analysis.manager.PreservedAnalyses` is needed.  Passes
    without a declaration report ``"none"`` — the conservative default.
    """
    _ensure_builtins()
    factory = _PASS_REGISTRY.get(name)
    if factory is None:
        known = ", ".join(sorted(_PASS_REGISTRY))
        raise PipelineParseError(f"unknown pass {name!r}; known passes: {known}")
    return getattr(factory, "preserves", "none")


def pass_metadata(name: str) -> Dict[str, object]:
    """Registry metadata for one pass: its name, ``preserves`` declaration
    and docstring summary (used by tooling and the DESIGN.md tables)."""
    factory = _PASS_REGISTRY.get(name)
    if factory is None:
        _ensure_builtins()
        factory = _PASS_REGISTRY.get(name)
    if factory is None:
        known = ", ".join(sorted(_PASS_REGISTRY))
        raise PipelineParseError(f"unknown pass {name!r}; known passes: {known}")
    doc = (factory.__doc__ or "").strip().splitlines()
    return {
        "name": name,
        "preserves": getattr(factory, "preserves", "none"),
        "summary": doc[0] if doc else "",
    }


def list_pipeline_aliases() -> Tuple[str, ...]:
    """Names of every registered pipeline alias, sorted."""
    _ensure_builtins()
    return tuple(sorted(_ALIAS_REGISTRY))
