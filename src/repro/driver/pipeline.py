"""Textual pipeline descriptions, LLVM-new-pass-manager style.

Grammar (see DESIGN.md for the full description)::

    pipeline  := entry ("," entry)*
    entry     := alias | pass | repeat | fixpoint
    alias     := NAME "<" VARIANT ">"            e.g.  default<O2>
    pass      := NAME [ "(" params ")" ]         e.g.  inline(threshold=400)
    repeat    := "repeat" "<" INT ">" "(" pipeline ")"
    fixpoint  := "fixpoint" [ "<" INT ">" ] "(" pipeline ")"
    params    := NAME "=" value ("," NAME "=" value)*
    value     := INT | FLOAT | "true" | "false" | NAME

Every pass additionally accepts the reserved parameter ``iterations=N``
(shorthand for wrapping it in ``repeat<N>(...)``), so
``cse(iterations=2)`` runs CSE twice.

:func:`parse_pipeline` builds a :class:`repro.passes.PassManager`;
``PassManager.describe()`` emits the canonical text and the two round-trip
(``parse_pipeline(pm.describe())`` reproduces the same pipeline).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import PipelineParseError
from ..passes.pass_manager import (
    FixpointPass,
    PassManager,
    RepeatPass,
    coerce_verify_policy,
)
from . import registry

__all__ = ["PipelineParseError", "parse_pipeline", "resolve_pipeline"]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?\Z")


def _iter_significant(text: str, context: str) -> Iterator[Tuple[int, str, bool]]:
    """Yield ``(index, char, in_quote)``, tracking quoted string literals.

    Structural characters (commas, brackets) inside a ``'...'``/``"..."``
    literal are not significant; backslash escapes are honoured so quoted
    values round-trip through :func:`repr`.
    """
    quote: Optional[str] = None
    escaped = False
    for index, ch in enumerate(text):
        if quote is not None:
            yield index, ch, True
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
        yield index, ch, quote is not None
    if quote is not None:
        raise PipelineParseError(f"unterminated string literal in {context}: {text!r}")


def _split_top_level(text: str, context: str) -> List[str]:
    """Split ``text`` on commas that are not nested in ``()``, ``<>`` or quotes."""
    parts: List[str] = []
    depth_paren = depth_angle = 0
    current: List[str] = []
    for _, ch, in_quote in _iter_significant(text, context):
        if not in_quote:
            if ch == "(":
                depth_paren += 1
            elif ch == ")":
                depth_paren -= 1
                if depth_paren < 0:
                    raise PipelineParseError(f"unbalanced ')' in {context}: {text!r}")
            elif ch == "<":
                depth_angle += 1
            elif ch == ">":
                depth_angle -= 1
                if depth_angle < 0:
                    raise PipelineParseError(f"unbalanced '>' in {context}: {text!r}")
        if ch == "," and not in_quote and depth_paren == 0 and depth_angle == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth_paren != 0:
        raise PipelineParseError(f"unbalanced '(' in {context}: {text!r}")
    if depth_angle != 0:
        raise PipelineParseError(f"unbalanced '<' in {context}: {text!r}")
    parts.append("".join(current))
    return parts


def _parse_value(text: str, entry: str):
    """Parse one parameter value: int, float, bool or bare word."""
    text = text.strip()
    if not text:
        raise PipelineParseError(f"empty parameter value in pipeline entry {entry!r}")
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    if text[0] in "'\"":
        try:
            value = ast.literal_eval(text)
        except (SyntaxError, ValueError) as exc:
            raise PipelineParseError(
                f"cannot parse string literal {text!r} in pipeline entry {entry!r}: {exc}"
            ) from exc
        if isinstance(value, str):
            return value
        raise PipelineParseError(
            f"cannot parse parameter value {text!r} in pipeline entry {entry!r}"
        )
    if _NAME_RE.fullmatch(text):
        return text
    raise PipelineParseError(
        f"cannot parse parameter value {text!r} in pipeline entry {entry!r}"
    )


def _parse_params(args: str, entry: str) -> Dict[str, object]:
    params: Dict[str, object] = {}
    if not args.strip():
        return params
    for part in _split_top_level(args, f"parameters of {entry!r}"):
        if "=" not in part:
            raise PipelineParseError(
                f"expected key=value parameter in pipeline entry {entry!r}, got {part.strip()!r}"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        if not _NAME_RE.fullmatch(key):
            raise PipelineParseError(
                f"bad parameter name {key!r} in pipeline entry {entry!r}"
            )
        if key in params:
            raise PipelineParseError(
                f"duplicate parameter {key!r} in pipeline entry {entry!r}"
            )
        params[key] = _parse_value(value, entry)
    return params


def _decompose_entry(entry: str) -> Tuple[str, Optional[str], Optional[str]]:
    """Split one entry into (name, <variant> or None, (args) or None)."""
    text = entry.strip()
    match = _NAME_RE.match(text)
    if not match:
        raise PipelineParseError(f"cannot parse pipeline entry {entry!r}")
    name = match.group(0)
    rest = text[match.end() :].strip()
    variant: Optional[str] = None
    args: Optional[str] = None
    if rest.startswith("<"):
        close = _matching(rest, 0, "<", ">", entry)
        variant = rest[1:close]
        rest = rest[close + 1 :].strip()
    if rest.startswith("("):
        close = _matching(rest, 0, "(", ")", entry)
        args = rest[1:close]
        rest = rest[close + 1 :].strip()
    if rest:
        raise PipelineParseError(
            f"unexpected trailing text {rest!r} in pipeline entry {entry!r}"
        )
    return name, variant, args


def _matching(text: str, start: int, open_ch: str, close_ch: str, entry: str) -> int:
    depth = 0
    for index, ch, in_quote in _iter_significant(text, f"pipeline entry {entry!r}"):
        if index < start or in_quote:
            continue
        if ch == open_ch:
            depth += 1
        elif ch == close_ch:
            depth -= 1
            if depth == 0:
                return index
    raise PipelineParseError(
        f"unbalanced {open_ch!r} in pipeline entry {entry!r}"
    )


def _parse_count(variant: Optional[str], keyword: str, entry: str, default: Optional[int]) -> int:
    if variant is None:
        if default is None:
            raise PipelineParseError(
                f"{keyword} needs an iteration count, e.g. {keyword}<2>(...): {entry!r}"
            )
        return default
    text = variant.strip()
    if not _INT_RE.match(text) or int(text) < 1:
        raise PipelineParseError(
            f"{keyword} count must be a positive integer, got {variant!r} in {entry!r}"
        )
    return int(text)


def _parse_entry(entry: str) -> List:
    name, variant, args = _decompose_entry(entry)

    if name in ("repeat", "fixpoint"):
        if args is None:
            raise PipelineParseError(
                f"{name} needs a parenthesised sub-pipeline, e.g. {name}(cse,dce): {entry!r}"
            )
        # An empty sub-pipeline is legal (e.g. ``fixpoint(default<O0>)``
        # expands the alias to no passes and describes as ``fixpoint()``);
        # the wrapper is then a no-op but must round-trip through describe().
        sub = PassManager(
            _parse_entries(args) if args.strip() else [], verify="off", name=name
        )
        if name == "repeat":
            return [RepeatPass(sub, _parse_count(variant, "repeat", entry, default=None))]
        return [
            FixpointPass(
                sub,
                _parse_count(
                    variant, "fixpoint", entry, default=FixpointPass.DEFAULT_MAX_ITERATIONS
                ),
            )
        ]

    if registry.has_alias(name):
        if args is not None:
            raise PipelineParseError(
                f"pipeline alias {name!r} does not take parameters: {entry!r}"
            )
        return registry.expand_alias(name, variant)

    if variant is not None:
        raise PipelineParseError(
            f"pass {name!r} does not take a <variant>: {entry!r} "
            f"(known aliases: {', '.join(registry.list_pipeline_aliases())})"
        )
    params = _parse_params(args or "", entry)
    iterations = params.pop("iterations", None)
    pass_ = registry.create_pass(name, **params)
    if iterations is None:
        return [pass_]
    if isinstance(iterations, bool) or not isinstance(iterations, int) or iterations < 1:
        raise PipelineParseError(
            f"iterations must be a positive integer in pipeline entry {entry!r}"
        )
    wrapper = RepeatPass(pass_, iterations)
    wrapper.pipeline_repr = registry.format_pipeline_entry(
        name, dict(params, iterations=iterations)
    )
    return [wrapper]


def _parse_entries(text: str) -> List:
    passes: List = []
    for part in _split_top_level(text, "pipeline"):
        if not part.strip():
            raise PipelineParseError(f"empty pipeline entry in {text!r}")
        passes.extend(_parse_entry(part))
    return passes


def parse_pipeline(
    text: str,
    verify: str = "boundary",
    name: Optional[str] = None,
) -> PassManager:
    """Build a :class:`PassManager` from a textual pipeline description.

    ``parse_pipeline("default<O2>,licm,cse(iterations=2)")`` expands the
    standard O2 sequence and appends LICM plus two rounds of CSE.  ``verify``
    sets the manager's verification policy (``"each"``, ``"boundary"`` or
    ``"off"``).

    Raises :class:`PipelineParseError` on malformed input.
    """
    if not isinstance(text, str):
        raise PipelineParseError(
            f"pipeline description must be a string, got {type(text).__name__}"
        )
    if not text.strip():
        # The empty pipeline is valid: it is exactly O0 (verification only).
        return PassManager([], verify=verify, name=name or "empty")
    passes = _parse_entries(text)
    return PassManager(passes, verify=coerce_verify_policy(verify), name=name or text)


def resolve_pipeline(
    pipeline: Union[str, PassManager],
    verify: Optional[str] = None,
    default_policy: str = "boundary",
) -> PassManager:
    """Normalise a pipeline argument (text or prebuilt manager) + verify policy.

    Shared by :func:`repro.core.distill.compile_composition` and
    :meth:`repro.Session.compile_model`.  With ``verify=None`` a textual
    pipeline gets ``default_policy`` and a prebuilt :class:`PassManager`
    keeps its own policy; an explicit ``verify`` always wins — a prebuilt
    manager is then rewrapped rather than mutated.
    """
    if isinstance(pipeline, PassManager):
        if verify is None:
            return pipeline
        policy = coerce_verify_policy(verify)
        if policy == pipeline.verify:
            return pipeline
        return PassManager(pipeline.passes, verify=policy, name=pipeline.name)
    policy = coerce_verify_policy(default_policy if verify is None else verify)
    return parse_pipeline(pipeline, verify=policy)
