"""Function inlining.

Distill relies on aggressive inlining for two purposes (paper sections 3.5
and 4.4): whole-model optimisation across the scheduler/node boundary, and
model-level clone detection (two models are compared only after every node
function has been inlined into the trial driver).  The model code generator
marks node functions ``alwaysinline``; additionally small functions and
single-call-site functions are inlined under a size threshold.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.instructions import Branch, Call, Phi, Return
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import Constant, UndefValue, Value
from .cloning import _patch_forward_references, clone_instruction
from ..driver.registry import register_pass
from .pass_base import ModulePass


def count_call_sites(module: Module) -> Dict[str, int]:
    """Call-site counts per callee name across the module's defined functions.

    Shared by the inliner's one-call-site heuristic and the analysis
    manager's ``callgraph`` analysis — the two must agree, or inlining
    decisions would diverge between cached and cold compiles.
    """
    counts: Dict[str, int] = {}
    for function in module.defined_functions():
        for instr in function.instructions():
            if isinstance(instr, Call):
                counts[instr.callee.name] = counts.get(instr.callee.name, 0) + 1
    return counts


@register_pass("inline")
class Inliner(ModulePass):
    """Inline calls to defined functions into their callers.

    Parameters
    ----------
    threshold:
        Maximum callee size (in instructions) inlined without an
        ``alwaysinline`` attribute.
    aggressive:
        When true, every call to a defined (non-recursive) function is
        inlined regardless of size — used before model-level clone detection.
    """

    name = "inline"
    #: Splices callee bodies into callers: caller CFGs change wholesale, and
    #: the call graph with them — nothing survives.
    preserves = "none"

    def __init__(self, threshold: int = 80, aggressive: bool = False):
        self.threshold = threshold
        self.aggressive = aggressive

    def run(self, module: Module, am=None) -> bool:
        changed = False
        call_counts = (
            dict(am.get("callgraph", module)) if am is not None else self._count_call_sites(module)
        )
        # Iterate because inlining can expose further inlinable call sites
        # (node functions calling library functions, etc.).
        for _ in range(8):
            local = False
            for function in list(module.defined_functions()):
                local |= self._inline_calls_in(function, call_counts)
            if not local:
                break
            changed = True
            call_counts = self._count_call_sites(module)
        return changed

    # -- heuristics -------------------------------------------------------------
    _count_call_sites = staticmethod(count_call_sites)

    def _should_inline(self, caller: Function, callee: Function, call_counts: Dict[str, int]) -> bool:
        if callee.is_declaration:
            return False
        if callee is caller:
            return False
        if callee.attributes.get("noinline"):
            return False
        if self.aggressive:
            return not self._is_recursive(callee)
        if callee.attributes.get("alwaysinline"):
            return not self._is_recursive(callee)
        size = callee.instruction_count()
        if size <= self.threshold:
            return not self._is_recursive(callee)
        if call_counts.get(callee.name, 0) == 1 and size <= self.threshold * 4:
            return not self._is_recursive(callee)
        return False

    @staticmethod
    def _is_recursive(function: Function) -> bool:
        return any(
            isinstance(instr, Call) and instr.callee is function
            for instr in function.instructions()
        )

    # -- mechanics ----------------------------------------------------------------
    def _inline_calls_in(self, caller: Function, call_counts: Dict[str, int]) -> bool:
        changed = False
        for block in list(caller.blocks):
            for instr in list(block.instructions):
                if not isinstance(instr, Call):
                    continue
                if instr.parent is None:
                    continue
                if self._should_inline(caller, instr.callee, call_counts):
                    self.inline_call(instr)
                    changed = True
        return changed

    @staticmethod
    def inline_call(call: Call) -> None:
        """Inline one call site in place."""
        caller_block = call.parent
        if caller_block is None:
            raise ValueError("call instruction is not attached to a block")
        caller = caller_block.parent
        callee = call.callee
        if callee.is_declaration:
            raise ValueError(f"cannot inline declaration @{callee.name}")

        # 1. Split the caller block at the call site.
        call_index = caller_block.instructions.index(call)
        continuation = BasicBlock(caller.next_name("inl.cont"), caller)
        trailing = caller_block.instructions[call_index + 1 :]
        caller_block.instructions = caller_block.instructions[: call_index + 1]
        for instr in trailing:
            continuation.append(instr)
        insert_at = caller.blocks.index(caller_block) + 1
        caller.blocks.insert(insert_at, continuation)

        # Successor phis must now refer to the continuation block.
        for succ in continuation.successors():
            for phi in succ.phis():
                for i, pred in enumerate(phi.incoming_blocks):
                    if pred is caller_block:
                        phi.incoming_blocks[i] = continuation

        # 2. Clone callee blocks into the caller.
        vmap: Dict[int, Value] = {}
        for formal, actual in zip(callee.args, call.args):
            vmap[id(formal)] = actual
        cloned_blocks = []
        for i, block in enumerate(callee.blocks):
            new_block = BasicBlock(caller.next_name(f"inl.{callee.name}"), caller)
            vmap[id(block)] = new_block
            cloned_blocks.append(new_block)
        for src_block, new_block in zip(callee.blocks, cloned_blocks):
            for instr in src_block.instructions:
                new_block.append(clone_instruction(instr, vmap))
        caller.blocks[insert_at:insert_at] = cloned_blocks
        caller.notify_mutation()
        # Only the clones can still reference callee values: the rest of the
        # caller never saw them, so rescanning it would be quadratic.
        _patch_forward_references(cloned_blocks, vmap)

        # 3. Rewrite returns into branches to the continuation; collect values.
        return_values: list[tuple[Value, BasicBlock]] = []
        for new_block in cloned_blocks:
            term = new_block.terminator
            if isinstance(term, Return):
                if term.value is not None:
                    return_values.append((term.value, new_block))
                term.erase()
                new_block.append(Branch(continuation))

        # 4. Replace the call's value with the merged return value.
        if not call.type.is_void:
            if len(return_values) == 1:
                replacement: Value = return_values[0][0]
            elif return_values:
                phi = Phi(call.type, caller.next_name("inl.ret"))
                continuation.insert(0, phi)
                phi.parent = continuation
                for value, block in return_values:
                    phi.add_incoming(value, block)
                replacement = phi
            else:
                replacement = UndefValue(call.type)
            call.replace_all_uses_with(replacement)

        # 5. Branch from the caller block into the inlined entry and remove the call.
        entry_clone = vmap[id(callee.entry_block)]
        call.erase()
        caller_block.append(Branch(entry_clone))


def inline_all_calls(module: Module, roots: Optional[list[str]] = None) -> None:
    """Aggressively inline every call reachable from ``roots`` (or everywhere).

    Used by whole-model clone detection (paper section 4.4): after this runs,
    the trial driver contains the entire model's computation in one function.
    """
    inliner = Inliner(aggressive=True)
    if roots is None:
        inliner.run(module)
        return
    for _ in range(8):
        changed = False
        for name in roots:
            function = module.get_function(name)
            changed |= inliner._inline_calls_in(function, inliner._count_call_sites(module))
        if not changed:
            break
