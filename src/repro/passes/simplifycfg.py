"""CFG simplification pass.

Performs the handful of clean-ups that keep the IR produced by the model code
generator (and by other passes) small and analysable:

* removal of blocks that became unreachable,
* folding of conditional branches whose condition is a constant,
* folding of conditional branches with identical targets,
* merging of a block into its unique predecessor when that predecessor has a
  single successor.
"""

from __future__ import annotations

from ..ir.cfg import predecessor_map, reachable_blocks
from ..ir.instructions import Branch, CondBranch, Phi
from ..ir.module import Function
from ..ir.values import Constant
from ..driver.registry import register_pass
from .pass_base import FunctionPass


@register_pass("simplifycfg")
class SimplifyCFG(FunctionPass):
    """Remove unreachable blocks and fold/merge trivial control flow."""

    name = "simplifycfg"
    #: Deletes/merges blocks and rewrites edges: every cached analysis of a
    #: changed function is invalid afterwards.
    preserves = "none"

    def run_on_function(self, function: Function, am=None) -> bool:
        changed = False
        # Iterate to a local fixed point: each clean-up can expose the others.
        while True:
            local = False
            local |= self._fold_constant_branches(function)
            local |= self._fold_same_target_branches(function)
            local |= self._remove_unreachable(function)
            local |= self._merge_linear_chains(function)
            if not local:
                break
            changed = True
        return changed

    # -- individual clean-ups -----------------------------------------------
    def _fold_constant_branches(self, function: Function) -> bool:
        changed = False
        for block in function.blocks:
            term = block.terminator
            if not isinstance(term, CondBranch):
                continue
            cond = term.condition
            if not isinstance(cond, Constant):
                continue
            taken = term.true_block if cond.value else term.false_block
            dropped = term.false_block if cond.value else term.true_block
            term.erase()
            new_term = Branch(taken)
            block.append(new_term)
            if dropped is not taken:
                for phi in dropped.phis():
                    phi.remove_incoming_block(block)
            changed = True
        return changed

    def _fold_same_target_branches(self, function: Function) -> bool:
        changed = False
        for block in function.blocks:
            term = block.terminator
            if isinstance(term, CondBranch) and term.true_block is term.false_block:
                target = term.true_block
                term.erase()
                block.append(Branch(target))
                changed = True
        return changed

    def _remove_unreachable(self, function: Function) -> bool:
        if not function.blocks:
            return False
        reachable = {id(b) for b in reachable_blocks(function)}
        dead = [b for b in function.blocks if id(b) not in reachable]
        if not dead:
            return False
        dead_ids = {id(b) for b in dead}
        for block in function.blocks:
            if id(block) in dead_ids:
                continue
            for phi in block.phis():
                for pred in list(phi.incoming_blocks):
                    if id(pred) in dead_ids:
                        phi.remove_incoming_block(pred)
        for block in dead:
            for instr in list(block.instructions):
                instr.drop_operands()
            block.instructions = []
        function.blocks = [b for b in function.blocks if id(b) not in dead_ids]
        # Raw list surgery bypasses the per-instruction mutation hooks.
        function.notify_mutation()
        return True

    def _merge_linear_chains(self, function: Function) -> bool:
        """Merge every block into its unique predecessor when that
        predecessor ends in an unconditional branch to it.

        One sweep in block order: each block absorbs its successor chain
        before the sweep moves on, which is the order a restart-after-every-
        merge scan would pick (a merge never makes an earlier block
        mergeable).  Predecessor lists come from one ``predecessor_map`` and
        are kept current across merges, so no probe rescans the function.
        """
        if not function.blocks:
            return False
        preds = {b: list(dict.fromkeys(p)) for b, p in predecessor_map(function).items()}
        entry = function.entry_block
        removed = set()
        for block in list(function.blocks):
            if block in removed:
                continue
            while True:
                term = block.terminator
                if not isinstance(term, Branch):
                    break
                succ = term.target
                if succ is block or succ is entry:
                    break
                succ_preds = preds.get(succ)
                if succ_preds is None or len(succ_preds) != 1 or succ_preds[0] is not block:
                    break
                # Rewrite phis in the successor: with a single predecessor the
                # phi is just its single incoming value.
                for phi in succ.phis():
                    incoming = phi.incoming_for_block(block)
                    if incoming is None:
                        break
                    phi.replace_all_uses_with(incoming)
                    phi.erase()
                else:
                    self._absorb(block, succ, preds)
                    removed.add(succ)
                    continue
                break
        if not removed:
            return False
        function.blocks = [b for b in function.blocks if b not in removed]
        function.notify_mutation()
        return True

    @staticmethod
    def _absorb(block, succ, preds) -> None:
        """Move ``succ``'s instructions into ``block`` (replacing its branch)."""
        term = block.instructions.pop()
        term.parent = None
        term.drop_operands()
        moved = succ.instructions
        succ.instructions = []
        for instr in moved:
            instr.parent = block
        block.instructions.extend(moved)
        # Successors of the merged block now flow from `block`; fix their
        # phis and predecessor lists to refer to `block` instead of `succ`.
        for nxt in dict.fromkeys(block.successors()):
            nxt_preds = preds[nxt]
            nxt_preds[nxt_preds.index(succ)] = block
            for phi in nxt.phis():
                for i, pred in enumerate(phi.incoming_blocks):
                    if pred is succ:
                        phi.incoming_blocks[i] = block
