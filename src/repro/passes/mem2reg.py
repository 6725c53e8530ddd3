"""Promote scalar ``alloca`` slots to SSA registers (mem2reg).

The model code generator emits loads/stores against scratch allocas rather
than building SSA form directly — exactly like Clang's -O0 output.  This pass
rebuilds SSA form for every alloca that

* allocates a *scalar* (single slot) type, and
* is used only by ``load`` and ``store`` instructions (never by a ``gep`` or
  passed to a call),

using the classic phi-placement-at-dominance-frontiers algorithm followed by
a rename walk over the dominator tree.  Promotion is what allows constant
propagation, CSE and LICM to see through the static parameter structures the
compiler creates and is responsible for a large share of the whole-model
speedups.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.cfg import predecessor_map
from ..ir.instructions import Alloca, Load, Phi, Store
from ..ir.module import BasicBlock, Function
from ..ir.values import UndefValue, Value
from .dominators import DominatorTree
from ..driver.registry import register_pass
from .pass_base import FunctionPass


def _promotable(alloca: Alloca) -> bool:
    if not alloca.allocated_type.is_scalar:
        return False
    for user in alloca.uses:
        if isinstance(user, Load):
            continue
        if isinstance(user, Store) and user.pointer is alloca and user.value is not alloca:
            continue
        return False
    return True


@register_pass("mem2reg")
class Mem2Reg(FunctionPass):
    """Rewrite promotable allocas into SSA values with phi nodes."""

    name = "mem2reg"
    #: Inserts phis and erases loads/stores/allocas; blocks and edges are
    #: untouched, so the dominator tree it consumed stays valid.
    preserves = "cfg"

    def run_on_function(self, function: Function, am=None) -> bool:
        if not function.blocks:
            return False
        allocas = [
            instr
            for block in function.blocks
            for instr in block.instructions
            if isinstance(instr, Alloca) and _promotable(instr)
        ]
        if not allocas:
            return False

        domtree = am.get(DominatorTree, function) if am is not None else DominatorTree(function)
        frontiers = domtree.dominance_frontiers()

        # 1. Place phi nodes at iterated dominance frontiers of defining blocks.
        phi_for: Dict[int, Dict[int, Phi]] = {id(a): {} for a in allocas}
        for alloca in allocas:
            defining_blocks = {
                id(user.parent): user.parent
                for user in alloca.uses
                if isinstance(user, Store) and user.parent is not None
            }
            worklist = list(defining_blocks.values())
            placed: set[int] = set()
            while worklist:
                block = worklist.pop()
                for frontier_block in frontiers.get(block, ()):  # type: BasicBlock
                    if id(frontier_block) in placed:
                        continue
                    placed.add(id(frontier_block))
                    phi = Phi(alloca.allocated_type, function.next_name("m2r"))
                    frontier_block.insert(0, phi)
                    phi.parent = frontier_block
                    phi_for[id(alloca)][id(frontier_block)] = phi
                    if id(frontier_block) not in defining_blocks:
                        defining_blocks[id(frontier_block)] = frontier_block
                        worklist.append(frontier_block)

        # 2. Rename: walk the dominator tree keeping the reaching definition
        #    of every alloca on a stack.
        alloca_ids = {id(a) for a in allocas}
        stacks: Dict[int, List[Value]] = {id(a): [] for a in allocas}

        def current(alloca: Alloca) -> Value:
            stack = stacks[id(alloca)]
            if stack:
                return stack[-1]
            return UndefValue(alloca.allocated_type)

        def rename(block: BasicBlock) -> None:
            pushed: List[int] = []
            for instr in list(block.instructions):
                if isinstance(instr, Phi):
                    owner = next(
                        (a for a in allocas if phi_for[id(a)].get(id(block)) is instr),
                        None,
                    )
                    if owner is not None:
                        stacks[id(owner)].append(instr)
                        pushed.append(id(owner))
                elif isinstance(instr, Load) and id(instr.pointer) in alloca_ids:
                    instr.replace_all_uses_with(current(instr.pointer))
                    instr.erase()
                elif isinstance(instr, Store) and id(instr.pointer) in alloca_ids:
                    stacks[id(instr.pointer)].append(instr.value)
                    pushed.append(id(instr.pointer))
                    instr.erase()

            for succ in block.successors():
                for alloca in allocas:
                    phi = phi_for[id(alloca)].get(id(succ))
                    if phi is not None:
                        phi.add_incoming(current(alloca), block)

            for child in domtree.children.get(block, []):
                rename(child)

            for key in pushed:
                stacks[key].pop()

        rename(function.entry_block)

        # 3. Remove the now-dead allocas.
        for alloca in allocas:
            if not alloca.uses:
                alloca.erase()

        # 4. Prune phis that ended up with missing predecessors (unreachable
        #    incoming edges) or that merge a single distinct value.
        self._cleanup_phis(function)
        return True

    def _cleanup_phis(self, function: Function) -> None:
        changed = True
        while changed:
            changed = False
            # Phis change inside a sweep, edges do not: one map per sweep.
            pred_map = predecessor_map(function)
            for block in function.blocks:
                preds = list(dict.fromkeys(pred_map[block]))
                pred_ids = {id(p) for p in preds}
                for phi in list(block.phis()):
                    # Drop incoming edges from blocks that are no longer predecessors.
                    for pred in list(phi.incoming_blocks):
                        if id(pred) not in pred_ids:
                            phi.remove_incoming_block(pred)
                            changed = True
                    distinct = {
                        id(v) for v in phi.operands if not isinstance(v, UndefValue)
                    }
                    if len(distinct) == 1 and len(phi.operands) == len(preds):
                        replacement = next(
                            v for v in phi.operands if not isinstance(v, UndefValue)
                        )
                        if replacement is not phi:
                            phi.replace_all_uses_with(replacement)
                            phi.erase()
                            changed = True
