"""Control-flow graph utilities shared by passes and analyses."""

from __future__ import annotations

from typing import Dict, List

from .module import BasicBlock, Function


def successors(block: BasicBlock) -> List[BasicBlock]:
    return block.successors()


def predecessor_map(function: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Map each block of ``function`` to the list of its predecessors."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
    for block in function.blocks:
        for succ in block.successors():
            if succ in preds:
                preds[succ].append(block)
    return preds


def reverse_post_order(function: Function) -> List[BasicBlock]:
    """Blocks of ``function`` in reverse post-order from the entry block.

    Unreachable blocks are appended at the end so every block is visited at
    least once (passes rely on covering the whole function).
    """
    if not function.blocks:
        return []
    visited: set[int] = set()
    order: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        visited.add(id(block))
        while stack:
            current, succ_iter = stack[-1]
            advanced = False
            for succ in succ_iter:
                if id(succ) not in visited:
                    visited.add(id(succ))
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(function.entry_block)
    rpo = list(reversed(order))
    for block in function.blocks:
        if id(block) not in visited:
            rpo.append(block)
    return rpo


def reachable_blocks(function: Function) -> List[BasicBlock]:
    """Blocks reachable from the entry block (in discovery order)."""
    if not function.blocks:
        return []
    seen: set[int] = set()
    result: List[BasicBlock] = []
    worklist = [function.entry_block]
    while worklist:
        block = worklist.pop()
        if id(block) in seen:
            continue
        seen.add(id(block))
        result.append(block)
        worklist.extend(block.successors())
    return result


def back_edges(function: Function, domtree) -> List[tuple]:
    """All ``(tail, head)`` edges where ``head`` dominates ``tail``.

    These are exactly the latch edges of natural loops; any other cycle-forming
    edge marks the CFG as irreducible (see :func:`is_reducible`).
    """
    edges = []
    for block in function.blocks:
        for succ in block.successors():
            if succ in domtree.idom and domtree.dominates(succ, block):
                edges.append((block, succ))
    return edges


def is_reducible(function: Function, domtree=None) -> bool:
    """True when every cycle of the CFG is a natural loop.

    Implemented as the classic test: remove every back edge (``tail -> head``
    with ``head`` dominating ``tail``) and check that the remaining graph is
    acyclic.  The structured-control-flow emitter uses this to decide whether
    a function can be expressed with ``while``/``if``/``break``/``continue``;
    it refuses an irreducible one with a ``CompilationError``.
    """
    if not function.blocks:
        return True
    if domtree is None:
        from ..passes.dominators import DominatorTree

        domtree = DominatorTree(function)
    removed = {(id(tail), id(head)) for tail, head in back_edges(function, domtree)}

    # Iterative DFS cycle detection over the forward edges.  One root
    # suffices: every relevant block is reachable from the entry, and
    # unreachable blocks cannot execute.
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    for root in (function.entry_block,):
        stack = [(root, iter(root.successors()))]
        color[id(root)] = GREY
        while stack:
            block, succ_iter = stack[-1]
            advanced = False
            for succ in succ_iter:
                if (id(block), id(succ)) in removed:
                    continue
                state = color.get(id(succ), WHITE)
                if state == GREY:
                    return False  # cycle made only of forward edges
                if state == WHITE:
                    color[id(succ)] = GREY
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                color[id(block)] = BLACK
                stack.pop()
    return True


def to_networkx(function: Function):
    """Export the CFG of ``function`` as a ``networkx.DiGraph``.

    Nodes are block names; edges carry an ``index`` attribute giving the
    successor slot (0 = taken / unconditional, 1 = fall-through).
    """
    import networkx as nx

    graph = nx.DiGraph(name=function.name)
    for block in function.blocks:
        graph.add_node(block.name, size=len(block.instructions))
    for block in function.blocks:
        for i, succ in enumerate(block.successors()):
            graph.add_edge(block.name, succ.name, index=i)
    return graph
