"""Strongly connected component detection over the IDG.

ICD defers cycle detection to transaction end (Section 3.2.3) and then
computes the maximal SCC containing the transaction that just ended.
The computation explores a transaction only if it has finished, which
is sound (if a transaction is involved in cycles, an SCC computation
launched when its last-finishing member ends will detect them) and
avoids racing with threads still updating their current transaction.

The implementation is an iterative Tarjan restricted to finished,
uncollected transactions, returning the SCC that contains the root.
Successors are consumed straight off ``out_edges`` and ``intra_next``
with the filter applied inline, so no per-node successor list is
allocated.  The traversal state is keyed by ``tx_id`` and indexed by
discovery order: an ``int`` hashes in C, where ``Transaction`` would
call its Python-level ``__hash__`` on every probe.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.transactions import Transaction


def scc_containing(root: Transaction) -> List[Transaction]:
    """Return the members of ``root``'s SCC (size 1 if acyclic).

    Only finished transactions are explored; unfinished successors are
    skipped exactly as the paper prescribes.
    """
    return scc_containing_counted(root)[0]


def scc_containing_counted(root: Transaction) -> Tuple[List[Transaction], int]:
    """Like :func:`scc_containing`, also returning the visit count.

    The count is the number of transactions Tarjan actually indexed —
    the traversal cost ICD reports as ``scc_visits``.
    """
    if not root.finished:
        return [root], 1

    # discovery index by tx_id; node, lowlink and on-stack flag by index
    index_of: Dict[int, int] = {root.tx_id: 0}
    nodes: List[Transaction] = [root]
    lowlink: List[int] = [0]
    on_stack: List[bool] = [True]
    stack: List[int] = [0]
    result: Optional[List[Transaction]] = None

    # iterative Tarjan.  Work items are (node index, next edge index):
    # edge indices < len(out_edges) address cross-thread edges, index
    # == len(out_edges) addresses the intra-thread successor, so
    # successors stream off the transaction without a filtered copy.
    # The frame below a finished node is always its parent's.
    work: List[Tuple[int, int]] = [(0, 0)]
    while work:
        node_index, i = work.pop()
        node = nodes[node_index]
        low = lowlink[node_index]
        out = node.out_edges
        n_out = len(out)
        child = None
        while i <= n_out:
            if i < n_out:
                succ = out[i].dst
            else:
                succ = node.intra_next
                if succ is None:
                    break
            i += 1
            if not succ.finished or succ.collected:
                continue
            succ_index = index_of.get(succ.tx_id)
            if succ_index is None:
                child = succ
                break
            if succ_index < low and on_stack[succ_index]:
                low = succ_index
        lowlink[node_index] = low
        if child is not None:
            child_index = len(nodes)
            index_of[child.tx_id] = child_index
            nodes.append(child)
            lowlink.append(child_index)
            on_stack.append(True)
            stack.append(child_index)
            work.append((node_index, i))
            work.append((child_index, 0))
            continue
        # node finished: pop its SCC if it is a root
        if low == node_index:
            component: List[Transaction] = []
            while True:
                member = stack.pop()
                on_stack[member] = False
                component.append(nodes[member])
                if member == node_index:
                    break
            if node_index == 0:
                result = component
        elif work:
            parent_index = work[-1][0]
            if low < lowlink[parent_index]:
                lowlink[parent_index] = low

    assert result is not None, "root must belong to some SCC"
    return result, len(nodes)


def is_cyclic_component(component: List[Transaction]) -> bool:
    """True when the component represents at least one cycle.

    Self-loops cannot occur in the IDG (ICD never adds an edge from a
    transaction to itself), so a component is cyclic iff it has more
    than one member.
    """
    return len(component) > 1
