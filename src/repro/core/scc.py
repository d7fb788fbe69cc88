"""Strongly connected component detection over the IDG.

ICD defers cycle detection to transaction end (Section 3.2.3) and then
computes the maximal SCC containing the transaction that just ended.
The computation explores a transaction only if it has finished, which
is sound (if a transaction is involved in cycles, an SCC computation
launched when its last-finishing member ends will detect them) and
avoids racing with threads still updating their current transaction.

The pass computes the root's SCC from its definition, in two sweeps
over finished, uncollected transactions.  A forward sweep over
``out_edges`` and ``intra_next`` marks what the root reaches; a
backward sweep over ``in_edges`` and ``intra_prev``, restricted to
those marks, keeps what reaches the root.  The backward sweep relies on
each uncollected transaction's ``in_edges`` and ``intra_prev``
mirroring the out-edges and ``intra_next`` links that point to it,
which ICD's edge insertion and the collector's unlinking maintain
(``tests/core/test_gc_properties.py`` checks it).  The marks are keyed
by ``tx_id``: an ``int`` hashes in C, where ``Transaction`` would call
its Python-level ``__hash__`` on every probe.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.transactions import Transaction


def scc_containing(root: Transaction) -> List[Transaction]:
    """Return the members of ``root``'s SCC (size 1 if acyclic).

    Only finished transactions are explored; unfinished successors are
    skipped exactly as the paper prescribes.
    """
    return scc_containing_counted(root)[0]


def scc_containing_counted(root: Transaction) -> Tuple[List[Transaction], int]:
    """Like :func:`scc_containing`, also returning the visit count.

    The count is the number of transactions the forward sweep marks
    (the root and what it reaches) — the traversal cost ICD reports as
    ``scc_visits``.
    """
    if not root.finished:
        return [root], 1
    # most passes end here: a root with no finished, uncollected
    # successor is its own SCC
    for edge in root.out_edges:
        succ = edge.dst
        if succ.finished and not succ.collected:
            break
    else:
        succ = root.intra_next
        if succ is None or not succ.finished or succ.collected:
            return [root], 1
    # forward sweep: the finished, uncollected transactions the root
    # reaches, by tx_id
    reached: Dict[int, Transaction] = {root.tx_id: root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for edge in node.out_edges:
            succ = edge.dst
            if succ.finished and not succ.collected and succ.tx_id not in reached:
                reached[succ.tx_id] = succ
                frontier.append(succ)
        succ = node.intra_next
        if (
            succ is not None and succ.finished and not succ.collected
            and succ.tx_id not in reached
        ):
            reached[succ.tx_id] = succ
            frontier.append(succ)
    visits = len(reached)
    # backward sweep over the marks: each one that reaches the root is
    # moved from ``reached`` into the component
    del reached[root.tx_id]
    unmark = reached.pop
    component = [root]
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for edge in node.in_edges:
            pred = unmark(edge.src.tx_id, None)
            if pred is not None:
                component.append(pred)
                frontier.append(pred)
        pred = node.intra_prev
        if pred is not None and unmark(pred.tx_id, None) is not None:
            component.append(pred)
            frontier.append(pred)
    return component, visits


def is_cyclic_component(component: List[Transaction]) -> bool:
    """True when the component represents at least one cycle.

    Self-loops cannot occur in the IDG (ICD never adds an edge from a
    transaction to itself), so a component is cyclic iff it has more
    than one member.
    """
    return len(component) > 1
