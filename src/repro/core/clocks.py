"""Per-transaction vector clocks: reachability for the online checkers.

Every live transaction carries a clock mapping each thread to the
newest transaction of that thread with a path into it (of at least one
edge, over cross edges and program order).  Tx ids are globally
monotone and a thread's older transactions reach its newer ones, so
``clock(b).get(a.thread_name, 0) >= a.tx_id`` holds exactly when
``a ⇝ b``: one dict probe answers a reachability question.  The
vector-clock checker (``repro.vc``) asks it before adding an edge
``src -> dst`` — ``dst ⇝ src`` means the edge closes a cycle — and
Velodrome after, to certify and bound its per-edge cycle check.

The clocks stay exact by *eager* propagation: a clock's growth is
pushed along out-edges and the intra-thread successor to a fixpoint
(joins are monotone and bounded by the per-thread transaction
counters, so the worklist terminates).  A transaction inherits its
predecessor's clock, plus the predecessor, at start, so program-order
edges need no :meth:`TransactionClocks.add_edge`.  Swept transactions
lose their clocks and propagation stops at them: the collector only
sweeps transactions that can join no future cycle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.transactions import Transaction

#: thread name -> newest tx id of that thread with a path into the
#: clock's transaction
Clock = Dict[str, int]


def _join(src: Transaction, src_clock: Clock, dst_clock: Clock) -> bool:
    """``dst_clock |= src_clock ∪ {src.thread: src}``; returns whether
    the destination clock grew."""
    grew = False
    for thread, ordinal in src_clock.items():
        if dst_clock.get(thread, 0) < ordinal:
            dst_clock[thread] = ordinal
            grew = True
    if dst_clock.get(src.thread_name, 0) < src.tx_id:
        dst_clock[src.thread_name] = src.tx_id
        grew = True
    return grew


class TransactionClocks:
    """The clocks of the live transactions, keyed by tx id."""

    __slots__ = ("_clocks",)

    def __init__(self) -> None:
        self._clocks: Dict[int, Clock] = {}

    def start(self, tx: Transaction) -> None:
        """Give a starting transaction its predecessor's knowledge."""
        prev = tx.intra_prev
        if prev is not None:
            prev_clock = self._clocks.get(prev.tx_id)
            if prev_clock is not None:
                clock = dict(prev_clock)
                clock[tx.thread_name] = prev.tx_id
                self._clocks[tx.tx_id] = clock
                return
        self._clocks[tx.tx_id] = {}

    def clock(self, tx: Transaction) -> Optional[Clock]:
        """``tx``'s clock, or ``None`` once the collector swept it."""
        return self._clocks.get(tx.tx_id)

    def add_edge(self, src: Transaction, dst: Transaction) -> int:
        """Account for the edge ``src -> dst`` between live transactions,
        already appended to ``src.out_edges``: join ``src``'s clock and
        ``src`` itself into ``dst``'s, then propagate any growth.
        Returns how many clocks grew (0 when ``dst`` saw it all)."""
        clocks = self._clocks
        dst_clock = clocks[dst.tx_id]
        if not _join(src, clocks[src.tx_id], dst_clock):
            return 0
        grown = 1
        worklist: List[Tuple[Transaction, Clock]] = [(dst, dst_clock)]
        while worklist:
            node, node_clock = worklist.pop()
            succs: List[Transaction] = [e.dst for e in node.out_edges]
            if node.intra_next is not None:
                succs.append(node.intra_next)
            for succ in succs:
                succ_clock = clocks.get(succ.tx_id)
                if succ_clock is not None and _join(node, node_clock, succ_clock):
                    grown += 1
                    worklist.append((succ, succ_clock))
        return grown

    def forget(self, swept_ids: Iterable[int]) -> None:
        """Drop the clocks of the transactions the collector swept."""
        pop = self._clocks.pop
        for tx_id in swept_ids:
            pop(tx_id, None)
