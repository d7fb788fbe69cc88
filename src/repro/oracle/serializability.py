"""A whole-trace conflict-serializability oracle.

Independent of every checker's graph machinery: :class:`TraceRecorder`
records each access as ``(transaction, address, kind, is_sync)`` in
execution order, and :func:`oracle_cyclic_sccs` applies Figure 5's
last-writer/last-readers rules offline over the *entire* execution,
adds program-order edges between each thread's consecutive
transactions, and returns the strongly connected components that hold
a cycle.  A precise atomicity violation exists iff that list is
non-empty.

The SCC routine is this module's own (Kosaraju's two passes), not
:mod:`repro.core.scc`: the oracle referees the code it would share.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.runtime.events import AccessKind
from repro.runtime.listeners import ExecutionListener


class TraceRecorder(ExecutionListener):
    """Records (tx, address, kind, is_sync) in execution order.

    Registered *after* an ICD in the pipeline so it can read ICD's
    transaction assignment for each access (the same assignment PCD
    analyzes), while remaining independent of ICD's graph machinery.
    Not to be confused with :class:`repro.trace.recorder.TraceRecorder`,
    which records a replayable event trace.
    """

    def __init__(self, icd) -> None:  # type: ignore[no-untyped-def]
        self.icd = icd
        self.trace = []

    def on_access(self, event):
        tx = self.icd.tx_manager.current_or_latest(event.thread_name)
        if tx is not None:
            self.trace.append((tx, event.address, event.kind, event.is_sync))


def oracle_cyclic_sccs(trace, sync_edges=True) -> List[Set[int]]:
    """Whole-trace Figure 5 + program order: the cyclic SCCs, as sets
    of transaction ids.

    ``sync_edges=False`` drops synchronization pseudo-accesses, so only
    data conflicts order transactions (the vc backend's default).
    """
    succ: Dict[int, Set[int]] = {}
    last_write = {}
    last_reads = {}
    chains = {}
    for tx, address, kind, is_sync in trace:
        if is_sync and not sync_edges:
            continue
        succ.setdefault(tx.tx_id, set())
        prev = chains.get(tx.thread_name)
        if prev is not None and prev is not tx:
            succ[prev.tx_id].add(tx.tx_id)
        chains[tx.thread_name] = tx

        writer = last_write.get(address)
        if writer is not None and writer.thread_name != tx.thread_name:
            succ[writer.tx_id].add(tx.tx_id)
        if kind is AccessKind.READ:
            last_reads.setdefault(address, {})[tx.thread_name] = tx
        else:
            for thread_name, reader in last_reads.get(address, {}).items():
                if thread_name != tx.thread_name:
                    succ[reader.tx_id].add(tx.tx_id)
            last_reads[address] = {}
            last_write[address] = tx
    return [scc for scc in _components(succ) if len(scc) > 1]


def _components(succ: Dict[int, Set[int]]) -> List[Set[int]]:
    """Kosaraju: finish order by iterative DFS, then collect each
    component by DFS over the reversed edges in reverse finish order."""
    finished: List[int] = []
    seen: Set[int] = set()
    for root in succ:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, successors = stack[-1]
            for nxt in successors:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                stack.pop()
                finished.append(node)
    pred: Dict[int, List[int]] = {node: [] for node in succ}
    for node, successors in succ.items():
        for nxt in successors:
            pred[nxt].append(node)
    components: List[Set[int]] = []
    assigned: Set[int] = set()
    for root in reversed(finished):
        if root in assigned:
            continue
        assigned.add(root)
        component, stack = {root}, [root]
        while stack:
            for prev in pred[stack.pop()]:
                if prev not in assigned:
                    assigned.add(prev)
                    component.add(prev)
                    stack.append(prev)
        components.append(component)
    return components
