"""Precise cycle detection (PCD) — Section 3.3.

PCD is a sound and precise analysis that identifies dependence cycles
among a set of transactions provided as input: the transactions of one
imprecise SCC detected by ICD, their read/write logs, and the IDG
edges anchored in those logs.  PCD "replays" the corresponding subset
of the execution, tracking the last transaction to write each field
and each thread's last transaction to read it (Figure 5), adding
precise cross-thread edges to a PDG and checking for cycles after
every new edge.  A detected cycle is a precise atomicity violation;
blame assignment identifies the transaction that completed it.

**Replay order.**  ICD provides cross-thread ordering through the edge
marks embedded in the logs: the source mark of every IDG edge must be
replayed before its sink mark.  PCD performs a topological merge of
the component's logs under (a) per-thread program order and (b) those
mark constraints.  Octet's happens-before guarantees make any
linearization of that partial order agree on the relative order of
conflicting accesses; our merge breaks ties with the executor's global
sequence number, which is one such linearization (and lets a property
test verify the agreement claim against the true execution order).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.blame import blamed_nodes
from repro.core.pdg import PDG, PdgEdge
from repro.core.reports import ViolationRecord
from repro.core.rwlog import AccessEntry, EdgeMark
from repro.core.transactions import Transaction
from repro.errors import OutOfMemoryBudget
from repro.obs.registry import publish_stats, recorder as obs_recorder
from repro.runtime.events import AccessKind


@dataclass
class PCDStats:
    """Work counters for the precise analysis."""

    components_processed: int = 0
    transactions_processed: int = 0
    entries_replayed: int = 0
    accesses_replayed: int = 0
    pdg_edges: int = 0
    cycle_checks: int = 0
    cycle_check_visits: int = 0
    #: nodes visited by the PDG engines' reorder/contraction searches
    engine_search_visits: int = 0
    cycles_found: int = 0
    order_fallbacks: int = 0


class PCD:
    """The precise analysis.

    Args:
        memory_budget: optional cap on the number of log entries a
            single component may hold (the paper's PCD runs out of
            memory on long-running transactions — raytracer and
            sunflow9 — which this cap reproduces).
    """

    def __init__(self, memory_budget: Optional[int] = None) -> None:
        self.memory_budget = memory_budget
        self.stats = PCDStats()
        self._obs = obs_recorder()
        self._reported_cycles: Set[frozenset] = set()

    # ------------------------------------------------------------------
    def process(self, component: Sequence[Transaction]) -> List[ViolationRecord]:
        """Replay one ICD component; returns precise violations found."""
        obs = self._obs
        if obs.enabled:
            with obs.span(
                "pcd.process", category="pcd", transactions=len(component)
            ):
                return self._process(component)
        return self._process(component)

    def publish_metrics(self) -> None:
        """Publish the accumulated replay counters onto the registry
        (called once per run by :class:`~repro.core.doublechecker.DoubleChecker`)."""
        publish_stats(self._obs, "pcd", self.stats)

    def _process(self, component: Sequence[Transaction]) -> List[ViolationRecord]:
        self.stats.components_processed += 1
        members = [tx for tx in component if tx.log is not None]
        self.stats.transactions_processed += len(members)
        if len(members) < 2:
            return []

        total_entries = sum(len(tx.log) for tx in members)
        if self.memory_budget is not None and total_entries > self.memory_budget:
            raise OutOfMemoryBudget("PCD", total_entries, self.memory_budget)

        merged = self._merge_logs(members)
        return self._replay(merged)

    # ------------------------------------------------------------------
    # topological merge
    # ------------------------------------------------------------------
    def _merge_logs(
        self, members: Sequence[Transaction]
    ) -> List[Tuple[Transaction, AccessEntry]]:
        member_ids = {tx.tx_id for tx in members}
        # edge orders whose both endpoints are in the component: these
        # marks constrain the merge; marks of other edges are inert
        constrained: Set[int] = set()
        for tx in members:
            for edge in tx.out_edges:
                if edge.dst.tx_id in member_ids:
                    constrained.add(edge.order)

        # per-thread streams: a thread's transactions replay in creation
        # order, and each log is already ordered
        by_thread: Dict[str, List[Transaction]] = {}
        for tx in sorted(members, key=lambda t: t.tx_id):
            by_thread.setdefault(tx.thread_name, []).append(tx)
        streams: List[List[Tuple[Transaction, object]]] = []
        for txs in by_thread.values():
            stream: List[Tuple[Transaction, object]] = []
            for tx in txs:
                stream.extend((tx, entry) for entry in tx.log.entries)
            streams.append(stream)

        emitted_sources: Set[int] = set()
        positions = [0] * len(streams)
        merged: List[Tuple[Transaction, AccessEntry]] = []
        total_accesses = sum(
            1
            for s in streams
            for item in s
            if not isinstance(item[1], EdgeMark)
        )

        # K-way merge on a heap of (seq, stream index): every stream is
        # in exactly one place — the heap when its head entry is an
        # access ready to emit, ``parked[order]`` when its head is a
        # sink mark still waiting for that edge's source mark, nowhere
        # once exhausted.  Marks never enter the heap: a mark's seq is
        # the *edge creation* time, which can sit far from the accesses
        # around it in the log — a source mark placed after its
        # transaction ended (or, for edges ICD attributes to a thread's
        # *next* transaction, before the source log's first access)
        # would otherwise hold its whole stream at a bogus heap
        # priority and let genuinely later accesses overtake parked
        # earlier ones, deriving dependence edges against the execution
        # order.  Accesses preceding a source mark in its own log
        # always have seq below the creation seq, and accesses
        # following the sink mark always have seq above it, so emitting
        # source marks the moment they reach a stream head preserves
        # every mark constraint while keeping accesses in true seq
        # order.
        heap: List[Tuple[int, int]] = []
        parked: Dict[int, List[int]] = {}
        heappush = heapq.heappush
        heappop = heapq.heappop
        append_merged = merged.append

        def settle(index: int) -> None:
            # consume marks at the stream head — emit source marks
            # immediately (recursively settling any streams they
            # release), skip satisfied sinks, park on a blocked sink —
            # then enter the heap at the first access entry's seq
            stack = [index]
            while stack:
                i = stack.pop()
                stream = streams[i]
                pos = positions[i]
                length = len(stream)
                while pos < length:
                    entry = stream[pos][1]
                    if not isinstance(entry, EdgeMark):
                        heappush(heap, (entry.seq, i))  # type: ignore[attr-defined]
                        break
                    if entry.is_source:
                        pos += 1
                        order = entry.edge_order
                        emitted_sources.add(order)
                        released = parked.pop(order, None)
                        if released:
                            positions[i] = pos
                            stack.extend(released)
                    elif (
                        entry.edge_order in constrained
                        and entry.edge_order not in emitted_sources
                    ):
                        parked.setdefault(entry.edge_order, []).append(i)
                        break
                    else:
                        pos += 1
                positions[i] = pos

        for i in range(len(streams)):
            settle(i)

        self.stats.entries_replayed += sum(len(s) for s in streams)
        while len(merged) < total_accesses:
            if heap:
                _, index = heappop(heap)
                pos = positions[index]
                append_merged(streams[index][pos])  # type: ignore[arg-type]
                positions[index] = pos + 1
            else:
                # every remaining stream is parked on a sink whose
                # source mark is unreachable; inconsistent anchors
                # should be impossible — fall back to raw sequence
                # order rather than failing the analysis
                self.stats.order_fallbacks += 1
                index = min(
                    (
                        i
                        for i in range(len(streams))
                        if positions[i] < len(streams[i])
                    ),
                    key=lambda i: streams[i][positions[i]][1].seq,  # type: ignore[attr-defined]
                )
                for waiting in parked.values():
                    if index in waiting:
                        waiting.remove(index)
                        break
                positions[index] += 1  # skip the blocked sink mark
            settle(index)
        return merged

    # ------------------------------------------------------------------
    # Figure 5 replay
    # ------------------------------------------------------------------
    def _replay(
        self, merged: List[Tuple[Transaction, AccessEntry]]
    ) -> List[ViolationRecord]:
        last_write: Dict[Tuple[int, str], Transaction] = {}
        last_reads: Dict[Tuple[int, str], Dict[str, Transaction]] = {}
        tx_by_id: Dict[int, Transaction] = {}
        #: per-thread most recent transaction seen during replay, for
        #: the intra-thread (program-order) edges — cycles can mix
        #: program-order and dependence edges (see repro.core.pdg)
        chain: Dict[str, Transaction] = {}
        pdg = PDG()
        violations: List[ViolationRecord] = []
        stats = self.stats
        add_edge = pdg.add_edge
        _READ = AccessKind.READ

        stats.accesses_replayed += len(merged)
        for tx, entry in merged:
            if tx.tx_id not in tx_by_id:
                previous = chain.get(tx.thread_name)
                if previous is not None and previous is not tx:
                    # created at tx start; can never close a cycle
                    add_edge(previous.tx_id, tx.tx_id)
                chain[tx.thread_name] = tx
            tx_by_id[tx.tx_id] = tx
            address = entry.address
            new_edges: List[PdgEdge] = []

            writer = last_write.get(address)
            if writer is not None and writer.thread_name != tx.thread_name:
                edge = add_edge(writer.tx_id, tx.tx_id)
                if edge is not None:
                    new_edges.append(edge)

            if entry.kind is _READ:
                readers = last_reads.get(address)
                if readers is None:
                    readers = last_reads[address] = {}
                readers[tx.thread_name] = tx
            else:
                readers = last_reads.get(address)
                if readers:
                    for thread_name, reader in readers.items():
                        if thread_name != tx.thread_name:
                            edge = add_edge(reader.tx_id, tx.tx_id)
                            if edge is not None:
                                new_edges.append(edge)
                    readers.clear()
                last_write[address] = tx

            for edge in new_edges:
                stats.pdg_edges += 1
                cycle = pdg.find_cycle_through(edge)
                stats.cycle_checks += 1
                if cycle is None:
                    continue
                record = self._report(cycle, tx_by_id)
                if record is not None:
                    violations.append(record)
        self.stats.cycle_check_visits += pdg.nodes_visited
        if pdg.engine is not None:
            self.stats.engine_search_visits += pdg.engine.stats.search_visits
        return violations

    # ------------------------------------------------------------------
    def _report(
        self, cycle: List[PdgEdge], tx_by_id: Dict[int, Transaction]
    ) -> Optional[ViolationRecord]:
        key = frozenset((e.src, e.dst) for e in cycle)
        if key in self._reported_cycles:
            return None
        self._reported_cycles.add(key)
        self.stats.cycles_found += 1
        blamed = blamed_nodes(cycle)
        # prefer blaming a regular transaction: unary transactions are
        # not part of the atomicity specification, so blaming one gives
        # iterative refinement nothing to remove
        regular = [b for b in blamed if not tx_by_id[b].is_unary]
        blamed_id = (regular or blamed)[0]
        blamed_tx = tx_by_id[blamed_id]
        cycle_ids = tuple(e.src for e in cycle)
        return ViolationRecord(
            blamed_method=blamed_tx.method,
            blamed_tx_id=blamed_id,
            thread_name=blamed_tx.thread_name,
            cycle_methods=tuple(tx_by_id[i].method for i in cycle_ids),
            cycle_tx_ids=cycle_ids,
            detector="pcd",
        )
