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

**Replay order.**  ICD anchors every IDG edge in both logs: the source
mark of an edge must be replayed before its sink mark.  PCD replays the
component's accesses in seq order, the executor's global sequence
number: it takes each member's log suffix from the cut (below), keeps
the access entries and sorts them by seq together with their owners.
Each log is nondecreasing in seq and access seqs are unique, so seq
order satisfies an anchor exactly when the source mark's seq is no
later than the sink mark's.  ICD gives both marks the seq of the
access that created the edge (see :mod:`repro.core.rwlog`), so the
check, one comparison per anchor through the edge's log indexes,
always holds on ICD's logs; a broken anchor counts in
``order_fallbacks`` and the replay still runs in seq order.  Octet's
happens-before guarantees make any linearization of the anchors agree
on the relative order of conflicting accesses; seq order is one such
linearization, the true execution order (which lets a property test
verify the agreement claim).

**Resumption.**  ICD hands PCD every cyclic SCC whose member set is
new, and SCCs grow by absorbing members, so consecutive components
mostly share their members.  PCD therefore keeps the replay state of
the last component it processed — the Figure 5 tables, the per-thread
chain, the transactions seen, the PDG, and an undo trail with one
record per replayed access — and picks it up for the next component
at a *cut* sequence number: the smallest of

* the first logged access of every member the kept component lacks,
* the first logged access of every kept member the new one lacks, and
* the kept replay's last access plus one (logs grow only at the end,
  and every entry appended after that replay has a higher seq).

Records at or past the cut are undone newest-first and the PDG is
truncated to its size at the cut; then only the log entries from the
cut on are collected and replayed.

The resumed replay is exact — it reports what a from-scratch replay
reports, call by call.  Accesses replay in seq order, and below the
cut both components hold the same accesses (those of shared members),
so both replays make the same table updates and add the same PDG
edges in the same order.  The newest-edge truncation then restores exactly that
prefix, and re-added edges get the ``order`` they would get from
scratch, so blame does not change.  Every cycle the prefix closes was
already reported and is suppressed as a duplicate either way.  A
source mark and its sink carry the same seq (the edge's creation
time), so a cut never separates them; each log is nondecreasing in seq
(see :mod:`repro.core.rwlog`), so the entries from the cut on are a
suffix found by bisection.  A component with a broken anchor is not
replayed in an order its anchors allow, so its state is not kept.

Only one state is kept: almost every grown component extends the one
processed just before it, and one state per lineage would hold every
lineage's trail in memory.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.blame import blamed_nodes
from repro.core.pdg import PDG, PdgEdge
from repro.core.reports import ViolationRecord
from repro.core.transactions import Transaction
from repro.errors import OutOfMemoryBudget
from repro.obs.registry import publish_stats, recorder as obs_recorder

#: a log entry's seq; an access entry has four fields, an edge mark
#: three (see :mod:`repro.core.rwlog`)
_entry_seq = itemgetter(0)
_ACCESS = 4

#: first-access seq of a member whose log holds no access: it bounds
#: no cut
_NO_ACCESS = float("inf")

#: undo-record chain slot of an access whose transaction had already
#: appeared in the replay (otherwise the slot holds the chain entry
#: that the appearance replaced, ``None`` included)
_SEEN = object()

#: slots per undo record in :attr:`_ReplayState.trail`
_RECORD = 6


@dataclass
class PCDStats:
    """Work counters for the precise analysis.

    ``entries_replayed``, ``accesses_replayed``, ``pdg_edges``,
    ``cycle_checks`` and ``cycle_check_visits`` count the work actually
    done: a resumed replay counts only what it replays past its cut.
    """

    components_processed: int = 0
    transactions_processed: int = 0
    #: log entries (accesses and marks) from the cut on
    entries_replayed: int = 0
    #: log entries before a resumed replay's cut, which the kept state
    #: already covered; with ``entries_replayed`` they add up to the
    #: processed components' log entries
    entries_resumed: int = 0
    accesses_replayed: int = 0
    pdg_edges: int = 0
    cycle_checks: int = 0
    cycle_check_visits: int = 0
    cycles_found: int = 0
    #: anchors between members whose source mark has a later seq than
    #: their sink mark: seq order breaks them (never on ICD's logs)
    order_fallbacks: int = 0


class _ReplayState:
    """One component's replay: Figure 5's tables, the per-thread chain,
    the transactions seen, the PDG and the undo trail."""

    __slots__ = (
        "first_seq", "last_write", "last_reads", "chain", "seen", "pdg",
        "trail",
    )

    def __init__(self) -> None:
        #: member tx id -> seq of its first logged access
        self.first_seq: Dict[int, float] = {}
        self.last_write: Dict[Tuple[int, str], Transaction] = {}
        self.last_reads: Dict[Tuple[int, str], Dict[str, Transaction]] = {}
        #: per-thread most recent transaction seen during replay, for
        #: the intra-thread (program-order) edges — cycles can mix
        #: program-order and dependence edges (see repro.core.pdg)
        self.chain: Dict[str, Transaction] = {}
        self.seen: Dict[int, Transaction] = {}
        self.pdg = PDG()
        #: one record of ``_RECORD`` slots per replayed access, in seq
        #: order: the entry, the PDG edge count before it, its
        #: transaction, the chain slot, the thread's previous reader
        #: (reads) or the previous writer (writes), and the readers a
        #: write cleared.  A flat list: a tuple per access would be
        #: one more long-lived object for the cyclic GC to traverse.
        self.trail: list = []

    def rollback(self, cut: int) -> None:
        """Undo every replayed access with seq >= ``cut``, newest first."""
        trail = self.trail
        last_write = self.last_write
        last_reads = self.last_reads
        chain = self.chain
        seen = self.seen
        edge_count = self.pdg.edge_count
        while trail and trail[-_RECORD][0] >= cut:
            entry, edge_count, tx, chained, prev, readers = trail[-_RECORD:]
            del trail[-_RECORD:]
            address = entry[1]
            thread = tx.thread_name
            if not entry[2]:
                if prev is None:
                    del last_reads[address][thread]
                else:
                    last_reads[address][thread] = prev
            else:
                if prev is None:
                    del last_write[address]
                else:
                    last_write[address] = prev
                if readers is not None:
                    last_reads[address] = readers
            if chained is not _SEEN:
                del seen[tx.tx_id]
                if chained is None:
                    del chain[thread]
                else:
                    chain[thread] = chained
        self.pdg.truncate(edge_count)


def _first_access_seq(tx: Transaction) -> float:
    for entry in tx.log:
        if len(entry) == _ACCESS:
            return entry[0]
    return _NO_ACCESS


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
        #: the last processed component's replay, to resume from
        self._kept: Optional[_ReplayState] = None

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
        stats = self.stats
        stats.components_processed += 1
        members = [tx for tx in component if tx.log is not None]
        stats.transactions_processed += len(members)
        if len(members) < 2:
            return []

        total_entries = sum(len(tx.log) for tx in members)
        if self.memory_budget is not None and total_entries > self.memory_budget:
            raise OutOfMemoryBudget("PCD", total_entries, self.memory_budget)

        first_seq = {tx.tx_id: _first_access_seq(tx) for tx in members}
        state, cut = self._resume(first_seq)
        order, accesses, owners, replayed, broken = self._merge_logs(
            members, cut
        )
        stats.entries_replayed += replayed
        stats.entries_resumed += total_entries - replayed
        violations = self._replay(state, order, accesses, owners)
        if broken:
            stats.order_fallbacks += broken
            self._kept = None
        else:
            state.first_seq = first_seq
            self._kept = state
        return violations

    # ------------------------------------------------------------------
    # resumption
    # ------------------------------------------------------------------
    def _resume(self, first_seq: Dict[int, float]) -> Tuple[_ReplayState, int]:
        """The state to replay into and the seq to replay from: the kept
        state rolled back to the cut, or a fresh state and 0 when the
        cut would undo all of it (a disjoint component, for one)."""
        kept = self._kept
        if kept is None or not kept.trail:
            return _ReplayState(), 0
        trail = kept.trail
        cut = trail[-_RECORD][0] + 1
        old = kept.first_seq
        for tx_id, seq in first_seq.items():
            if seq < cut and tx_id not in old:
                cut = seq
        for tx_id, seq in old.items():
            if seq < cut and tx_id not in first_seq:
                cut = seq
        if cut <= trail[0][0]:
            return _ReplayState(), 0
        kept.rollback(cut)
        return kept, cut

    # ------------------------------------------------------------------
    # seq-order collection
    # ------------------------------------------------------------------
    def _merge_logs(
        self, members: Sequence[Transaction], cut: int
    ) -> Tuple[List[int], List[tuple], List[Transaction], int, int]:
        """Collect the members' accesses with seq >= ``cut`` in seq order.

        Returns the order as indexes into the accesses and into the
        transactions that logged them (no object per access), those two
        lists, the number of log entries from the cut on, and the number
        of anchors between members that seq order breaks.
        """
        member_ids = {tx.tx_id for tx in members}
        accesses: List[tuple] = []
        owners: List[Transaction] = []
        entries = 0
        broken = 0
        for tx in members:
            log = tx.log
            if not log or log[-1][0] < cut:
                continue
            # each log is nondecreasing in seq, so the entries from the
            # cut on are a suffix
            suffix = log[bisect_left(log, cut, key=_entry_seq):] if cut else log
            entries += len(suffix)
            logged = [entry for entry in suffix if len(entry) == _ACCESS]
            accesses += logged
            owners += [tx] * len(logged)
            # the anchors created from the cut on: out-edges are kept in
            # creation order, and a mark carries its edge's creation seq
            for edge in reversed(tx.out_edges):
                seq = log[edge.src_log_index][0]
                if seq < cut:
                    break
                dst = edge.dst
                if dst.tx_id in member_ids and dst.log[edge.dst_log_index][0] < seq:
                    broken += 1
        seqs = list(map(_entry_seq, accesses))
        order = sorted(range(len(seqs)), key=seqs.__getitem__)
        return order, accesses, owners, entries, broken

    # ------------------------------------------------------------------
    # Figure 5 replay
    # ------------------------------------------------------------------
    def _replay(
        self, state: _ReplayState, order: List[int], accesses: List[tuple],
        owners: List[Transaction],
    ) -> List[ViolationRecord]:
        last_write = state.last_write
        last_reads = state.last_reads
        chain = state.chain
        seen = state.seen
        pdg = state.pdg
        pdg_edges = pdg.edges
        add_edge = pdg.add_edge
        trail = state.trail
        violations: List[ViolationRecord] = []
        stats = self.stats
        visits_before = pdg.nodes_visited

        stats.accesses_replayed += len(order)
        for i in order:
            entry = accesses[i]
            tx = owners[i]
            thread = tx.thread_name
            tx_id = tx.tx_id
            edge_count = len(pdg_edges)
            if tx_id in seen:
                chained = _SEEN
            else:
                seen[tx_id] = tx
                chained = chain.get(thread)
                if chained is not None:
                    # created at tx start; can never close a cycle
                    add_edge(chained.tx_id, tx_id)
                chain[thread] = tx
            address = entry[1]
            new_edges: Optional[List[PdgEdge]] = None

            writer = last_write.get(address)
            if writer is not None and writer.thread_name != thread:
                edge = add_edge(writer.tx_id, tx_id)
                if edge is not None:
                    new_edges = [edge]

            readers = last_reads.get(address)
            if not entry[2]:
                if readers is None:
                    readers = last_reads[address] = {}
                trail += (entry, edge_count, tx, chained, readers.get(thread), None)
                readers[thread] = tx
            else:
                if readers:
                    # the write clears the readers: hand the table to
                    # the undo record instead of emptying it
                    del last_reads[address]
                    for reader_thread, reader in readers.items():
                        if reader_thread != thread:
                            edge = add_edge(reader.tx_id, tx_id)
                            if edge is not None:
                                if new_edges is None:
                                    new_edges = [edge]
                                else:
                                    new_edges.append(edge)
                else:
                    readers = None
                last_write[address] = tx
                trail += (entry, edge_count, tx, chained, writer, readers)

            if new_edges is None:
                continue
            for edge in new_edges:
                stats.pdg_edges += 1
                cycle = pdg.find_cycle_through(edge)
                stats.cycle_checks += 1
                if cycle is None:
                    continue
                report = self._report(cycle, seen)
                if report is not None:
                    violations.append(report)
        stats.cycle_check_visits += pdg.nodes_visited - visits_before
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
