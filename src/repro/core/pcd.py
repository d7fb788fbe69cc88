"""Precise cycle detection (PCD) — Section 3.3.

PCD is a sound and precise analysis that identifies dependence cycles
among a set of transactions provided as input: the transactions of one
imprecise SCC detected by ICD and their read/write logs.  PCD "replays"
the corresponding subset of the execution, tracking the last
transaction to write each field and each thread's last transaction to
read it (Figure 5), adding precise cross-thread edges to a PDG and
checking for cycles after every new edge.  A detected cycle is a
precise atomicity violation; blame assignment identifies the
transaction that completed it.

**Replay order.**  ICD anchors every IDG edge in both logs at the seq
of the access that created it (:attr:`IdgEdge.seq`): the source's
accesses logged before the anchor must replay before the sink's
accesses logged after it.  PCD replays the component's accesses in seq
order, the executor's global sequence number, which satisfies every
anchor, as the former have lower seqs than the anchor and the latter
no lower seq (see :mod:`repro.core.rwlog`).  Octet's happens-before
guarantees make any linearization of the anchors agree on the relative
order of conflicting accesses; seq order is one such linearization,
the true execution order (which lets a property test verify the
agreement claim).

**Conflict filter.**  Conflict serializability is decided by
conflicting access pairs alone.  Octet records every object that has
taken a conflicting transition (:attr:`OctetRuntime.conflicted`, which
PCD is given), and an object outside that set was never accessed by
two threads with a write among the accesses, so none of its accesses
can add a PDG edge.  PCD therefore replays a member's accesses to
objects in the set, plus the member's first access, which places its
program-order edge where a replay of every access places it: the PDG,
every cycle check and every blamed transaction are the ones a replay
of every access produces.  A component's members have finished, so
every conflict among their accesses is in the set when PCD reads it.

**Resumption.**  ICD hands PCD every cyclic SCC whose member set is
new, and SCCs grow by absorbing members, so consecutive components
mostly share their members.  PCD therefore keeps the replay state of
the last component it processed — the Figure 5 tables, the per-thread
chain, the transactions seen, the PDG, and an undo trail with one
record per replayed access — and picks it up for the next component
at a *cut* sequence number: the smallest of

* the first access of every member the kept component lacks,
* the first access of every kept member the new one lacks, and
* the kept replay's last access plus one (logs grow only at the end,
  and every access logged after that replay has a higher seq).

Records at or past the cut are undone newest-first, the PDG loses the
edges created from the cut on, and the undone records come back in seq
order: they are the replayed accesses of the shared members from the
cut on, plus every record of the kept members the new component lacks
(whose first access is at or past the cut), which are dropped.  PCD
replays them together with the new members' accesses and the entries
a shared member's log gained since it was read (SCC members have
finished, so their logs are final; only a direct caller grows one), so
no shared member's log is read again.

The resumed replay is exact — it reports what a from-scratch replay
reports, call by call.  Below the cut both components hold the same
replayed accesses (those of shared members), so both replays make the
same table updates and add the same PDG edges in the same order; the
rollback restores exactly that prefix, and re-added edges get the
``order`` they would get from scratch, so blame does not change.
Every cycle the prefix closes was already reported and is suppressed
as a duplicate either way.  The kept replay filtered with the conflict
set as it then was, so it is resumed only while the set has not grown
(the set only grows, so its size tells); otherwise the component is
replayed from scratch, since an access the kept replay skipped may
conflict now.

Only one state is kept: almost every grown component extends the one
processed just before it, and one state per lineage would hold every
lineage's trail in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.blame import blamed_nodes
from repro.core.pdg import PDG, PdgEdge
from repro.core.reports import ViolationRecord
from repro.core.transactions import Transaction
from repro.errors import OutOfMemoryBudget
from repro.obs.registry import publish_stats, recorder as obs_recorder

#: an access entry's seq (see :mod:`repro.core.rwlog`)
_entry_seq = itemgetter(0)

#: undo-record chain slot of an access whose transaction had already
#: appeared in the replay (otherwise the slot holds the chain entry
#: that the appearance replaced, ``None`` included)
_SEEN = object()

#: slots per undo record in :attr:`_ReplayState.trail`
_RECORD = 5


@dataclass
class PCDStats:
    """Work counters for the precise analysis.

    ``entries_replayed``, ``pdg_edges``, ``cycle_checks`` and
    ``cycle_check_visits`` count the work actually done: a resumed
    replay counts only what it replays past its cut.
    """

    components_processed: int = 0
    transactions_processed: int = 0
    #: accesses replayed: those the conflict filter keeps, from the
    #: cut on
    entries_replayed: int = 0
    #: accesses before a resumed replay's cut, which the kept state
    #: already covered; with ``entries_replayed`` they add up to the
    #: accesses the filter keeps in the processed components
    entries_resumed: int = 0
    pdg_edges: int = 0
    cycle_checks: int = 0
    cycle_check_visits: int = 0
    cycles_found: int = 0


class _ReplayState:
    """One component's replay: Figure 5's tables, the per-thread chain,
    the transactions seen, the PDG and the undo trail."""

    __slots__ = (
        "conflicts", "read", "first_seq", "last_write", "last_reads",
        "chain", "seen", "pdg", "trail",
    )

    def __init__(self, conflicts: int) -> None:
        #: the size of the conflict set the replay filtered with
        self.conflicts = conflicts
        #: member tx id -> the number of its log's entries read, and
        #: the seq of its first access (members with an access)
        self.read: Dict[int, int] = {}
        self.first_seq: Dict[int, int] = {}
        self.last_write: Dict[Tuple[int, str], Transaction] = {}
        self.last_reads: Dict[Tuple[int, str], Dict[str, Transaction]] = {}
        #: per-thread most recent transaction seen during replay, for
        #: the intra-thread (program-order) edges — cycles can mix
        #: program-order and dependence edges (see repro.core.pdg)
        self.chain: Dict[str, Transaction] = {}
        self.seen: Dict[int, Transaction] = {}
        self.pdg = PDG()
        #: one record of ``_RECORD`` slots per replayed access, in seq
        #: order: the entry, its transaction, the chain slot, the
        #: thread's previous reader (reads) or the previous writer
        #: (writes), and the readers a write cleared.  A flat list: a
        #: tuple per access would be one more long-lived object for the
        #: cyclic GC to traverse.
        self.trail: list = []

    def rollback(self, cut: int) -> Tuple[list, List[Transaction]]:
        """Undo every replayed access with seq >= ``cut``, newest first;
        returns the undone accesses and their transactions in seq
        order."""
        trail = self.trail
        last_write = self.last_write
        last_reads = self.last_reads
        chain = self.chain
        seen = self.seen
        i = len(trail)
        while i and trail[i - _RECORD][0] >= cut:
            i -= _RECORD
            entry, tx, chained, prev, readers = trail[i:i + _RECORD]
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
        entries = trail[i::_RECORD]
        owners = trail[i + 1::_RECORD]
        del trail[i:]
        self.pdg.truncate(cut)
        return entries, owners


class PCD:
    """The precise analysis.

    Args:
        conflicted: the oids of the objects that have taken a
            conflicting Octet transition (:attr:`OctetRuntime.conflicted`
            of the run's ICD), read at each component: the replay
            skips accesses to other objects (see above).
        memory_budget: optional cap on the number of log entries (an
            edge anchor counts as one) a single component may hold (the
            paper's PCD runs out of memory on long-running transactions
            — raytracer and sunflow9 — which this cap reproduces).
    """

    def __init__(
        self, conflicted: AbstractSet[int], memory_budget: Optional[int] = None
    ) -> None:
        self.conflicted = conflicted
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

        budget = self.memory_budget
        if budget is not None:
            total_entries = sum(len(tx.log) + tx.anchors for tx in members)
            if total_entries > budget:
                raise OutOfMemoryBudget("PCD", total_entries, budget)

        conflicted = self.conflicted
        state, accesses, owners = self._resume(members, len(conflicted))
        # read each member's log from its first entry the state has not
        # read: all of a new member's, none of an unchanged one's
        read = state.read
        first_seq = state.first_seq
        for tx in members:
            log = tx.log
            tx_id = tx.tx_id
            start = read.get(tx_id, 0)
            if len(log) == start:
                continue
            read[tx_id] = len(log)
            if start:
                log = log[start:]
            else:
                first_seq[tx_id] = log[0][0]
            picked = [entry for entry in log if entry[1][0] in conflicted]
            if not start and log[0][1][0] not in conflicted:
                # the first access places the program-order edge
                picked.append(log[0])
            accesses += picked
            owners += [tx] * len(picked)
        seqs = list(map(_entry_seq, accesses))
        order = sorted(range(len(seqs)), key=seqs.__getitem__)
        stats.entries_replayed += len(order)
        violations = self._replay(state, order, accesses, owners)
        self._kept = state
        return violations

    # ------------------------------------------------------------------
    # resumption
    # ------------------------------------------------------------------
    def _resume(
        self, members: List[Transaction], conflicts: int
    ) -> Tuple[_ReplayState, list, List[Transaction]]:
        """The state to replay into and the undone accesses to replay
        again, with their transactions: the kept state rolled back to
        the cut, or a fresh state and nothing when the conflict set has
        grown or the cut would undo all of it (a disjoint component,
        for one)."""
        kept = self._kept
        if kept is None or kept.conflicts != conflicts or not kept.trail:
            return _ReplayState(conflicts), [], []
        trail = kept.trail
        cut = trail[-_RECORD][0] + 1
        read = kept.read
        shared = 0
        for tx in members:
            if tx.tx_id in read:
                shared += 1
            elif tx.log and tx.log[0][0] < cut:
                cut = tx.log[0][0]
        first_seq = kept.first_seq
        gone: Set[int] = set()
        if shared < len(read):
            ids = {tx.tx_id for tx in members}
            gone = {tx_id for tx_id in read if tx_id not in ids}
            cut = min(cut, *(first_seq[tx_id] for tx_id in gone))
        if cut <= trail[0][0]:
            return _ReplayState(conflicts), [], []
        accesses, owners = kept.rollback(cut)
        if gone:
            # forget the members the component lacks, and drop their
            # undone accesses
            for tx_id in gone:
                del read[tx_id], first_seq[tx_id]
            keep = [tx.tx_id not in gone for tx in owners]
            accesses = list(compress(accesses, keep))
            owners = list(compress(owners, keep))
        self.stats.entries_resumed += len(trail) // _RECORD
        return kept, accesses, owners

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
        add_edge = pdg.add_edge
        # add_edge's duplicate check, inlined: most conflicting accesses
        # repeat an edge the PDG already has
        adj = pdg._adj
        trail = state.trail
        violations: List[ViolationRecord] = []
        stats = self.stats
        visits_before = pdg.nodes_visited

        for i in order:
            entry = accesses[i]
            seq, address, is_write, _ = entry
            tx = owners[i]
            thread = tx.thread_name
            tx_id = tx.tx_id
            if tx_id in seen:
                chained = _SEEN
            else:
                seen[tx_id] = tx
                chained = chain.get(thread)
                if chained is not None:
                    # created at tx start; can never close a cycle
                    add_edge(chained.tx_id, tx_id, seq)
                chain[thread] = tx
            new_edges: Optional[List[PdgEdge]] = None

            writer = last_write.get(address)
            if writer is not None and writer.thread_name != thread:
                out = adj.get(writer.tx_id)
                if out is None or tx_id not in out:
                    new_edges = [add_edge(writer.tx_id, tx_id, seq)]

            readers = last_reads.get(address)
            if not is_write:
                if readers is None:
                    readers = last_reads[address] = {}
                trail += (entry, tx, chained, readers.get(thread), None)
                readers[thread] = tx
            else:
                if readers:
                    # the write clears the readers: hand the table to
                    # the undo record instead of emptying it
                    del last_reads[address]
                    for reader_thread, reader in readers.items():
                        if reader_thread == thread:
                            continue
                        out = adj.get(reader.tx_id)
                        if out is None or tx_id not in out:
                            edge = add_edge(reader.tx_id, tx_id, seq)
                            if new_edges is None:
                                new_edges = [edge]
                            else:
                                new_edges.append(edge)
                else:
                    readers = None
                last_write[address] = tx
                trail += (entry, tx, chained, writer, readers)

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
