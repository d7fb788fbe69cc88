"""An offline serializability checker with streaming summarization.

The paper's closest related work (Farzan & Parthasarathy, CAV 2008 —
reference [9]) differs from Velodrome/DoubleChecker in two documented
ways (Section 6):

* it detects cycles **offline**, after the execution finishes, over a
  recorded trace — and bounds space by *summarizing* the dependence
  graph as transactions finish, so space is not proportional to the
  length of the run;
* it does **not track synchronization edges** — so, unlike Velodrome
  and DoubleChecker (which follow Velodrome), it does not report the
  false positives that release–acquire edges can create when checking
  conflict serializability.

:class:`OfflineChecker` reproduces that design point over
:class:`~repro.trace.recorder.Trace` inputs: it streams the trace,
applies the last-access dependence rules at field granularity, detects
completed cycles as transactions retire (recording violations), and
then *collects* retired graph regions exactly the way DoubleChecker's
transaction GC does — the summarization that keeps live state bounded.
A final sweep at end of trace catches cycles completed by the last
transactions.

It reuses the shared transaction model, so its results are directly
comparable with the online checkers' (see
``tests/offline/test_checker.py``: identical verdicts on data
conflicts, no verdict on synchronization-only cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.gc import GcStats, TransactionCollector
from repro.core.reports import ViolationRecord, ViolationSummary
from repro.core.scc import is_cyclic_component, scc_containing
from repro.core.transactions import IdgEdge, Transaction, TransactionManager
from repro.runtime.events import AccessEvent
from repro.runtime.listeners import ExecutionListener
from repro.spec.specification import AtomicitySpecification
from repro.trace.recorder import Trace
from repro.trace.replay import replay_trace


@dataclass
class OfflineStats:
    """Work/space counters for the offline analysis."""

    accesses_processed: int = 0
    sync_accesses_skipped: int = 0
    edges: int = 0
    scc_computations: int = 0
    cycles_found: int = 0
    peak_live_transactions: int = 0


@dataclass
class OfflineResult:
    violations: ViolationSummary
    stats: OfflineStats
    gc_stats: GcStats

    @property
    def blamed_methods(self) -> set:
        return self.violations.blamed_methods()


class OfflineChecker(ExecutionListener):
    """Offline, summarizing conflict-serializability checking.

    Args:
        spec: the atomicity specification (transaction demarcation).
        track_sync_edges: include release–acquire (and fork/join)
            pseudo-accesses as dependences.  Off by default — the [9]
            design point; turning it on makes the verdicts match
            Velodrome's on synchronization-only cycles too.
        summarize_interval: collect retired graph regions every N
            transaction ends (None disables summarization; space then
            grows with the run, which is exactly the comparison [9]
            draws against unsummarized graphs).
    """

    def __init__(
        self,
        spec: AtomicitySpecification,
        *,
        track_sync_edges: bool = False,
        summarize_interval: Optional[int] = 64,
    ) -> None:
        self.spec = spec
        self.track_sync_edges = track_sync_edges
        self.summarize_interval = summarize_interval

        self.stats = OfflineStats()
        self.violations = ViolationSummary()
        self.tx_manager = TransactionManager(
            spec,
            on_transaction_end=self._transaction_ended,
        )
        self.collector = TransactionCollector(self.tx_manager)
        #: field address -> last writer transaction
        self._last_write: Dict[Tuple[int, str], Transaction] = {}
        #: field address -> thread -> last reader transaction
        self._last_reads: Dict[Tuple[int, str], Dict[str, Transaction]] = {}
        self._edge_order = 0
        self._processed: Set[frozenset] = set()
        self._ends_since_summary = 0

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def check(self, trace: Trace) -> OfflineResult:
        """Analyze a recorded trace."""
        replay_trace(trace, [self])
        return OfflineResult(self.violations, self.stats, self.collector.stats)

    # ------------------------------------------------------------------
    # ExecutionListener
    # ------------------------------------------------------------------
    def on_method_enter(self, thread_name: str, method: str, depth: int) -> None:
        self.tx_manager.on_method_enter(thread_name, method, depth)

    def on_method_exit(self, thread_name: str, method: str, depth: int) -> None:
        self.tx_manager.on_method_exit(thread_name, method, depth)

    def on_thread_end(self, thread_name: str) -> None:
        self.tx_manager.on_thread_end(thread_name)

    def on_execution_end(self) -> None:
        self.tx_manager.finish_all()

    def on_access(self, event: AccessEvent) -> None:
        if event.is_sync and not self.track_sync_edges:
            self.stats.sync_accesses_skipped += 1
            return
        tx = self.tx_manager.transaction_for_access(event)
        if tx is None:
            return
        self.stats.accesses_processed += 1
        address = event.address

        writer = self._last_write.get(address)
        if writer is not None and writer.thread_name != tx.thread_name:
            self._add_edge(writer, tx)

        if event.is_read():
            self._last_reads.setdefault(address, {})[tx.thread_name] = tx
        else:
            for thread_name, reader in self._last_reads.get(address, {}).items():
                if thread_name != tx.thread_name:
                    self._add_edge(reader, tx)
            self._last_reads[address] = {}
            self._last_write[address] = tx

    # ------------------------------------------------------------------
    def _add_edge(self, src: Transaction, dst: Transaction) -> None:
        if src is dst or src.collected:
            return
        if any(e.dst is dst for e in src.out_edges):
            return
        self._edge_order += 1
        edge = IdgEdge(src, dst, "offline", self._edge_order)
        src.out_edges.append(edge)
        dst.in_edges.append(edge)
        src.edge_touched = True
        dst.edge_touched = True
        self.collector.note_link(src, dst)
        self.stats.edges += 1
        self.tx_manager.end_if_interrupted_unary(src)

    def _transaction_ended(self, tx: Transaction) -> None:
        # cycles complete no later than their last member's retirement;
        # detecting at retirement lets summarization collect the region
        if tx.has_cross_edges():
            self.stats.scc_computations += 1
            component = scc_containing(tx)
            if is_cyclic_component(component):
                self._report(component)
        self._maybe_summarize()

    def _report(self, component: List[Transaction]) -> None:
        key = frozenset(t.tx_id for t in component)
        if key in self._processed:
            return
        self._processed.add(key)
        regular = [t for t in component if not t.is_unary]
        if not regular:
            return  # no specified atomic region is implicated
        self.stats.cycles_found += 1
        ordered = sorted(component, key=lambda t: t.tx_id)
        self.violations.add(
            ViolationRecord(
                blamed_method=regular[0].method,
                blamed_tx_id=regular[0].tx_id,
                thread_name=regular[0].thread_name,
                cycle_methods=tuple(t.method for t in ordered),
                cycle_tx_ids=tuple(t.tx_id for t in ordered),
                detector="offline",
            )
        )

    # ------------------------------------------------------------------
    # summarization: bounded live state
    # ------------------------------------------------------------------
    def _maybe_summarize(self) -> None:
        if self.summarize_interval is None:
            return
        self._ends_since_summary += 1
        if self._ends_since_summary < self.summarize_interval:
            return
        self._ends_since_summary = 0
        self.collector.note_peak()
        self.stats.peak_live_transactions = max(
            self.stats.peak_live_transactions,
            len(self.tx_manager.all_transactions),
        )
        # metadata-referenced transactions are pinned: they can still
        # source future edges (live state stays bounded by the field
        # population, not by the run's length)
        pinned: List[Transaction] = list(self._last_write.values())
        for readers in self._last_reads.values():
            pinned.extend(readers.values())
        self.collector.collect(pinned)
