"""The Velodrome online checker.

Transactions are demarcated exactly as in DoubleChecker (the shared
:class:`~repro.core.transactions.TransactionManager`), and dependence
graphs are represented the same way (edges on the transaction objects)
— matching Section 4's statement that the two implementations share
features as much as possible.  What differs is the work done per
access: Velodrome detects cross-thread dependences *precisely* at
every access, updates the field's last-access metadata inside a
critical section (one atomic operation + fences per instrumented
access), adds edges eagerly, and runs a cycle check after every new
edge.

The check probes the per-transaction vector clocks of
:mod:`repro.core.clocks`; only an edge that closes a cycle runs a DFS,
which reconstructs it for the report.  The vector-clock checker
(:class:`repro.vc.checker.VcChecker`) is this class with the probe
alone as its check; everything else here is shared.  So is the
per-access rule, which runs in one closure (:meth:`access_barrier`)
for every checker, the unsound variant
(:class:`repro.velodrome.unsound.UnsoundVelodrome`) included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.blame import blamed_nodes
from repro.core.clocks import TransactionClocks
from repro.core.gc import GcStats, TransactionCollector
from repro.core.pdg import PdgEdge
from repro.core.reports import ViolationRecord, ViolationSummary
from repro.core.transactions import (
    IdgEdge,
    Transaction,
    TransactionManager,
    TransactionStats,
)
from repro.errors import OutOfMemoryBudget
from repro.obs.registry import publish_stats, recorder as obs_recorder
from repro.runtime.events import AccessKind, Site
from repro.runtime.executor import ExecutionResult, Executor
from repro.runtime.listeners import AccessBarrier, ExecutionListener
from repro.runtime.program import Program
from repro.runtime.scheduler import Scheduler
from repro.runtime.view import ExecutorView, NullView, RuntimeView
from repro.spec.specification import AtomicitySpecification
from repro.velodrome.metadata import Address, MetadataTable


@dataclass
class VelodromeStats:
    """Access-level work counters (feed the cost model)."""

    instrumented_accesses: int = 0
    atomic_operations: int = 0
    memory_fences: int = 0
    metadata_updates: int = 0
    #: accesses resolved by the barrier's no-op predicate (the field's
    #: metadata already names this transaction)
    fastpath_hits: int = 0
    edges: int = 0
    #: re-observations of an existing edge
    edges_deduplicated: int = 0
    #: clock joins that actually grew the destination clock
    clock_joins: int = 0
    #: worklist pushes during eager transitive propagation
    propagations: int = 0
    cycle_checks: int = 0
    cycle_check_visits: int = 0
    #: checks resolved by the transaction clocks alone — the source's
    #: clock records no path from the destination, so no traversal ran
    cycle_checks_certified: int = 0
    cycles_found: int = 0
    array_accesses_skipped: int = 0
    #: synchronization accesses skipped (only when ``sync_edges`` is off)
    sync_accesses_skipped: int = 0
    lost_metadata_updates: int = 0


@dataclass
class VelodromeResult:
    """Outcome of one execution under Velodrome."""

    violations: ViolationSummary
    execution: ExecutionResult
    stats: VelodromeStats
    tx_stats: TransactionStats
    gc_stats: GcStats

    @property
    def blamed_methods(self) -> set:
        return self.violations.blamed_methods()


class VelodromeChecker(ExecutionListener):
    """Sound and precise online conflict-serializability checking.

    Args:
        spec: the atomicity specification.
        monitor_regular / monitor_unary: instrumentation filters (used
            when Velodrome serves as the *second run* of multi-run
            mode, a variant Section 5.3 evaluates at 2.9X).
        instrument_arrays / array_granularity_object: the Section 5.4
            array experiment knobs (array-granularity metadata makes
            the analysis imprecise, so the harness disables cycle
            detection when it sets this).
        cycle_detection: run the per-edge cycle check.
        memory_budget: cap on live transactions (out-of-memory model).
        gc_interval: transaction-collector cadence.
    """

    #: names this checker's edges, reports, counters and budget errors
    detector = "velodrome"
    #: each instrumented access costs one atomic op and two fences
    critical_section = True

    def __init__(
        self,
        spec: AtomicitySpecification,
        *,
        monitor_regular: Optional[Callable[[str], bool]] = None,
        monitor_unary: bool = True,
        instrument_arrays: bool = False,
        array_granularity_object: bool = False,
        cycle_detection: bool = True,
        memory_budget: Optional[int] = None,
        gc_interval: Optional[int] = 64,
    ) -> None:
        self.spec = spec
        #: order transactions through synchronization pseudo-accesses
        #: (acquire = read, release = write of the monitor pseudo-field)
        self.sync_edges = True
        self.instrument_arrays = instrument_arrays
        self.array_granularity_object = array_granularity_object
        self.cycle_detection = cycle_detection
        self.memory_budget = memory_budget
        self.gc_interval = gc_interval
        self.view: RuntimeView = NullView()

        self._stats = VelodromeStats()
        #: one fold per barrier built (see access_barrier)
        self._folds: List[Callable[[], None]] = []
        self.metadata = MetadataTable()
        self.violations = ViolationSummary()
        self.tx_manager = TransactionManager(
            spec,
            monitor_regular=monitor_regular,
            monitor_unary=monitor_unary,
            on_transaction_start=self._transaction_started,
            on_transaction_end=self._transaction_ended,
        )
        self.collector = TransactionCollector(self.tx_manager)
        self._edge_order = 0
        #: edges the current access added, checked once its metadata
        #: update is done
        self._unchecked: List[IdgEdge] = []
        #: creation order of the implicit intra-thread edge into each
        #: transaction (the edge-counter value at transaction start)
        self._intra_order: Dict[int, int] = {}
        self._reported_cycles: Set[frozenset] = set()
        self._tx_ends_since_gc = 0
        #: reachability certificate for the per-edge cycle checks
        #: (``None`` exactly when cycle detection is off)
        self.clocks: Optional[TransactionClocks] = (
            TransactionClocks() if cycle_detection else None
        )
        self._obs = obs_recorder()

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
        self._fold_barrier_counts()
        self.publish_metrics()

    @property
    def stats(self) -> VelodromeStats:
        """The access-level counters; reading folds in what the
        barriers have batched, the transaction manager's counts too."""
        self._fold_barrier_counts()
        return self._stats

    def publish_metrics(self) -> None:
        """Publish every counter this analysis owns onto the registry."""
        obs = self._obs
        if not obs.enabled:
            return
        publish_stats(obs, self.detector, self.stats)
        publish_stats(obs, "transactions", self.tx_manager.stats)
        publish_stats(
            obs,
            "gc",
            self.collector.stats,
            gauges=("peak_live_transactions", "peak_live_log_entries"),
        )

    # ------------------------------------------------------------------
    # the fused barrier: Figure 5's per-access rule, whole, in one closure
    # ------------------------------------------------------------------
    def access_barrier(self) -> AccessBarrier:
        """Build the fused barrier over the executor's pre-interned
        access fields: one closure runs Figure 5's whole per-access
        rule.

        A synchronization access is skipped unless ``sync_edges`` is
        set.  A regular transaction, or a unary one the manager would
        merge the access into, is resolved inline, as in ICD's fused
        barrier; ``transaction_for_fields`` resolves the rest.  An
        access whose field metadata already names its transaction can
        neither add an edge nor change the metadata, and returns there
        (the no-op predicate).  Any other access adds its edges, updates
        the metadata, then checks each new edge for a cycle.  The
        closure's constants are cells, as keyword-only defaults slow
        every call, and its per-access counters are batched in cells
        that :attr:`stats` folds in when read, as
        :meth:`on_execution_end` does before publishing.

        :meth:`_race_model` fixes the unsound variant's switches when
        the barrier is built.  With a race model, the barrier pays for
        synchronization only when the access changes the metadata, lets
        the model drop the update, and never takes the no-op return:
        ``edges_deduplicated`` and the model's RNG draws count every
        access.
        """
        tx_manager = self.tx_manager
        tx_for_fields = tx_manager.transaction_for_fields
        # the regular and merged-unary paths of transaction_for_fields
        # (the latter only where no unary-site filter could intervene)
        tx_current = tx_manager._current
        merge_unary = (tx_manager._merge_unary and tx_manager._monitor_unary
                       and tx_manager._monitor_unary_site is None)
        tx_stats = tx_manager.stats
        stats = self._stats
        fields_get = self.metadata._fields.get
        lookup = self.metadata.lookup
        instrument_arrays = self.instrument_arrays
        object_granularity = self.array_granularity_object
        sync_edges = self.sync_edges
        critical_section = self.critical_section
        update_allowed = self._race_model()
        unsynchronized = update_allowed is not None
        add_edge = self._add_edge
        unchecked = self._unchecked
        check_cycle = self._check_cycle
        READ = AccessKind.READ
        # the batched counters (see fold)
        instrumented = regular = merged = hits = updates = paid = 0

        def fused_access(
            seq: int,
            thread: str,
            obj: Any,
            fieldname: str,
            kind: AccessKind,
            site: Site,
            address: Tuple[int, str],
            site_str: str,
            is_array: bool,
            is_sync: bool,
        ) -> None:
            nonlocal instrumented, regular, merged, hits, updates, paid
            if is_array:
                if not instrument_arrays:
                    stats.array_accesses_skipped += 1
                    return
                if object_granularity:
                    address = (obj.oid, "*")
            if is_sync and not sync_edges:
                stats.sync_accesses_skipped += 1
                return
            tx = tx_current.get(thread)
            if tx is not None and not tx.is_unary:
                if not tx.monitored:
                    tx_stats.skipped_accesses += 1
                    return
                regular += 1
            elif tx is not None and merge_unary and not tx.edge_touched:
                merged += 1
            else:
                tx = tx_for_fields(thread, site)
                if tx is None:
                    return  # not instrumented in this configuration
            instrumented += 1
            meta = fields_get(address)
            if meta is None:
                meta = lookup(address)
            writer = meta.last_writer
            readers = meta.last_readers
            update = True
            if kind is READ:
                seen = readers.get(thread) is tx
                if seen and not unsynchronized:
                    hits += 1
                    return
                if unsynchronized:
                    if not seen:
                        paid += 1
                    update = update_allowed(seq, thread, address)
                # the read's edge: from the last writer
                if writer is not None and writer.thread_name != thread:
                    add_edge(writer, tx)
                if update and not seen:
                    updates += 1
                    readers[thread] = tx
            else:
                if writer is tx and not readers and not unsynchronized:
                    hits += 1
                    updates += 1  # a write counts its (unchanged) update
                    return
                if unsynchronized:
                    if meta.would_change_on_write(tx):
                        paid += 1
                    update = update_allowed(seq, thread, address)
                # the write's edges: from the last writer and from every
                # other thread's last reader
                if writer is not None and writer.thread_name != thread:
                    add_edge(writer, tx)
                if readers:
                    # snapshot: adding an edge can end an interrupted
                    # unary transaction, whose GC purges weak metadata
                    # references
                    for name, reader in list(readers.items()):
                        if name != thread:
                            add_edge(reader, tx)
                if update:
                    updates += 1
                    readers.clear()
                    meta.last_writer = tx
            if unchecked:
                for edge in unchecked:
                    check_cycle(edge)
                unchecked.clear()

        def fold() -> None:
            nonlocal instrumented, regular, merged, hits, updates, paid
            stats.instrumented_accesses += instrumented
            if critical_section:
                stats.atomic_operations += instrumented
                stats.memory_fences += 2 * instrumented
            if paid:
                # no releasing fence: the variant runs unsynchronized
                stats.atomic_operations += paid
                stats.memory_fences += paid
            stats.fastpath_hits += hits
            stats.metadata_updates += updates
            tx_stats.regular_accesses += regular
            tx_stats.unary_accesses += merged
            instrumented = regular = merged = hits = updates = paid = 0

        self._folds.append(fold)
        return fused_access

    def _race_model(self) -> Optional[Callable[[int, str, Address], bool]]:
        """Section 5.3's lost-update model, or ``None``.

        Called once per barrier build.  A model takes an access's
        ``(seq, thread, address)`` and says whether its metadata update
        lands.  The sound checkers have none, so every update lands.
        """
        return None

    def _fold_barrier_counts(self) -> None:
        """Fold every barrier's batched counters into the stats."""
        for fold in self._folds:
            fold()

    def _add_edge(self, src: Transaction, dst: Transaction) -> None:
        """Add the cross-thread edge ``src -> dst`` into the accessing
        transaction, unless ``src`` was collected or the edge exists."""
        if src.collected:
            return
        stats = self._stats
        for edge in src.out_edges:
            if edge.dst is dst:
                # already joined; eager propagation keeps it current
                stats.edges_deduplicated += 1
                return
        self._edge_order += 1
        edge = IdgEdge(src, dst, self.detector, self._edge_order)
        src.out_edges.append(edge)
        dst.in_edges.append(edge)
        src.edge_touched = True
        dst.edge_touched = True
        self.collector.note_link(src, dst)
        stats.edges += 1
        if self.clocks is not None:
            grown = self.clocks.add_edge(src, dst)
            if grown:
                stats.clock_joins += 1
                stats.propagations += grown - 1
            self._unchecked.append(edge)
        # eagerly end an interrupted unary transaction on the source
        # side (the destination is the accessor, mid-access)
        self.tx_manager.end_if_interrupted_unary(src)

    # ------------------------------------------------------------------
    # cycle detection: DFS for a path dst ⇝ src over cross edges and the
    # intra-thread chains (cycles may include intra edges: a transaction
    # overlapping two transactions of another thread closes through
    # program order)
    # ------------------------------------------------------------------
    def _check_cycle(self, closing: IdgEdge) -> None:
        stats = self._stats
        stats.cycle_checks += 1
        target = closing.src
        start = closing.dst
        # the target's clock records start ⇝ target exactly when the
        # edge closes a cycle; a target swept since its edge was added
        # has no clock, and can join no cycle
        reach = self.clocks.clock(target)
        if reach is None or reach.get(start.thread_name, 0) < start.tx_id:
            stats.cycle_checks_certified += 1
            return
        # admitting only the target and the nodes whose path into it
        # the clock records cannot change the path found: a node with
        # no path into the target never discovers one that has one
        discovered: Dict[Transaction, Tuple[Transaction, Optional[IdgEdge]]] = {}
        stack = [start]
        seen = {start}
        found = False
        while stack and not found:
            node = stack.pop()
            steps: List[Tuple[Transaction, Optional[IdgEdge]]] = [
                (e.dst, e) for e in node.out_edges
            ]
            if node.intra_next is not None:
                steps.append((node.intra_next, None))
            for succ, via in steps:
                if succ in seen or (
                    succ is not target
                    and reach.get(succ.thread_name, 0) < succ.tx_id
                ):
                    continue
                seen.add(succ)
                discovered[succ] = (node, via)
                if succ is target:
                    found = True
                    break
                stack.append(succ)
        stats.cycle_check_visits += len(seen)
        if not found:
            return
        self._report_cycle(closing, discovered, start, target)

    def _report_cycle(
        self,
        closing: IdgEdge,
        discovered: Dict[Transaction, Tuple[Transaction, Optional[IdgEdge]]],
        start: Transaction,
        target: Transaction,
    ) -> None:
        # reconstruct the path start ⇝ target, then append the closing edge
        steps: List[Tuple[Transaction, Transaction, int]] = []
        node = target
        while node is not start:
            prev, via = discovered[node]
            order = via.order if via is not None else self._intra_order.get(
                node.tx_id, 0
            )
            steps.append((prev, node, order))
            node = prev
        steps.reverse()
        steps.append((closing.src, closing.dst, closing.order))

        cycle_edges = [PdgEdge(s.tx_id, d.tx_id, order) for s, d, order in steps]
        key = frozenset((e.src, e.dst) for e in cycle_edges)
        if key in self._reported_cycles:
            return
        self._reported_cycles.add(key)
        self._stats.cycles_found += 1

        tx_by_id = {s.tx_id: s for s, _d, _o in steps}
        for _s, d, _o in steps:
            tx_by_id[d.tx_id] = d
        blamed = blamed_nodes(cycle_edges)
        # prefer blaming a regular transaction (see repro.core.pcd)
        regular = [b for b in blamed if not tx_by_id[b].is_unary]
        blamed_id = (regular or blamed)[0]
        blamed_tx = tx_by_id[blamed_id]
        cycle_ids = tuple(e.src for e in cycle_edges)
        self.violations.add(
            ViolationRecord(
                blamed_method=blamed_tx.method,
                blamed_tx_id=blamed_id,
                thread_name=blamed_tx.thread_name,
                cycle_methods=tuple(tx_by_id[i].method for i in cycle_ids),
                cycle_tx_ids=cycle_ids,
                detector=self.detector,
            )
        )

    # ------------------------------------------------------------------
    # transaction lifecycle, GC, memory budget
    # ------------------------------------------------------------------
    def _transaction_started(self, tx: Transaction) -> None:
        self._intra_order[tx.tx_id] = self._edge_order
        if self.clocks is not None:
            self.clocks.start(tx)

    def _transaction_ended(self, tx: Transaction) -> None:
        self._tx_ends_since_gc += 1
        if (
            self.gc_interval is not None
            and self._tx_ends_since_gc >= self.gc_interval
        ):
            self._tx_ends_since_gc = 0
            self.collector.note_peak()
            self.collector.collect()
            # a collection that swept nothing leaves nothing to retire
            # (the last purge already dropped every collected reference)
            swept = self.collector.last_swept_ids
            if swept:
                if self.clocks is not None:
                    self.clocks.forget(swept)
                intra_order = self._intra_order
                for tx_id in swept:
                    intra_order.pop(tx_id, None)
                self.metadata.purge_collected()
        if self.memory_budget is not None:
            used = len(self.tx_manager.all_transactions)
            if used > self.memory_budget:
                self._fold_barrier_counts()
                raise OutOfMemoryBudget(self.detector, used, self.memory_budget)

    # ------------------------------------------------------------------
    def bind_view(self, view: RuntimeView) -> None:
        self.view = view

    def run(
        self, program: Program, scheduler: Optional[Scheduler] = None
    ) -> VelodromeResult:
        """Execute ``program`` under this checker."""
        executor = Executor(program, scheduler, [self])
        self.bind_view(ExecutorView(executor))
        execution = executor.run()
        return VelodromeResult(
            violations=self.violations,
            execution=execution,
            stats=self.stats,
            tx_stats=self.tx_manager.stats,
            gc_stats=self.collector.stats,
        )
