"""Imprecise cycle detection (ICD) — Section 3.2.

ICD monitors every (instrumented) program access, piggybacking on
Octet state transitions to detect cross-thread dependences soundly but
imprecisely.  It builds the imprecise dependence graph (IDG) whose
nodes are transactions, adds the three kinds of cross-thread edges
from Figure 4, and — when a transaction ends — computes the strongly
connected component containing it.  Cyclic components are potential
atomicity violations; in single-run mode (or the second run of
multi-run mode) they are handed to PCD together with the transactions'
read/write logs.

ICD's imprecision is inherited from Octet and is intentional
(Section 3.2.2, "Sources of imprecision"):

* it does not track the last transaction to read/write each object —
  conflicting-transition edges start at the responding thread's
  *current* transaction, not the transaction of its last access;
* upgrading-to-RdSh edges start at the responder thread's last
  transition to RdEx, which may involve a *different object*;
* RdSh objects have no reader list — all transitions to RdSh are
  chained through ``gLastRdSh``, and RdSh→WrEx conflicts draw edges
  from *all* threads;
* dependences are tracked at object granularity, not field granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.gc import TransactionCollector
from repro.core.rwlog import ElisionFilter
from repro.core.scc import is_cyclic_component, scc_containing_counted
from repro.core.transactions import IdgEdge, Transaction, TransactionManager
from repro.obs.registry import publish_stats, recorder as obs_recorder
from repro.errors import OutOfMemoryBudget
from repro.octet.runtime import OctetListener, OctetRuntime
from repro.octet.states import StateKind
from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.listeners import AccessBarrier, ExecutionListener
from repro.runtime.view import NullView, RuntimeView
from repro.spec.specification import AtomicitySpecification

SccCallback = Callable[[List[Transaction]], None]


@dataclass
class ICDStats:
    """Counters reproducing Table 3's graph columns plus cost inputs."""

    idg_edges: int = 0
    edges_elided_same_thread: int = 0
    edges_deduplicated: int = 0
    sccs: int = 0
    scc_transactions: int = 0
    largest_scc: int = 0
    scc_computations: int = 0
    scc_skipped_no_edges: int = 0
    #: transactions the SCC passes' forward sweeps marked, summed
    scc_visits: int = 0
    cycle_detection_calls: int = 0
    #: logged accesses
    log_entries: int = 0
    #: edge anchors (one per logged side of an IDG edge), which count
    #: as log entries against the memory budgets and in GC's sweeps
    log_marks: int = 0
    #: sum of live log entries sampled at every transaction end: the
    #: integral the garbage collector repeatedly traverses.  Bounded
    #: when collection keeps logs short; grows quadratically when every
    #: log is retained (the PCD-only straw man's memory-pressure story)
    live_log_entry_integral: int = 0
    instrumented_accesses: int = 0
    array_accesses_skipped: int = 0


class ICD(ExecutionListener, OctetListener):
    """The imprecise analysis.

    Args:
        spec: atomicity specification (drives transaction demarcation).
        logging_enabled: record read/write logs (single-run mode and
            the second run of multi-run mode; the first run turns this
            off — the source of its speed advantage).
        monitor_regular: predicate selecting which regular transactions
            are instrumented (the second run passes the first run's
            static set).
        monitor_unary: instrument non-transactional accesses (the
            second run passes the first run's boolean).
        instrument_arrays: include array-element accesses (off by
            default, matching the paper's main configuration).
        array_granularity_object: conflate all elements of an array by
            using array-level metadata (the Section 5.4 configuration;
            makes ICD *and* Velodrome imprecise, so cycle detection is
            disabled when the harness uses it).
        cycle_detection: run SCC detection at transaction end.
        on_scc: callback receiving each new cyclic SCC's transactions.
        runtime_view: see :mod:`repro.runtime.view`.
        memory_budget: optional cap on live transactions + log entries,
            reproducing the paper's 32-bit out-of-memory ceilings.
        gc_interval: run the transaction collector every N transaction
            ends (None disables collection).  ICD reports every IDG
            edge it adds to the collector (see :mod:`repro.core.gc`).
    """

    def __init__(
        self,
        spec: AtomicitySpecification,
        *,
        logging_enabled: bool = True,
        monitor_regular: Optional[Callable[[str], bool]] = None,
        monitor_unary: bool = True,
        instrument_arrays: bool = False,
        array_granularity_object: bool = False,
        cycle_detection: bool = True,
        on_scc: Optional[SccCallback] = None,
        runtime_view: Optional[RuntimeView] = None,
        memory_budget: Optional[int] = None,
        gc_interval: Optional[int] = 64,
        elide_duplicates: bool = True,
        merge_unary: bool = True,
        track_unary_sites: bool = False,
        monitor_unary_site: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.spec = spec
        self.logging_enabled = logging_enabled
        self.instrument_arrays = instrument_arrays
        self.array_granularity_object = array_granularity_object
        self.cycle_detection = cycle_detection
        self.on_scc = on_scc
        self.memory_budget = memory_budget
        self.gc_interval = gc_interval
        self.elide_duplicates = elide_duplicates
        self.view = runtime_view or NullView()

        self.stats = ICDStats()
        self._obs = obs_recorder()
        # RdSh→WrEx conflicts coordinate with *every other thread that
        # ever ran* — a finished thread responds like a blocked one (the
        # implicit protocol; it will trivially never access again), and
        # dropping it would lose the dependence from its final reads to
        # the write (a soundness hole a property test caught)
        self._started_threads: Set[str] = set()
        self._finished_threads: Set[str] = set()
        self.tx_manager = TransactionManager(
            spec,
            monitor_regular=monitor_regular,
            monitor_unary=monitor_unary,
            on_transaction_end=self._transaction_ended,
            on_transaction_start=self._transaction_started,
            merge_unary=merge_unary,
            monitor_unary_site=monitor_unary_site,
        )
        # the manager's per-thread tables, read directly on the slow path
        # (only ever mutated in place, so binding them here is safe)
        self._tx_current = self.tx_manager._current
        self._tx_latest = self.tx_manager._latest
        self.track_unary_sites = track_unary_sites
        #: extension: unary tx id -> enclosing methods of its accesses
        self.unary_sites: Dict[int, Set[str]] = {}
        self.collector = TransactionCollector(self.tx_manager)
        self.octet = OctetRuntime(
            is_thread_blocked=self._is_thread_blocked,
            live_threads=lambda: sorted(self._started_threads),
        )
        self.octet.add_listener(self)

        # "last transaction to do X" facts (Section 3.2.2)
        self._last_rdex: Dict[str, Transaction] = {}
        self._g_last_rdsh: Optional[Transaction] = None

        self._elision = ElisionFilter()
        self._edge_order = 0
        #: the transaction of the access currently in the barrier
        self._req_tx: Optional[Transaction] = None
        self._req_event: Optional[AccessEvent] = None
        self._seen_edges: Set[Tuple[int, int]] = set()
        self._processed_sccs: Set[frozenset] = set()
        self._tx_ends_since_gc = 0
        self._live_log_entries = 0

    # ------------------------------------------------------------------
    # ExecutionListener
    # ------------------------------------------------------------------
    def on_thread_start(self, thread_name: str) -> None:
        self._started_threads.add(thread_name)

    def on_thread_end(self, thread_name: str) -> None:
        self._finished_threads.add(thread_name)
        self.tx_manager.on_thread_end(thread_name)

    def on_method_enter(self, thread_name: str, method: str, depth: int) -> None:
        self.tx_manager.on_method_enter(thread_name, method, depth)

    def on_method_exit(self, thread_name: str, method: str, depth: int) -> None:
        self.tx_manager.on_method_exit(thread_name, method, depth)

    def on_access(self, event: AccessEvent) -> None:
        if event.is_array and not self.instrument_arrays:
            self.stats.array_accesses_skipped += 1
            return
        # a monitored regular transaction resolves inline, as in the
        # fused barrier; transaction_for_fields handles the rest
        tx = self._tx_current.get(event.thread_name)
        if tx is None or tx.is_unary or not tx.monitored:
            tx = self.tx_manager.transaction_for_fields(
                event.thread_name, event.site
            )
            if tx is None:
                return  # not instrumented in this configuration
        else:
            self.tx_manager.stats.regular_accesses += 1
        self.stats.instrumented_accesses += 1
        if self.track_unary_sites and tx.is_unary:
            self.unary_sites.setdefault(tx.tx_id, set()).add(event.site.method)
        self._req_tx = tx
        self._req_event = event
        try:
            self.octet.observe(event)
            if self.logging_enabled:
                self._log_access(tx, event)
        finally:
            self._req_tx = None
            self._req_event = None

    def access_barrier(self) -> AccessBarrier:
        """Build the fused per-access barrier (ICD + Octet in one call).

        The closure consumes the executor's pre-interned access fields
        directly.  Its fast path — the access hits an object whose
        Octet state is already compatible (WrEx/RdEx owned by the
        accessing thread, or RdSh read with a current ``rdShCnt``) —
        costs one dict probe and one branch chain and allocates nothing
        but the log entry, a tuple of untracked values (see
        :mod:`repro.core.rwlog`): no :meth:`OctetRuntime.observe` call, no
        :class:`AccessEvent`, no listener fan-out (same-state
        transitions never fire Figure 4 procedures).  A regular
        transaction, or a unary one the manager would merge the access
        into, is resolved inline; it bumps one Octet counter,
        ``_fused_pending``; its constants are closure cells, as
        keyword-only defaults slow every call.  Every other
        access (first access to an object, any Octet state transition)
        builds its :class:`AccessEvent`, ``is_sync``, the interned
        address and the site string included, for the :meth:`on_access`
        slow path: one pass through Octet's ``observe``, which calls
        the Figure 4 procedure of the transition's kind, if it has one,
        with plain arguments.  The fast path only skips work the slow
        path would find to be a no-op.

        Configurations whose per-access work the fused path does not
        replicate (unary site tracking, object-granularity arrays) get
        the default barrier, which sends every access to
        :meth:`on_access`.
        """
        if self.track_unary_sites or self.array_granularity_object:
            return super().access_barrier()

        octet = self.octet
        states = octet._states
        thread_rdsh = octet._thread_rdsh
        tx_manager = self.tx_manager
        tx_for_fields = tx_manager.transaction_for_fields
        # the regular and merged-unary paths of transaction_for_fields
        # (the latter only where no unary-site filter could intervene)
        # and the elision window probe are inlined below (both dicts
        # are created once in their owners' __init__ and only mutated
        # in place, so binding them here is safe); the slow call
        # remains for the other cases
        tx_current = tx_manager._current
        merge_unary = (tx_manager._merge_unary and tx_manager._monitor_unary
                       and tx_manager._monitor_unary_site is None)
        tx_stats = tx_manager.stats
        stats = self.stats
        elision = self._elision
        el_last = elision._last_by_thread
        el_ts = elision._thread_ts
        el_stats = elision.stats
        instrument_arrays = self.instrument_arrays
        logging_enabled = self.logging_enabled
        elide_duplicates = self.elide_duplicates
        slow_path = self.on_access
        check_budget = self.memory_budget is not None
        READ, WRITE = AccessKind.READ, AccessKind.WRITE
        WR_EX, RD_EX, RD_SH = StateKind.WR_EX, StateKind.RD_EX, StateKind.RD_SH

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
            if is_array and not instrument_arrays:
                stats.array_accesses_skipped += 1
                return
            oid = obj.oid
            state = states.get(oid)
            if state is not None:
                skind = state.kind
                if (
                    state.owner == thread
                    and (
                        skind is WR_EX
                        or (skind is RD_EX and kind is READ)
                    )
                ) or (
                    skind is RD_SH
                    and kind is READ
                    and thread_rdsh.get(thread, 0) >= state.counter
                ):
                    tx = tx_current.get(thread)
                    if tx is not None and not tx.is_unary:
                        if not tx.monitored:
                            tx_stats.skipped_accesses += 1
                            return
                        tx_stats.regular_accesses += 1
                    elif tx is not None and merge_unary and not tx.edge_touched:
                        tx_stats.unary_accesses += 1
                    else:
                        tx = tx_for_fields(thread, site)
                        if tx is None:
                            return  # not instrumented in this configuration
                    stats.instrumented_accesses += 1
                    octet._fused_pending += 1
                    if logging_enabled:
                        log = tx.log
                        if log is None:
                            log = tx.log = []
                        is_write = kind is WRITE
                        if elide_duplicates:
                            # the last logged access to the field, as
                            # 2 * window + is_write (see ElisionFilter)
                            per_thread = el_last.get(thread)
                            if per_thread is None:
                                per_thread = el_last[thread] = {}
                            key = 2 * el_ts.get(thread, 0) + is_write
                            if per_thread.get(address, -1) >= key:
                                el_stats.elided += 1
                                return
                            per_thread[address] = key
                            el_stats.logged += 1
                        log.append((seq, address, is_write, site_str))
                        stats.log_entries += 1
                        self._live_log_entries += 1
                        if check_budget:
                            self._check_budget()
                    return
            slow_path(
                AccessEvent(
                    seq, thread, obj, fieldname, kind, is_sync, is_array,
                    site, address, site_str,
                )
            )

        return fused_access

    def on_execution_end(self) -> None:
        self.tx_manager.finish_all()
        self.publish_metrics()

    def publish_metrics(self) -> None:
        """Publish every counter this analysis owns onto the registry."""
        obs = self._obs
        if not obs.enabled:
            return
        publish_stats(obs, "icd", self.stats)
        self.octet.stats.publish(obs)
        for key, value in sorted(self.octet.protocol.stats().items()):
            if isinstance(value, int) and not isinstance(value, bool):
                obs.inc(f"octet.protocol.{key}", value)
        publish_stats(obs, "transactions", self.tx_manager.stats)
        publish_stats(
            obs,
            "gc",
            self.collector.stats,
            gauges=("peak_live_transactions", "peak_live_log_entries"),
        )
        publish_stats(obs, "elision", self._elision.stats)

    # ------------------------------------------------------------------
    # OctetListener — the Figure 4 procedures.  Initial and RdExT ->
    # WrExT transitions have no hook: any dependence an upgrade to WrEx
    # creates is already captured by existing intra- and cross-thread
    # edges.
    # ------------------------------------------------------------------
    def on_conflicting(
        self, thread: str, responders: Sequence[str], is_read: bool
    ) -> None:
        """handleConflictingTransition: edge from each responder's
        current (else latest) transaction to the requester's current
        transaction."""
        req_tx = self._req_tx
        current = self._tx_current
        latest = self._tx_latest
        for name in responders:
            # a responder between transactions: the intra-thread chain
            # makes an edge from its latest transaction sound
            resp_tx = current.get(name) or latest.get(name)
            self._add_edge(resp_tx, req_tx, "conflicting")
        if is_read:
            self._last_rdex[thread] = req_tx

    def on_upgrading_rd_sh(
        self, thread: str, prior_owner: str, counter: int
    ) -> None:
        """handleUpgradingTransition: edges from the previous RdEx
        owner's last-RdEx transaction and from gLastRdSh; then update
        gLastRdSh to the current transaction."""
        req_tx = self._req_tx
        self._add_edge(self._last_rdex.get(prior_owner), req_tx, "upgrading")
        self._add_edge(self._g_last_rdsh, req_tx, "rdsh-order")
        self._g_last_rdsh = req_tx

    def on_fence(self, thread: str, counter: int) -> None:
        """handleFenceTransition: edge from gLastRdSh."""
        self._add_edge(self._g_last_rdsh, self._req_tx, "fence")

    # ------------------------------------------------------------------
    # IDG construction
    # ------------------------------------------------------------------
    def _add_edge(
        self, src: Optional[Transaction], dst: Transaction, kind: str
    ) -> Optional[IdgEdge]:
        if src is None or src is dst or src.collected:
            # a collected source can never re-enter a cycle (the GC
            # liveness proof), so its edge adds no detectable ordering
            return None
        src_thread = src.thread_name
        dst_thread = dst.thread_name
        stats = self.stats
        if src_thread == dst_thread:
            # covered transitively by the thread's intra-transaction chain
            stats.edges_elided_same_thread += 1
            return None
        if not self.logging_enabled:
            key = (src.tx_id, dst.tx_id)
            if key in self._seen_edges:
                stats.edges_deduplicated += 1
                src.edge_touched = True
                dst.edge_touched = True
                return None
            self._seen_edges.add(key)
        order = self._edge_order = self._edge_order + 1
        # edges arise only inside on_access: the requesting access's
        # seq anchors the edge in both logs (see repro.core.rwlog)
        edge = IdgEdge(src, dst, kind, order, self._req_event.seq)  # type: ignore[union-attr]
        if self.logging_enabled:
            # edges interrupt the elision windows of both threads
            window = self._elision._thread_ts
            window[src_thread] = window.get(src_thread, 0) + 1
            window[dst_thread] = window.get(dst_thread, 0) + 1
            # each anchor counts as a log entry, checked against the
            # budget at once
            check_budget = self.memory_budget is not None
            if src.log is not None:
                src.anchors += 1
                stats.log_marks += 1
                self._live_log_entries += 1
                if check_budget:
                    self._check_budget()
            if dst.log is not None:
                dst.anchors += 1
                stats.log_marks += 1
                self._live_log_entries += 1
                if check_budget:
                    self._check_budget()
        src.out_edges.append(edge)
        dst.in_edges.append(edge)
        src.edge_touched = True
        dst.edge_touched = True
        self.collector.note_link(src, dst)
        stats.idg_edges += 1
        # the responder sits at a safe point: its interrupted unary
        # transaction (if any) can be ended eagerly (dst is the
        # requester's transaction, mid-access — it ends lazily)
        if src.is_unary and src is not self._req_tx:
            self.tx_manager.end_if_interrupted_unary(src)
        return edge

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def _log_access(self, tx: Transaction, event: AccessEvent) -> None:
        """Log one access of the slow path.

        The entry holds the address and site string the event carries,
        the executor's interned ones when a barrier built the event (an
        object-granularity array access logs the array's own
        ``(oid, "*")``), so one field is one tuple object in every log
        and elision table.
        """
        log = tx.log
        if log is None:
            log = tx.log = []
        if event.is_array and self.array_granularity_object:
            address = event.obj.object_address
        else:
            address = event.address
        is_write = event.kind is AccessKind.WRITE
        if self.elide_duplicates and not self._elision.should_log_addr(
            event.thread_name, address, is_write
        ):
            return
        log.append((event.seq, address, is_write, event.site_str))
        self.stats.log_entries += 1
        self._live_log_entries += 1
        if self.memory_budget is not None:
            self._check_budget()

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def _transaction_started(self, tx: Transaction) -> None:
        if self.logging_enabled and tx.monitored:
            tx.log = []
        self._elision.bump(tx.thread_name)

    def _transaction_ended(self, tx: Transaction) -> None:
        self.stats.live_log_entry_integral += self._live_log_entries
        if self.cycle_detection:
            self.stats.cycle_detection_calls += 1
            if tx.has_cross_edges():
                # detection must precede collection: the just-completed
                # cycle's members are swept-able once it is reported
                self._detect_from(tx)
            else:
                # sound: the last-finishing member of any cycle always
                # has a cross-thread edge (edges attach only to active
                # transactions, and a crossless member's intra successor
                # outlives it)
                self.stats.scc_skipped_no_edges += 1
        self._maybe_collect()

    def _detect_from(self, tx: Transaction) -> None:
        """Section 3.2.3's pass (:mod:`repro.core.scc`) from the
        transaction that just ended, over the finished, uncollected ones."""
        self.stats.scc_computations += 1
        component, visits = scc_containing_counted(tx)
        self.stats.scc_visits += visits
        if not is_cyclic_component(component):
            return
        key = frozenset(t.tx_id for t in component)
        if key in self._processed_sccs:
            return
        self._processed_sccs.add(key)
        self.stats.sccs += 1
        self.stats.scc_transactions += len(component)
        self.stats.largest_scc = max(self.stats.largest_scc, len(component))
        if self.on_scc is not None:
            self.on_scc(component)

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def _maybe_collect(self) -> None:
        self._tx_ends_since_gc += 1
        if self.gc_interval is None or self._tx_ends_since_gc < self.gc_interval:
            self._check_budget()
            return
        self._tx_ends_since_gc = 0
        # _live_log_entries is maintained incrementally (+1 per logged
        # access or edge anchor, minus what each collection sweeps), so
        # neither the peak sample nor the post-collect refresh needs the
        # collector's O(live transactions) log re-scan — profiling
        # showed those scans dominating instrumented single-run time
        self.collector.note_peak(self._live_log_entries)
        roots: List[Transaction] = list(self._last_rdex.values())
        if self._g_last_rdsh is not None:
            roots.append(self._g_last_rdsh)
        self.collector.collect(roots)
        swept = self.collector.last_swept_ids
        self._live_log_entries -= self.collector.last_swept_log_entries
        if swept and not self.logging_enabled:
            # every recorded pair joins two transactions that were live
            # at this collection, so dropping the pairs that touch a
            # swept id leaves exactly the pairs between survivors
            dead = set(swept)
            self._seen_edges = {
                (s, d) for (s, d) in self._seen_edges
                if s not in dead and d not in dead
            }
        self._check_budget()

    def _check_budget(self) -> None:
        if self.memory_budget is None:
            return
        used = len(self.tx_manager.all_transactions) + self._live_log_entries
        if used > self.memory_budget:
            raise OutOfMemoryBudget("ICD", used, self.memory_budget)

    # ------------------------------------------------------------------
    def _is_thread_blocked(self, thread_name: str) -> bool:
        # a finished thread responds via the implicit protocol, exactly
        # like a blocked one
        if thread_name in self._finished_threads:
            return True
        return self.view.is_thread_blocked(thread_name)

    def bind_view(self, view: RuntimeView) -> None:
        """Attach a live runtime view (the run helpers call this)."""
        self.view = view
