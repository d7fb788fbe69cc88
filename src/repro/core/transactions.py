"""Transactions and their demarcation.

A *transaction* is a dynamically executing atomic region.  Regular
transactions correspond to (outermost) executions of methods in the
atomicity specification; every access outside a regular transaction
executes in a *unary* transaction.  Following the paper's
implementation, consecutive unary transactions not interrupted by an
incoming or outgoing cross-thread edge are merged (Section 4,
"Constructing the IDG").

The :class:`TransactionManager` performs demarcation from method
enter/exit events and hands the analyses the current transaction for
each access.  It is shared by ICD and by our Velodrome implementation,
which demarcate transactions identically (Section 4, "Velodrome
implementation": both "demarcate transactions the same way").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.runtime.events import AccessEvent
from repro.spec.specification import AtomicitySpecification

UNARY_METHOD = "<unary>"


class Transaction:
    """A node of a transaction dependence graph (IDG or Velodrome's).

    Attributes:
        tx_id: globally unique id within a checker run.
        thread_name: the executing thread.
        method: static identity (method name for regular transactions,
            ``<unary>`` for unary ones).
        is_unary: unary vs regular.
        finished: set when the transaction ends; SCC detection only
            explores finished transactions.
        out_edges: outgoing cross-thread edges (IDG edges).
        in_edges: incoming cross-thread edges.
        intra_next / intra_prev: the thread's transaction chain; the
            intra-thread edge to the successor captures all intra-thread
            dependences.
        edge_touched: true once any cross-thread edge has this
            transaction as source or sink; used for unary merging.
        log: the read/write log, a list of access tuples (only when
            logging is enabled; see :mod:`repro.core.rwlog`).
        anchors: the IDG edges anchored in the log, one per edge end
            (each counts as a log entry against the memory budgets).
        monitored: false for transactions excluded from analysis during
            the second run of multi-run mode.
    """

    __slots__ = (
        "tx_id",
        "thread_name",
        "method",
        "is_unary",
        "finished",
        "out_edges",
        "in_edges",
        "intra_next",
        "intra_prev",
        "edge_touched",
        "log",
        "anchors",
        "monitored",
        "collected",
        "gc_pmark",
        "gc_emark",
    )

    def __init__(
        self,
        tx_id: int,
        thread_name: str,
        method: str,
        is_unary: bool,
        monitored: bool = True,
    ) -> None:
        self.tx_id = tx_id
        self.thread_name = thread_name
        self.method = method
        self.is_unary = is_unary
        self.finished = False
        self.out_edges: List["IdgEdge"] = []
        self.in_edges: List["IdgEdge"] = []
        self.intra_next: Optional["Transaction"] = None
        self.intra_prev: Optional["Transaction"] = None
        self.edge_touched = False
        self.log = None  # type: ignore[assignment]
        self.anchors = 0
        self.monitored = monitored
        self.collected = False
        # incremental-GC mark words (see repro.core.gc): generation
        # numbers of the collector's persistent alive set and of the
        # per-collect ephemeral trace; stale values are simply ignored
        self.gc_pmark = 0
        self.gc_emark = 0

    def successors(self) -> List["Transaction"]:
        """IDG successors: cross-thread edge sinks plus the intra next."""
        succ = [edge.dst for edge in self.out_edges]
        if self.intra_next is not None:
            succ.append(self.intra_next)
        return succ

    def has_cross_edges(self) -> bool:
        return bool(self.out_edges or self.in_edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "unary" if self.is_unary else "regular"
        state = "finished" if self.finished else "active"
        return f"<Tx#{self.tx_id} {kind} {self.method} on {self.thread_name} ({state})>"

    def __hash__(self) -> int:
        return self.tx_id

    def __eq__(self, other: object) -> bool:
        return self is other


@dataclass(slots=True)
class IdgEdge:
    """A cross-thread edge of the imprecise dependence graph.

    ``seq`` is the executor sequence number of the access whose barrier
    created an ICD edge, which anchors the edge in both transactions'
    logs (Section 3.2.4): each log's accesses logged before the edge
    have lower seqs and those logged after it no lower seq, so replaying
    accesses in seq order satisfies the anchor (see
    :mod:`repro.core.rwlog`).
    Velodrome's edges leave it ``None``.
    """

    src: Transaction
    dst: Transaction
    kind: str
    order: int
    seq: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Edge#{self.order} {self.kind} Tx{self.src.tx_id}->Tx{self.dst.tx_id}>"


@dataclass
class TransactionStats:
    """Counters reproducing Table 3's transaction columns."""

    regular_transactions: int = 0
    unary_transactions: int = 0
    regular_accesses: int = 0
    unary_accesses: int = 0
    skipped_accesses: int = 0
    unmonitored_transactions: int = 0


class TransactionManager:
    """Demarcates transactions from method and access events.

    Args:
        spec: the atomicity specification.
        monitor_regular: predicate deciding whether a regular
            transaction for a given method is monitored (the second run
            of multi-run mode passes the first run's static set; all
            other configurations monitor everything).
        monitor_unary: whether unary transactions are instrumented
            (the second run passes the first run's boolean).
        on_transaction_end: callback fired when a monitored transaction
            finishes — ICD hooks cycle detection here.
        on_transaction_start: optional callback on transaction start.
        merge_unary: merge consecutive unary transactions not
            interrupted by a cross-thread edge (the paper's
            optimization, on by default; off = one transaction per
            non-transactional access, the ablation baseline).
    """

    def __init__(
        self,
        spec: AtomicitySpecification,
        monitor_regular: Optional[Callable[[str], bool]] = None,
        monitor_unary: bool = True,
        on_transaction_end: Optional[Callable[[Transaction], None]] = None,
        on_transaction_start: Optional[Callable[[Transaction], None]] = None,
        merge_unary: bool = True,
        monitor_unary_site: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.spec = spec
        self._monitor_regular = monitor_regular or (lambda _m: True)
        self._monitor_unary = monitor_unary
        self._on_end = on_transaction_end
        self._on_start = on_transaction_start
        self._merge_unary = merge_unary
        #: extension: restrict unary instrumentation to accesses inside
        #: specific enclosing methods (see repro.core.static_info)
        self._monitor_unary_site = monitor_unary_site
        self._ids = itertools.count(1)
        #: per-thread current transaction (None between transactions)
        self._current: Dict[str, Transaction] = {}
        #: per-thread most recent transaction, current or finished
        self._latest: Dict[str, Transaction] = {}
        #: per-thread (method, depth) at which the active regular
        #: transaction was started; None when not in an atomic region
        self._regular_frame: Dict[str, tuple[str, int]] = {}
        self.stats = TransactionStats()
        #: all transactions ever created, in creation order (the harness
        #: and PCD-only mode iterate this; GC may mark entries collected)
        self.all_transactions: List[Transaction] = []

    # ------------------------------------------------------------------
    # method events
    # ------------------------------------------------------------------
    def on_method_enter(self, thread: str, method: str, depth: int) -> None:
        """Start a regular transaction at the outermost atomic method."""
        if thread in self._regular_frame:
            return  # already inside an atomic region; nested calls merge
        if not self.spec.is_atomic(method):
            return
        self._regular_frame[thread] = (method, depth)
        monitored = self._monitor_regular(method)
        self._end_current(thread)
        tx = self._start(thread, method, is_unary=False, monitored=monitored)
        if monitored:
            self.stats.regular_transactions += 1
        else:
            self.stats.unmonitored_transactions += 1
        del tx  # started; nothing else to do

    def on_method_exit(self, thread: str, method: str, depth: int) -> None:
        """End the regular transaction at its owning frame's exit."""
        frame = self._regular_frame.get(thread)
        if frame is None:
            return
        if frame == (method, depth):
            del self._regular_frame[thread]
            self._end_current(thread)

    def on_thread_end(self, thread: str) -> None:
        """Close the thread's current transaction, if any."""
        self._regular_frame.pop(thread, None)
        self._end_current(thread)

    def finish_all(self) -> None:
        """Close every still-open transaction (execution end)."""
        for thread in list(self._current):
            self._end_current(thread)

    # ------------------------------------------------------------------
    # access demarcation
    # ------------------------------------------------------------------
    def transaction_for_access(self, event: AccessEvent) -> Optional[Transaction]:
        """Return the transaction this access executes in.

        Returns ``None`` when the access must not be instrumented at
        all (unmonitored regular transaction whose method the first run
        did not implicate, or unary context with unary monitoring off).
        Instrumented accesses are counted for Table 3.
        """
        return self.transaction_for_fields(event.thread_name, event.site)

    def transaction_for_fields(self, thread: str, site) -> Optional[Transaction]:
        """:meth:`transaction_for_access` on unpacked event fields.

        The batched executor's column barrier calls this directly with
        the thread name and interned :class:`~repro.runtime.events.Site`
        so no :class:`AccessEvent` has to be materialized on the fast
        path; only ``site.method`` is consulted (for the unary-site
        filter).
        """
        current = self._current.get(thread)
        if current is not None and not current.is_unary:
            if not current.monitored:
                self.stats.skipped_accesses += 1
                return None
            self.stats.regular_accesses += 1
            return current
        if not self._monitor_unary:
            self.stats.skipped_accesses += 1
            return None
        if self._monitor_unary_site is not None and not self._monitor_unary_site(
            site.method
        ):
            self.stats.skipped_accesses += 1
            return None
        if (
            self._merge_unary
            and current is not None
            and current.is_unary
            and not current.edge_touched
        ):
            # merge into the running unary transaction
            self.stats.unary_accesses += 1
            return current
        # either no current transaction or the unary was interrupted by
        # a cross-thread edge: start a fresh unary transaction
        self._end_current(thread)
        tx = self._start(thread, UNARY_METHOD, is_unary=True, monitored=True)
        self.stats.unary_transactions += 1
        self.stats.unary_accesses += 1
        return tx

    def current_or_latest(self, thread: str) -> Optional[Transaction]:
        """The thread's current transaction, or its most recent one.

        ICD uses this as the source of cross-thread edges when the
        responding thread sits between transactions: the intra-thread
        chain makes an edge from the latest transaction sound.
        """
        current = self._current.get(thread)
        if current is not None:
            return current
        return self._latest.get(thread)

    def end_if_interrupted_unary(self, tx: Transaction) -> None:
        """Eagerly end a unary transaction a cross-thread edge touched.

        An edge-touched unary transaction can never absorb another
        access (merging stops at edges), so it is finished the moment
        the edge lands.  Ending it eagerly matters for memory: a thread
        blocked for a long time (e.g., a main thread joining workers)
        otherwise keeps an *active* unary transaction whose cone pins
        the whole transaction graph.  The responder is at a safe point
        during coordination, so this is the natural place.
        """
        if (
            tx.is_unary
            and not tx.finished
            and self._current.get(tx.thread_name) is tx
        ):
            self._end_current(tx.thread_name)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _start(
        self, thread: str, method: str, is_unary: bool, monitored: bool
    ) -> Transaction:
        tx = Transaction(next(self._ids), thread, method, is_unary, monitored)
        previous = self._latest.get(thread)
        if previous is not None:
            previous.intra_next = tx
            tx.intra_prev = previous
        self._current[thread] = tx
        self._latest[thread] = tx
        self.all_transactions.append(tx)
        if self._on_start is not None:
            self._on_start(tx)
        return tx

    def _end_current(self, thread: str) -> None:
        current = self._current.pop(thread, None)
        if current is None:
            return
        current.finished = True
        if self._on_end is not None and current.monitored:
            self._on_end(current)

    # ------------------------------------------------------------------
    def live_transactions(self) -> List[Transaction]:
        """Currently open transactions (GC roots)."""
        return list(self._current.values())

    def latest_transactions(self) -> List[Transaction]:
        """Most recent transaction per thread (GC roots too: the
        thread's current-transaction reference keeps it alive)."""
        return list(self._latest.values())
