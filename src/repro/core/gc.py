"""Transaction-graph garbage collection.

The paper relies on the JVM's garbage collector: "Transactions and
their read/write logs are regular Java objects ... so garbage
collection naturally collects them as they become transitively
unreachable from each thread's current transaction reference"
(Section 4).  We reproduce the effect with an explicit mark-sweep over
the transaction graph.

**Liveness rule.**  A finished transaction ``O`` can still matter only
if it can appear in a *future* IDG cycle.  Edges into a transaction are
only ever added while it is its thread's current (or latest)
transaction, and the destination of every future edge is a transaction
that is active at that time.  A future cycle must therefore enter its
old members through a forward path that begins at a transaction that
can still *be entered* — each thread's current/latest transaction (to
whose intra-chain all future transactions attach).  Hence:
**alive = forward-reachable from the per-thread latest transactions**
(over cross-thread out-edges and intra-thread successor links).

ICD's ``T.lastRdEx`` and ``gLastRdSh`` references can still become
edge *sources*, so those transactions are **pinned** — kept alive as
bare nodes — but *not traversed*: a pinned transaction that is outside
the latest-cone can never be re-entered, so nothing it references can
join a future cycle.  (Traversing pinned roots would pin every
transaction newer than the stalest reference via its intra chain,
defeating collection — the bug this distinction fixes.)

Everything else is swept, together with its read/write log.  The rule
is exercised in ``tests/core/test_gc.py`` and by end-to-end tests that
compare violation detection with and without collection.

**One mark for every analysis.**  ICD, Velodrome and vc all collect
through :meth:`TransactionCollector.collect`, which marks
incrementally.  Re-tracing every root's full forward cone on every
collection would be the dominant cost on workloads where one very
long transaction anchors a huge, still-growing history (the hubstress
warden): the same tens of thousands of nodes would be re-marked every
64 transaction ends.  Instead the collector keeps a
*persistent* alive set ``S``:

* ``S`` is the exact forward closure of a set of *cached roots*, all of
  which are still-unfinished transactions.  A root is promoted into the
  cache (and its cone traced once, into ``S``) after it has been a root
  for two consecutive collections — churning short transactions never
  pay for a persistent trace.
* The graph only ever *grows* between collections (links are added;
  nodes are unlinked only when swept, and then only dead↔alive links
  are touched), so ``S`` stays closed by replaying the links added
  since the last collection: a link from inside ``S`` to a node outside
  it extends ``S`` by that node's current forward cone.  Links from
  outside ``S`` are discarded — if their source is promoted later, the
  promotion walks the current graph and picks the target up then.  The
  analyses report each cross edge as they append it
  (:meth:`TransactionCollector.note_link`); the intra-thread links are
  replayed by the collector itself, from the transactions started since
  its last collection (the tail of ``manager.all_transactions``), so no
  analysis has an intra-link rule it could forget.
* The moment any cached root finishes, ``S`` is invalidated wholesale
  (a generation-number bump; nodes are lazily unmarked), because a
  finished root no longer keeps its cone alive.

Roots not covered by ``S`` are traced *ephemerally* per collection,
with the walk short-circuiting at the ``S`` boundary.  Alive =
``S`` ∪ ephemeral cones ∪ pins — exactly the alive set of a
from-scratch mark, because the cached roots are a subset of the current
roots and cone union is monotone (``tests/core/test_gc_properties.py``
checks every collection against such a mark).  Membership is recorded
as generation numbers on the transaction (``gc_pmark``/``gc_emark``),
so invalidation is O(1) and no per-collect set is allocated.  Exact
alive counts let the sweep be skipped entirely when nothing died.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set

from repro.core.transactions import Transaction, TransactionManager


@dataclass
class GcStats:
    """Collection statistics (memory-footprint proxies)."""

    collections: int = 0
    transactions_collected: int = 0
    log_entries_collected: int = 0
    peak_live_transactions: int = 0
    peak_live_log_entries: int = 0


class TransactionCollector:
    """Mark-sweep collector for a checker's transaction graph."""

    def __init__(self, manager: TransactionManager) -> None:
        self._manager = manager
        self.stats = GcStats()
        #: log entries (accesses and edge anchors, see
        #: :attr:`Transaction.anchors`) swept by the most recent
        #: :meth:`collect` — lets
        #: clients that count appends incrementally (ICD) subtract the
        #: swept entries instead of re-summing every live log
        self.last_swept_log_entries = 0
        #: tx ids swept by the most recent :meth:`collect`, in
        #: population order — lets clients retire exactly the collected
        #: nodes (e.g. their transaction clocks) without re-scanning
        #: the whole pre-collect population for ``collected`` flags
        self.last_swept_ids: List[int] = []
        self._pending_links: List[tuple] = []
        #: length of ``manager.all_transactions`` after the last
        #: collection: the transactions past it started since, and
        #: their intra-thread links are still to replay
        self._replayed = 0
        self._cached_roots: List[Transaction] = []
        self._prev_root_ids: Set[int] = set()
        # generations start at 1: a fresh transaction's mark words are
        # 0, which must never compare equal to a live generation
        self._pgen = 1  # persistent alive-set generation
        self._egen = 0  # per-collect ephemeral generation (pre-increment)
        self._persistent_count = 0

    # ------------------------------------------------------------------
    def note_link(self, src: Transaction, dst: Transaction) -> None:
        """Record a cross edge ``src -> dst`` the analysis just added.

        Every analysis must report every cross edge: the pending links
        are replayed at the next collection to keep the persistent
        alive set forward-closed.
        """
        self._pending_links.append((src, dst))

    # ------------------------------------------------------------------
    def collect(self, pinned: Iterable[Transaction] = ()) -> int:
        """Collect dead transactions; returns how many were swept.

        Traversal roots are the *unfinished* (current) transactions:
        in-edges only ever attach to active transactions, so any future
        cycle's members lie in the static forward cone of some
        currently-unfinished transaction.  The per-thread latest
        (possibly finished) transactions are pinned as future edge
        sources but not traversed.

        Args:
            pinned: transactions kept alive as bare nodes without cone
                traversal (ICD passes ``lastRdEx`` values and
                ``gLastRdSh`` — still potential edge sources;
                Velodrome's field metadata is *weak* and deliberately
                not pinned, per the paper).
        """
        manager = self._manager
        roots = manager.live_transactions()
        extra_pins = manager.latest_transactions()
        population = manager.all_transactions
        self._egen += 1
        egen = self._egen

        # 1. a cached root that finished no longer keeps its cone alive:
        #    drop the whole persistent set (lazy unmark via generation)
        cached = self._cached_roots
        if cached and any(r.finished for r in cached):
            self._pgen += 1
            self._persistent_count = 0
            self._cached_roots = cached = []
            self._pending_links.clear()
        pgen = self._pgen

        # 2. replay the links added since the last collect to keep S
        #    closed: the reported cross edges, then the intra link into
        #    every transaction started since
        pending = self._pending_links
        if pending:
            for src, dst in pending:
                if src.gc_pmark == pgen and dst.gc_pmark != pgen:
                    self._mark_persistent(dst, pgen)
            pending.clear()
        for tx in population[self._replayed:]:
            prev = tx.intra_prev
            if prev is not None and prev.gc_pmark == pgen and tx.gc_pmark != pgen:
                self._mark_persistent(tx, pgen)

        # 3. roots already inside S are covered (S is forward-closed);
        #    roots that were also roots last collect are promoted into
        #    the cache; the rest are traced ephemerally below
        prev_ids = self._prev_root_ids
        volatile: List[Transaction] = []
        for root in roots:
            if root.gc_pmark == pgen:
                continue
            if root.tx_id in prev_ids:
                self._mark_persistent(root, pgen)
                cached.append(root)
            else:
                volatile.append(root)

        ephemeral = 0
        for root in volatile:
            ephemeral += self._mark_ephemeral(root, pgen, egen)

        # 4. pins are kept as bare nodes, never traversed
        for tx in extra_pins:
            if not tx.collected and tx.gc_pmark != pgen and tx.gc_emark != egen:
                tx.gc_emark = egen
                ephemeral += 1
        for tx in pinned:
            if (
                tx is not None
                and not tx.collected
                and tx.gc_pmark != pgen
                and tx.gc_emark != egen
            ):
                tx.gc_emark = egen
                ephemeral += 1

        self._prev_root_ids = {root.tx_id for root in roots}

        # 5. sweep — skipped entirely when the exact alive count says
        #    nothing died (the common case between violation bursts)
        swept = len(population) - self._persistent_count - ephemeral
        log_entries = 0
        swept_ids: List[int] = []
        if swept:
            survivors: List[Transaction] = []
            for tx in population:
                if tx.gc_pmark == pgen or tx.gc_emark == egen:
                    survivors.append(tx)
                    continue
                swept_ids.append(tx.tx_id)
                tx.collected = True
                if tx.log is not None:
                    log_entries += len(tx.log) + tx.anchors
                    tx.log = None
                self._unlink_marked(tx, pgen, egen)
            manager.all_transactions = survivors
        self._replayed = len(manager.all_transactions)

        self.stats.collections += 1
        self.stats.transactions_collected += swept
        self.stats.log_entries_collected += log_entries
        self.last_swept_log_entries = log_entries
        self.last_swept_ids = swept_ids
        return swept

    def _mark_persistent(self, root: Transaction, pgen: int) -> None:
        """Mark ``root``'s forward cone into the persistent set,
        keeping the exact persistent population count current."""
        marked = 0
        frontier = [root]
        while frontier:
            tx = frontier.pop()
            if tx.gc_pmark == pgen:
                continue
            tx.gc_pmark = pgen
            marked += 1
            for edge in tx.out_edges:
                if edge.dst.gc_pmark != pgen:
                    frontier.append(edge.dst)
            nxt = tx.intra_next
            if nxt is not None and nxt.gc_pmark != pgen:
                frontier.append(nxt)
        self._persistent_count += marked

    def _mark_ephemeral(self, root: Transaction, pgen: int, egen: int) -> int:
        """Mark a volatile root's cone, stopping at the S boundary."""
        marked = 0
        frontier = [root]
        while frontier:
            tx = frontier.pop()
            if tx.gc_emark == egen or tx.gc_pmark == pgen:
                continue
            tx.gc_emark = egen
            marked += 1
            for edge in tx.out_edges:
                dst = edge.dst
                if dst.gc_emark != egen and dst.gc_pmark != pgen:
                    frontier.append(dst)
            nxt = tx.intra_next
            if nxt is not None and nxt.gc_emark != egen and nxt.gc_pmark != pgen:
                frontier.append(nxt)
        return marked

    @staticmethod
    def _unlink_marked(tx: Transaction, pgen: int, egen: int) -> None:
        """Remove references between the dead ``tx`` and survivors
        (the nodes carrying this collection's marks)."""
        for edge in tx.out_edges:
            dst = edge.dst
            if dst.gc_pmark == pgen or dst.gc_emark == egen:
                dst.in_edges = [e for e in dst.in_edges if e is not edge]
        for edge in tx.in_edges:
            src = edge.src
            if src.gc_pmark == pgen or src.gc_emark == egen:
                src.out_edges = [e for e in src.out_edges if e is not edge]
        nxt = tx.intra_next
        if nxt is not None and (nxt.gc_pmark == pgen or nxt.gc_emark == egen):
            nxt.intra_prev = None
        prev = tx.intra_prev
        if prev is not None and (prev.gc_pmark == pgen or prev.gc_emark == egen):
            prev.intra_next = None
        tx.out_edges = []
        tx.in_edges = []
        tx.intra_next = None
        tx.intra_prev = None

    # ------------------------------------------------------------------
    def live_transaction_count(self) -> int:
        return len(self._manager.all_transactions)

    def note_peak(self, live_log_entries: int = 0) -> None:
        """Record peak footprint (the analyses call this per collection).

        ``live_log_entries`` is the caller's live log-entry count: ICD
        maintains it incrementally (bumped per append, reduced by
        :attr:`last_swept_log_entries` per collection); the analyses
        whose transactions carry no logs leave it at 0.
        """
        self.stats.peak_live_transactions = max(
            self.stats.peak_live_transactions, self.live_transaction_count()
        )
        self.stats.peak_live_log_entries = max(
            self.stats.peak_live_log_entries, live_log_entries
        )
