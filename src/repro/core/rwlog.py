"""Read/write logs (Section 3.2.4).

In single-run mode (and the second run of multi-run mode), ICD records
a read/write log for every transaction: the exact memory accesses the
transaction performed, in order.  Each cross-thread IDG edge is
anchored in the logs of both its transactions; PCD later replays the
accesses of an SCC's transactions in seq order, which satisfies those
anchors.  Every access is logged, but PCD replays only those to
objects that took a conflicting Octet transition, plus each
transaction's first access (see :mod:`repro.core.pcd`).

**Layout.**  A transaction's ``log`` is a plain ``list`` of access
tuples ``(seq, address, is_write, site)``: the executor's global
sequence number, the executor's interned ``(oid, fieldname)`` field
address, whether the access wrote, and the executor's interned site
string.  The fused barrier and the slow path log the values the
barrier was called with, so one field is one tuple object in every log
(an object-granularity array logs its own ``(oid, "*")``).

The address is stored by value, which also models the paper's
weak-reference scheme: when a logged object dies, the real
implementation replaces the reference with the old field address,
"distinguishing the field precisely" — exactly the information kept
here.  Every item of an entry is an int, a bool, a str or the address
(a tuple of an int and a str).  CPython's cyclic collector stops
tracking a tuple in the first collection that examines it once its
items are untracked: the address in its first collection, an entry
within two.  After that it never traverses the logs, which single-run
mode keeps by the hundred thousand.

**Anchors.**  An edge's anchor is the seq of the access whose barrier
created it (:attr:`~repro.core.transactions.IdgEdge.seq`): every access
either log holds before the edge has a lower seq, and every access
logged after it (the sink's creating access first) has no lower seq.
So replaying accesses in seq order satisfies every anchor, and the
logs hold no entry for the anchors themselves.  Each transaction counts
its anchors (:attr:`~repro.core.transactions.Transaction.anchors`),
one per edge end, since an anchor is a log entry for the memory
budgets of ICD and PCD, for the collector's swept count and for
``ICDStats.log_marks``.

Every log is nondecreasing in ``seq``: entries are only appended, and
each carries the seq of the access executing when it is appended.  PCD
relies on it to take a log's first entry as the transaction's first
access and to resume a replay at a seq cut (see :mod:`repro.core.pcd`).

Duplicate-entry elision (Section 4, "Instrumenting program accesses"):
logs are ordered, but duplicate entries with no incoming or outgoing
edges between them can be elided.  ICD tracks, per field, a per-thread
timestamp of the last access and its kind, packed into one int; the
thread's timestamp is incremented whenever a new transaction starts or
the current transaction gains an edge, so an access is elided only
when an earlier access to the same field with the same (or stronger)
kind already appears in the same edge-free window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass
class ElisionStats:
    """How much logging the elision optimization avoided."""

    logged: int = 0
    elided: int = 0


class ElisionFilter:
    """Implements the per-field, per-thread timestamp elision scheme.

    The last-access table is a per-thread dict keyed by the field
    address, so the hot check (:meth:`should_log_addr`) is two dict
    probes on an interned address.  It stores one int per field,
    ``2 * timestamp + is_write`` of the last logged access, so a
    logged access allocates nothing here.  A thread's timestamp never
    decreases, so an access is elided exactly when the stored int is
    at least ``2 * timestamp + is_write``: the same window, and a write
    there already or a read now.
    """

    def __init__(self) -> None:
        self._thread_ts: Dict[str, int] = {}
        #: thread -> {(oid, field) -> 2 * timestamp + is_write of the
        #: last logged access}
        self._last_by_thread: Dict[str, Dict[Tuple[int, str], int]] = {}
        self.stats = ElisionStats()

    def bump(self, thread: str) -> None:
        """Increment the thread's timestamp (new transaction or edge)."""
        self._thread_ts[thread] = self._thread_ts.get(thread, 0) + 1

    def should_log(self, thread: str, oid: int, fieldname: str, is_write: bool) -> bool:
        """Decide whether an access must be logged.

        An access is elided when the same thread already logged an
        access to the same field within the current timestamp window and
        that earlier access was of the same kind, or was a write and the
        new access is a read (a read adds no ordering information beyond
        the write that precedes it in the same edge-free window).
        """
        return self.should_log_addr(thread, (oid, fieldname), is_write)

    def should_log_addr(
        self, thread: str, address: Tuple[int, str], is_write: bool
    ) -> bool:
        """:meth:`should_log` on a prebuilt (interned) field address."""
        per_thread = self._last_by_thread.get(thread)
        if per_thread is None:
            per_thread = self._last_by_thread[thread] = {}
        key = 2 * self._thread_ts.get(thread, 0) + is_write
        if per_thread.get(address, -1) >= key:
            self.stats.elided += 1
            return False
        per_thread[address] = key
        self.stats.logged += 1
        return True
