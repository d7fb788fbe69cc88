"""Read/write logs (Section 3.2.4).

In single-run mode (and the second run of multi-run mode), ICD records
a read/write log for every transaction: the exact memory accesses the
transaction performed, in order, interleaved with special entries that
anchor the source and sink of each cross-thread IDG edge.  PCD later
replays the logs of an SCC's transactions in an order consistent with
those anchors.

Duplicate-entry elision (Section 4, "Instrumenting program accesses"):
logs are ordered, but duplicate entries with no incoming or outgoing
edges between them can be elided.  ICD tracks, per field, a per-thread
timestamp of the last access and its kind; the thread's timestamp is
incremented whenever a new transaction starts or the current
transaction gains an edge, so an access is elided only when an earlier
access to the same field with the same (or stronger) kind already
appears in the same edge-free window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.runtime.events import AccessEvent, AccessKind


class AccessEntry:
    """One logged access.

    Stores the field address by value (object id + field name), which
    also models the paper's weak-reference scheme: when a logged object
    dies, the real implementation replaces the reference with the old
    field address, "distinguishing the field precisely" — exactly the
    information kept here.

    ``seq`` carries the executor's global sequence number.  PCD uses it
    as a tie-break that is consistent with the edge-anchor partial
    order, and to find where a resumed replay picks up (see
    :mod:`repro.core.pcd` for the discussion).
    """

    __slots__ = ("kind", "oid", "fieldname", "seq", "site", "address")

    def __init__(
        self,
        kind: AccessKind,
        oid: int,
        fieldname: str,
        seq: int,
        site: str,
        address: Optional[Tuple[int, str]] = None,
    ) -> None:
        self.kind = kind
        self.oid = oid
        self.fieldname = fieldname
        self.seq = seq
        self.site = site
        # precomputed once (formerly a property allocating a fresh
        # tuple per call — PCD reads it for every replayed entry); ICD
        # passes its interned (oid, fieldname) tuple so all entries for
        # one field share a single address object
        self.address = (oid, fieldname) if address is None else address

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        letter = "R" if self.kind is AccessKind.READ else "W"
        return f"<{letter} {self.oid}.{self.fieldname} @{self.seq}>"


class EdgeMark:
    """A log entry anchoring one side of a cross-thread IDG edge."""

    __slots__ = ("edge_order", "is_source", "seq")

    def __init__(self, edge_order: int, is_source: bool, seq: int) -> None:
        self.edge_order = edge_order
        self.is_source = is_source
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        side = "src" if self.is_source else "snk"
        return f"<mark e{self.edge_order} {side}>"


class ReadWriteLog:
    """The ordered access log of one transaction.

    Every log is nondecreasing in ``seq``.  Entries are only appended,
    and each carries the seq of the access executing when it is
    appended: an access entry its own, an edge mark that of the access
    whose barrier created the edge (so a sink mark shares its seq with
    the access entry that follows it).  PCD bisects logs on ``seq`` to
    resume a replay.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[object] = []

    def append_access(
        self,
        kind: AccessKind,
        oid: int,
        fieldname: str,
        seq: int,
        site: str,
        address: Optional[Tuple[int, str]] = None,
    ) -> int:
        """Append an access entry; returns its index."""
        self.entries.append(AccessEntry(kind, oid, fieldname, seq, site, address))
        return len(self.entries) - 1

    def append_mark(self, edge_order: int, is_source: bool, seq: int) -> int:
        """Append an edge anchor; returns its index."""
        self.entries.append(EdgeMark(edge_order, is_source, seq))
        return len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)

    def access_count(self) -> int:
        return sum(1 for e in self.entries if isinstance(e, AccessEntry))


@dataclass
class ElisionStats:
    """How much logging the elision optimization avoided."""

    logged: int = 0
    elided: int = 0


class ElisionFilter:
    """Implements the per-field, per-thread timestamp elision scheme.

    The last-access table is a per-thread dict keyed by the field
    address, so the hot check (:meth:`should_log_addr`) is two dict
    probes on an interned address — no per-access key-tuple allocation.
    """

    def __init__(self) -> None:
        self._thread_ts: Dict[str, int] = {}
        #: thread -> {(oid, field) -> (timestamp, kind of last logged access)}
        self._last_by_thread: Dict[
            str, Dict[Tuple[int, str], Tuple[int, AccessKind]]
        ] = {}
        self.stats = ElisionStats()

    def bump(self, thread: str) -> None:
        """Increment the thread's timestamp (new transaction or edge)."""
        self._thread_ts[thread] = self._thread_ts.get(thread, 0) + 1

    def should_log(self, thread: str, oid: int, fieldname: str, kind: AccessKind) -> bool:
        """Decide whether an access must be logged.

        An access is elided when the same thread already logged an
        access to the same field within the current timestamp window and
        that earlier access was of the same kind, or was a write and the
        new access is a read (a read adds no ordering information beyond
        the write that precedes it in the same edge-free window).
        """
        return self.should_log_addr(thread, (oid, fieldname), kind)

    def should_log_addr(
        self, thread: str, address: Tuple[int, str], kind: AccessKind
    ) -> bool:
        """:meth:`should_log` on a prebuilt (interned) field address."""
        per_thread = self._last_by_thread.get(thread)
        if per_thread is None:
            per_thread = self._last_by_thread[thread] = {}
        ts = self._thread_ts.get(thread, 0)
        last = per_thread.get(address)
        if last is not None:
            last_ts, last_kind = last
            if last_ts == ts and (
                last_kind is kind or last_kind is AccessKind.WRITE
            ):
                self.stats.elided += 1
                return False
        per_thread[address] = (ts, kind)
        self.stats.logged += 1
        return True
