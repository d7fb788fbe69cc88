"""Events the executor dispatches to attached analyses.

The central event is :class:`AccessEvent`.  Following the paper
(Section 3.2.2, "Handling synchronization operations"), synchronization
operations are presented to the checkers as accesses: acquire-like
operations (lock acquire, monitor re-entry after ``wait``, the child
side of ``fork``, the parent side of ``join``) are **reads** of the
object being synchronized on, and release-like operations (lock
release, ``wait``'s release, the parent side of ``fork``, thread
termination observed by ``join``) are **writes**.  The ``is_sync`` flag
distinguishes them where a client cares (e.g., Table 3 counts program
accesses, not synthesized synchronization accesses).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, Tuple


class AccessKind(enum.Enum):
    """Whether an access reads or writes shared state."""

    READ = "read"
    WRITE = "write"


class Site:
    """A static program location: method name plus operation ordinal.

    Sites identify *static* transactions (multi-run mode communicates
    method start locations between runs) and static violation reports
    (Table 2 counts methods blamed at least once).

    A ``__slots__`` value type rather than a dataclass: one is built
    for every dynamic access, so construction cost is on the hot path.
    Treat instances as immutable.
    """

    __slots__ = ("method", "index")

    def __init__(self, method: str, index: int = 0) -> None:
        self.method = method
        self.index = index

    def __eq__(self, other: object) -> bool:
        return (
            other.__class__ is Site
            and self.method == other.method
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.method, self.index))

    def __repr__(self) -> str:
        return f"Site(method={self.method!r}, index={self.index!r})"

    def __str__(self) -> str:
        return f"{self.method}@{self.index}"

    def __getstate__(self) -> Tuple[str, int]:
        return (self.method, self.index)

    def __setstate__(self, state: Tuple[str, int]) -> None:
        self.method, self.index = state


#: process-wide site intern table: sites are value types keyed by
#: ``(method, index)``, and the set of distinct sites is bounded by the
#: program text, so canonical instances can be shared freely — the
#: executor, the lowering pass, and ICD's site-string table all probe
#: with the same object, making every downstream hash hit cheap
_SITE_INTERN: dict = {}


def intern_site(method: str, index: int = 0) -> Site:
    """The canonical :class:`Site` for a ``(method, index)`` location.

    The executor's generator path and the lowered column tables both
    use this, so they share identical instances (not merely equal
    values).  Interning changes object identity only; all comparisons
    remain by value.
    """
    key = (method, index)
    site = _SITE_INTERN.get(key)
    if site is None:
        site = _SITE_INTERN[key] = Site(method, index)
    return site


# Pseudo-field names used when synchronization is modelled as an access.
LOCK_FIELD = "<monitor>"
THREAD_FIELD = "<thread>"


class AccessEvent:
    """One dynamic shared-memory access (or synchronization pseudo-access).

    A ``__slots__`` structure rather than a frozen dataclass: the
    executor allocates one per access, making construction cost part of
    every barrier.  Instances are immutable by convention — listeners
    must never mutate an event they receive.

    Attributes:
        seq: global sequence number assigned by the executor, the true
            execution order.  ICD stamps every log entry with it and
            anchors every IDG edge at the seq of the access that
            created it, PCD replays a component's accesses in seq
            order and rolls a kept replay back to a seq cut to resume
            it, and ``UnsoundVelodrome``'s race model counts its window
            in seqs.  Seq-order replay is sound: seq order is one
            linearization the edges' anchors allow, and Octet's
            happens-before makes every such linearization order
            conflicting accesses alike (see :mod:`repro.core.rwlog`
            and :mod:`repro.core.pcd`).
        thread_name: the accessing thread.
        obj: the :class:`~repro.runtime.heap.SharedObject` or
            :class:`~repro.runtime.heap.SharedArray` accessed.
        fieldname: field name, ``<monitor>``/``<thread>`` for sync
            pseudo-accesses, or ``[i]`` strings for array elements when
            element granularity is in effect.
        kind: read or write.
        is_sync: true for synchronization pseudo-accesses.
        is_array: true for array element accesses.
        site: static location of the access.
        address: field-granularity address, ``(obj.oid, fieldname)``.
            A barrier passes the executor's interned tuple, so every
            access to one field carries the same tuple object.
        site_str: ``str(site)``, likewise the executor's interned
            string when a barrier passes it.
    """

    __slots__ = (
        "seq",
        "thread_name",
        "obj",
        "fieldname",
        "kind",
        "is_sync",
        "is_array",
        "site",
        "address",
        "site_str",
    )

    def __init__(
        self,
        seq: int,
        thread_name: str,
        obj: Any,
        fieldname: str,
        kind: AccessKind,
        is_sync: bool,
        is_array: bool,
        site: Site,
        address: Optional[Tuple[int, str]] = None,
        site_str: Optional[str] = None,
    ) -> None:
        self.seq = seq
        self.thread_name = thread_name
        self.obj = obj
        self.fieldname = fieldname
        self.kind = kind
        self.is_sync = is_sync
        self.is_array = is_array
        self.site = site
        self.address = (obj.oid, fieldname) if address is None else address
        self.site_str = str(site) if site_str is None else site_str

    def _key(self) -> Tuple[Any, ...]:
        return (
            self.seq,
            self.thread_name,
            self.obj,
            self.fieldname,
            self.kind,
            self.is_sync,
            self.is_array,
            self.site,
        )

    def __eq__(self, other: object) -> bool:
        return other.__class__ is AccessEvent and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"AccessEvent(seq={self.seq!r}, thread_name={self.thread_name!r}, "
            f"obj={self.obj!r}, fieldname={self.fieldname!r}, kind={self.kind!r}, "
            f"is_sync={self.is_sync!r}, is_array={self.is_array!r}, "
            f"site={self.site!r})"
        )

    def __getstate__(self) -> Tuple[Any, ...]:
        return self._key() + (self.address, self.site_str)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        (
            self.seq,
            self.thread_name,
            self.obj,
            self.fieldname,
            self.kind,
            self.is_sync,
            self.is_array,
            self.site,
            self.address,
            self.site_str,
        ) = state

    @property
    def object_address(self) -> Tuple[int, str]:
        """Object-granularity address, conflating all fields.

        Used by the array-instrumentation experiment, which conflates
        all elements of an array by using array-level metadata.
        """
        return (self.obj.oid, "*")

    def is_read(self) -> bool:
        return self.kind is AccessKind.READ

    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE


@dataclass(frozen=True)
class MethodEvent:
    """Method entry or exit on a thread."""

    thread_name: str
    method: str
    depth: int


@dataclass(frozen=True)
class ThreadEvent:
    """Thread start or termination."""

    thread_name: str


__all__ = [
    "AccessEvent",
    "AccessKind",
    "LOCK_FIELD",
    "MethodEvent",
    "Site",
    "THREAD_FIELD",
    "ThreadEvent",
    "intern_site",
]
