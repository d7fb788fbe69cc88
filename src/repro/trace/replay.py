"""Replaying recorded traces through analysis listeners.

Checkers never dereference program values — they consume object
identities, field names, access kinds and method boundaries — so a
replay can reconstruct lightweight object shims and drive the same
listener interface the live executor drives — accesses included,
through the same :meth:`ListenerPipeline.access_barrier` — so an online
checker run over a replayed trace produces exactly the result it
produced online (``tests/trace/test_replay.py`` pins this).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.runtime.events import AccessKind, Site, intern_site
from repro.runtime.listeners import ExecutionListener, ListenerPipeline
from repro.trace.recorder import ACCESS, END, ENTER, EXIT, START, Trace


class _ObjectShim:
    """Stands in for a heap object during replay (identity only)."""

    __slots__ = ("oid", "label")

    def __init__(self, oid: int, label: str) -> None:
        self.oid = oid
        self.label = label

    def __hash__(self) -> int:
        return self.oid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ObjectShim) and other.oid == self.oid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<shim #{self.oid} {self.label!r}>"


def replay_trace(
    trace: Trace, listeners: Iterable[ExecutionListener]
) -> None:
    """Dispatch every recorded event to ``listeners`` in order."""
    pipeline = ListenerPipeline(list(listeners))
    emit = pipeline.access_barrier()
    shims: Dict[int, _ObjectShim] = {}
    # the barrier's interned fields, as the executor's tables hold them
    addresses: Dict[Tuple[int, str], Tuple[int, str]] = {}
    site_strs: Dict[Site, str] = {}

    for record in trace.records:
        kind = record[0]
        if kind == ACCESS:
            (
                _k,
                seq,
                thread,
                oid,
                label,
                fieldname,
                access_kind,
                is_sync,
                is_array,
                site_method,
                site_index,
            ) = record
            shim = shims.get(oid)
            if shim is None:
                shim = _ObjectShim(oid, label)
                shims[oid] = shim
            address = (oid, fieldname)
            address = addresses.setdefault(address, address)
            site = intern_site(site_method, site_index)
            site_str = site_strs.get(site)
            if site_str is None:
                site_str = site_strs[site] = str(site)
            emit(
                seq, thread, shim, fieldname, AccessKind(access_kind), site,
                address, site_str, bool(is_array), bool(is_sync),
            )
        elif kind == ENTER:
            pipeline.on_method_enter(record[1], record[2], record[3])
        elif kind == EXIT:
            pipeline.on_method_exit(record[1], record[2], record[3])
        elif kind == START:
            pipeline.on_thread_start(record[1])
        elif kind == END:
            pipeline.on_thread_end(record[1])
        else:  # pragma: no cover - corrupted input
            raise ValueError(f"unknown trace record kind: {kind!r}")
    pipeline.on_execution_end()
