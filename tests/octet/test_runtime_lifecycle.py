"""Octet runtime details: allocation states, sync pseudo-accesses,
ownership round trips."""

import itertools

from repro.octet.runtime import OctetRuntime
from repro.octet.states import StateKind
from repro.octet.transitions import TransitionKind
from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.heap import Heap

_seq = itertools.count(1)


def event(obj, thread, kind, is_sync=False):
    return AccessEvent(
        seq=next(_seq), thread_name=thread, obj=obj, fieldname="f",
        kind=kind, is_sync=is_sync, is_array=False, site=Site("m", 0),
    )


def test_sync_accesses_drive_states_like_data_accesses():
    """Acquire/release pseudo-accesses move the lock object's state,
    so lock hand-offs create the happens-before edges ICD rides on."""
    runtime = OctetRuntime(live_threads=lambda: ["T1", "T2"])
    lock = Heap().alloc("lock")
    runtime.observe(event(lock, "T1", AccessKind.READ, is_sync=True))   # acq
    runtime.observe(event(lock, "T1", AccessKind.WRITE, is_sync=True))  # rel
    assert runtime.state_of(lock.oid).owner == "T1"
    kind = runtime.observe(
        event(lock, "T2", AccessKind.READ, is_sync=True)                # acq
    )
    assert kind is TransitionKind.CONFLICTING_WR_RD
    assert runtime.state_of(lock.oid).owner == "T2"


def test_ownership_round_trip_returns_to_original_thread():
    runtime = OctetRuntime(live_threads=lambda: ["T1", "T2"])
    obj = Heap().alloc("o")
    runtime.observe(event(obj, "T1", AccessKind.WRITE))
    runtime.observe(event(obj, "T2", AccessKind.WRITE))
    kind = runtime.observe(event(obj, "T1", AccessKind.WRITE))
    assert kind is TransitionKind.CONFLICTING_WR_WR
    state = runtime.state_of(obj.oid)
    assert state.kind is StateKind.WR_EX and state.owner == "T1"


def test_rdsh_object_can_return_to_exclusive_and_share_again():
    runtime = OctetRuntime(live_threads=lambda: ["T1", "T2", "T3"])
    obj = Heap().alloc("o")
    runtime.observe(event(obj, "T1", AccessKind.READ))   # RdEx(T1)
    runtime.observe(event(obj, "T2", AccessKind.READ))   # RdSh(1)
    runtime.observe(event(obj, "T3", AccessKind.WRITE))  # WrEx(T3)
    runtime.observe(event(obj, "T1", AccessKind.READ))   # RdEx(T1)
    kind = runtime.observe(event(obj, "T2", AccessKind.READ))  # RdSh(2)
    assert kind is TransitionKind.UPGRADING_RD_SH
    assert runtime.state_of(obj.oid).counter == 2


def test_distinct_objects_have_independent_states():
    runtime = OctetRuntime(live_threads=lambda: ["T1", "T2"])
    heap = Heap()
    a, b = heap.alloc("a"), heap.alloc("b")
    runtime.observe(event(a, "T1", AccessKind.WRITE))
    runtime.observe(event(b, "T2", AccessKind.WRITE))
    assert runtime.state_of(a.oid).owner == "T1"
    assert runtime.state_of(b.oid).owner == "T2"
    assert runtime.stats.conflicting == 0


def test_atomic_operation_accounting():
    """Every non-fast-path state change costs at least one atomic op
    (the intermediate-state claim or the counter increment)."""
    runtime = OctetRuntime(live_threads=lambda: ["T1", "T2"])
    obj = Heap().alloc("o")
    runtime.observe(event(obj, "T1", AccessKind.READ))    # initial: free
    assert runtime.stats.atomic_operations == 0
    runtime.observe(event(obj, "T1", AccessKind.WRITE))   # upgrade WrEx
    assert runtime.stats.atomic_operations == 1
    runtime.observe(event(obj, "T2", AccessKind.WRITE))   # conflicting
    assert runtime.stats.atomic_operations >= 2
