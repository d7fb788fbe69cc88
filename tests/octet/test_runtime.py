"""OctetRuntime: state table maintenance, counters, listener hooks."""

import itertools

import pytest

from repro.octet.runtime import OctetListener, OctetRuntime
from repro.octet.states import StateKind, rd_sh, wr_ex
from repro.octet.transitions import TransitionKind
from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.heap import Heap

_seq = itertools.count(1)


def make_event(obj, thread, kind):
    return AccessEvent(
        seq=next(_seq),
        thread_name=thread,
        obj=obj,
        fieldname="f",
        kind=kind,
        is_sync=False,
        is_array=False,
        site=Site("m", 0),
    )


class Hooks(OctetListener):
    def __init__(self):
        self.calls = []

    def on_conflicting(self, thread, responders, is_read):
        self.calls.append(("conflicting", thread, list(responders), is_read))

    def on_upgrading_rd_sh(self, thread, prior_owner, counter):
        self.calls.append(("up_rdsh", thread, prior_owner, counter))

    def on_fence(self, thread, counter):
        self.calls.append(("fence", thread, counter))


@pytest.fixture
def runtime_and_hooks():
    live = ["T1", "T2", "T3"]
    runtime = OctetRuntime(live_threads=lambda: live)
    hooks = Hooks()
    runtime.add_listener(hooks)
    return runtime, hooks


@pytest.fixture
def obj():
    return Heap().alloc("o")


def read(runtime, obj, thread):
    return runtime.observe(make_event(obj, thread, AccessKind.READ))


def write(runtime, obj, thread):
    return runtime.observe(make_event(obj, thread, AccessKind.WRITE))


def test_first_write_installs_wrex(runtime_and_hooks, obj):
    runtime, hooks = runtime_and_hooks
    assert write(runtime, obj, "T1") is TransitionKind.INITIAL
    assert runtime.state_of(obj.oid) == wr_ex("T1")
    # an initial transition carries no dependence: no hook fires
    assert hooks.calls == []


def test_owner_accesses_take_fast_path(runtime_and_hooks, obj):
    runtime, hooks = runtime_and_hooks
    write(runtime, obj, "T1")
    for _ in range(5):
        assert read(runtime, obj, "T1") is TransitionKind.SAME_STATE
    assert runtime.stats.fast_path == 5
    assert runtime.stats.barriers == 6
    assert hooks.calls == []


def test_conflicting_read_moves_ownership(runtime_and_hooks, obj):
    runtime, hooks = runtime_and_hooks
    write(runtime, obj, "T1")
    assert read(runtime, obj, "T2") is TransitionKind.CONFLICTING_WR_RD
    # the prior owner is the one responder
    assert hooks.calls == [("conflicting", "T2", ["T1"], True)]
    assert runtime.state_of(obj.oid).owner == "T2"
    assert runtime.state_of(obj.oid).kind is StateKind.RD_EX


def test_upgrade_to_rdsh_increments_global_counter(runtime_and_hooks, obj):
    runtime, hooks = runtime_and_hooks
    read(runtime, obj, "T1")          # RdEx(T1)
    assert read(runtime, obj, "T2") is TransitionKind.UPGRADING_RD_SH
    assert hooks.calls == [("up_rdsh", "T2", "T1", 1)]
    assert runtime.g_rdsh_counter == 1
    assert runtime.state_of(obj.oid) == rd_sh(1)
    # the upgrading thread's counter is brought current
    assert runtime.thread_counter("T2") == 1


def test_global_rdsh_counter_orders_upgrades(runtime_and_hooks):
    runtime, _ = runtime_and_hooks
    heap = Heap()
    o, p = heap.alloc("o"), heap.alloc("p")
    read(runtime, o, "T1")
    read(runtime, o, "T2")  # o -> RdSh(1)
    read(runtime, p, "T1")
    read(runtime, p, "T3")  # p -> RdSh(2)
    assert runtime.state_of(o.oid) == rd_sh(1)
    assert runtime.state_of(p.oid) == rd_sh(2)


def test_fence_for_stale_reader(runtime_and_hooks, obj):
    runtime, hooks = runtime_and_hooks
    read(runtime, obj, "T1")
    read(runtime, obj, "T2")  # RdSh(1)
    # T3.rdShCnt = 0 < 1 -> fence
    assert read(runtime, obj, "T3") is TransitionKind.FENCE
    assert hooks.calls[-1] == ("fence", "T3", 1)
    assert runtime.thread_counter("T3") == 1
    assert runtime.stats.memory_fences_issued == 1
    # second read takes the fast path
    assert read(runtime, obj, "T3") is TransitionKind.SAME_STATE


def test_no_fence_when_counter_current(runtime_and_hooks):
    """A thread up to date via a newer RdSh object skips older fences."""
    runtime, _ = runtime_and_hooks
    heap = Heap()
    o, p = heap.alloc("o"), heap.alloc("p")
    read(runtime, o, "T1")
    read(runtime, o, "T2")    # o -> RdSh(1)
    read(runtime, p, "T1")
    read(runtime, p, "T3")    # p -> RdSh(2); T3.rdShCnt = 2
    # 2 >= 1: no fence
    assert read(runtime, o, "T3") is TransitionKind.SAME_STATE


def test_rdsh_write_coordinates_with_all_other_threads(runtime_and_hooks, obj):
    runtime, hooks = runtime_and_hooks
    read(runtime, obj, "T1")
    read(runtime, obj, "T2")  # RdSh
    assert write(runtime, obj, "T3") is TransitionKind.CONFLICTING_SH_WR
    name, thread, responders, is_read = hooks.calls[-1]
    assert (name, thread, is_read) == ("conflicting", "T3", False)
    assert set(responders) == {"T1", "T2"}


def test_upgrade_wrex_needs_no_coordination(runtime_and_hooks, obj):
    runtime, hooks = runtime_and_hooks
    read(runtime, obj, "T1")
    assert write(runtime, obj, "T1") is TransitionKind.UPGRADING_WR_EX
    assert runtime.protocol.stats()["rounds"] == 0
    assert hooks.calls == []
    assert runtime.state_of(obj.oid) == wr_ex("T1")


def test_implicit_protocol_for_blocked_responder(obj):
    blocked = {"T1"}
    runtime = OctetRuntime(
        is_thread_blocked=lambda t: t in blocked,
        live_threads=lambda: ["T1", "T2"],
    )
    hooks = Hooks()
    runtime.add_listener(hooks)
    write(runtime, obj, "T1")
    write(runtime, obj, "T2")
    assert hooks.calls == [("conflicting", "T2", ["T1"], False)]
    stats = runtime.protocol.stats()
    assert stats["implicit_responses"] == stats["holds_placed"] == 1
    assert stats["explicit_responses"] == 0
    # the claim of the object plus the responder's flag
    assert runtime.stats.atomic_operations == 2


def test_explicit_protocol_for_running_responder(runtime_and_hooks, obj):
    runtime, _ = runtime_and_hooks
    write(runtime, obj, "T1")
    write(runtime, obj, "T2")
    stats = runtime.protocol.stats()
    assert stats["explicit_responses"] == 1
    assert stats["implicit_responses"] == stats["holds_placed"] == 0
    assert runtime.stats.atomic_operations == 1


def test_intermediate_states_entered_on_conflicts(runtime_and_hooks, obj):
    runtime, _ = runtime_and_hooks
    write(runtime, obj, "T1")
    write(runtime, obj, "T2")
    read(runtime, obj, "T1")
    assert runtime.intermediate_entries == 2


def test_stats_by_conflict_kind(runtime_and_hooks, obj):
    runtime, _ = runtime_and_hooks
    write(runtime, obj, "T1")
    write(runtime, obj, "T2")   # WrEx->WrEx
    read(runtime, obj, "T1")    # WrEx->RdEx
    write(runtime, obj, "T3")   # RdEx->WrEx
    kinds = runtime.stats.conflicting_by_kind
    assert kinds["conflicting-wrex-wrex"] == 1
    assert kinds["conflicting-wrex-rdex"] == 1
    assert kinds["conflicting-rdex-wrex"] == 1
    assert runtime.stats.slow_path() == 4  # 1 initial + 3 conflicting
