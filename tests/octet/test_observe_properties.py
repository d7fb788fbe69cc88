"""The one-pass barrier against Table 1.

``OctetRuntime.observe`` decides and commits every transition in one
decision tree; ``classify`` is Table 1's pure reference form.  The
property drives random access sequences through ``observe`` and,
after every access, compares it with a reference model that asks
``classify`` for the transition and applies Octet's rules for the
commit: the record, the coordination round, the hook that fired, the
object's state, the thread's ``rdShCnt`` and every counter.
"""

import dataclasses
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octet.protocol import ProtocolKind
from repro.octet.runtime import OctetListener, OctetRuntime, OctetStats
from repro.octet.transitions import TransitionKind, classify
from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.heap import Heap

_seq = itertools.count(1)

HOOK_OF = {
    TransitionKind.SAME_STATE: None,
    TransitionKind.INITIAL: "on_initial",
    TransitionKind.UPGRADING_WR_EX: "on_upgrading_wr_ex",
    TransitionKind.UPGRADING_RD_SH: "on_upgrading_rd_sh",
    TransitionKind.FENCE: "on_fence",
    TransitionKind.CONFLICTING_WR_WR: "on_conflicting",
    TransitionKind.CONFLICTING_WR_RD: "on_conflicting",
    TransitionKind.CONFLICTING_RD_WR: "on_conflicting",
    TransitionKind.CONFLICTING_SH_WR: "on_conflicting",
}


def make_event(obj, thread, kind):
    return AccessEvent(
        seq=next(_seq), thread_name=thread, obj=obj, fieldname="f",
        kind=kind, is_sync=False, is_array=False, site=Site("m", 0),
    )


class Recorder(OctetListener):
    """Records every hook call as (hook name, record)."""

    def __init__(self):
        self.calls = []

    def on_initial(self, record):
        self.calls.append(("on_initial", record))

    def on_upgrading_wr_ex(self, record):
        self.calls.append(("on_upgrading_wr_ex", record))

    def on_upgrading_rd_sh(self, record):
        self.calls.append(("on_upgrading_rd_sh", record))

    def on_fence(self, record):
        self.calls.append(("on_fence", record))

    def on_conflicting(self, record):
        self.calls.append(("on_conflicting", record))


class Reference:
    """Octet's commit rules over ``classify``'s verdicts."""

    def __init__(self, threads):
        self.threads = threads
        self.states = {}
        self.rdsh = {}
        self.g_rdsh = 0
        self.stats = OctetStats()
        self.protocol = {
            "rounds": 0,
            "explicit_responses": 0,
            "implicit_responses": 0,
            "holds_placed": 0,
        }
        self.intermediate = 0

    def access(self, oid, thread, access, blocked):
        """Commit one access; returns (kind, old, new, prior_owner,
        rdsh_counter, responders)."""
        old = self.states.get(oid)
        verdict = classify(
            old, access, thread, self.rdsh.get(thread, 0), self.g_rdsh + 1
        )
        kind = verdict.kind
        stats = self.stats
        stats.barriers += 1
        new, prior_owner, counter, responders = old, None, None, None
        if kind is TransitionKind.SAME_STATE:
            stats.fast_path += 1
        elif kind is TransitionKind.INITIAL:
            stats.initial += 1
            new = verdict.new_state
        elif kind is TransitionKind.UPGRADING_WR_EX:
            stats.upgrading_wr_ex += 1
            stats.atomic_operations += 1
            new, prior_owner = verdict.new_state, old.owner
        elif kind is TransitionKind.UPGRADING_RD_SH:
            stats.upgrading_rd_sh += 1
            stats.atomic_operations += 1
            self.g_rdsh += 1
            counter = self.g_rdsh
            self.rdsh[thread] = counter
            new, prior_owner = verdict.new_state, old.owner
        elif kind is TransitionKind.FENCE:
            stats.fences += 1
            stats.memory_fences_issued += 1
            self.rdsh[thread] = verdict.thread_counter_update
        else:
            assert kind.is_conflicting()
            stats.conflicting += 1
            by_kind = stats.conflicting_by_kind
            by_kind[kind.value] = by_kind.get(kind.value, 0) + 1
            stats.atomic_operations += 1
            self.intermediate += 1
            new = verdict.new_state
            if kind is TransitionKind.CONFLICTING_SH_WR:
                names = [t for t in self.threads if t != thread]
            else:
                names = [old.owner]
                prior_owner = old.owner
            responders = [
                (name, ProtocolKind.IMPLICIT if blocked(name)
                 else ProtocolKind.EXPLICIT)
                for name in names
            ]
            implicit = sum(p is ProtocolKind.IMPLICIT for _, p in responders)
            stats.atomic_operations += implicit
            self.protocol["rounds"] += 1
            self.protocol["explicit_responses"] += len(responders) - implicit
            self.protocol["implicit_responses"] += implicit
            self.protocol["holds_placed"] += implicit
        self.states[oid] = new
        return kind, old, new, prior_owner, counter, responders


steps = st.lists(
    st.tuples(
        st.integers(0, 3),            # thread (mod the thread count)
        st.integers(0, 2),            # object
        st.booleans(),                # write?
        st.sets(st.integers(0, 3)),   # threads blocked at this step
    ),
    max_size=60,
)


@given(st.integers(2, 4), steps)
@settings(max_examples=300, deadline=None)
def test_observe_commits_what_table1_says(n_threads, script):
    threads = [f"T{i}" for i in range(n_threads)]
    blocked = set()
    runtime = OctetRuntime(
        is_thread_blocked=lambda name: name in blocked,
        live_threads=lambda: list(threads),
    )
    recorder = Recorder()
    runtime.add_listener(recorder)
    reference = Reference(threads)
    heap = Heap()
    objects = [heap.alloc(f"o{i}") for i in range(3)]

    for t, o, is_write, blocked_now in script:
        thread, obj = threads[t % n_threads], objects[o]
        access = AccessKind.WRITE if is_write else AccessKind.READ
        blocked.clear()
        blocked.update(threads[b] for b in blocked_now if b < n_threads)
        kind, old, new, prior_owner, counter, responders = reference.access(
            obj.oid, thread, access, blocked.__contains__
        )
        recorder.calls.clear()
        record = runtime.observe(make_event(obj, thread, access))

        assert record.kind is kind
        assert record.old_state == old
        assert record.new_state == new
        assert record.prior_owner == prior_owner
        assert record.rdsh_counter == counter
        if responders is None:
            assert record.coordination is None
        else:
            round_ = record.coordination
            assert round_.requester == thread
            assert [
                (r.thread_name, r.protocol) for r in round_.responders
            ] == responders
            assert round_.implicit_count == sum(
                p is ProtocolKind.IMPLICIT for _, p in responders
            )
            assert round_.explicit_count == (
                len(responders) - round_.implicit_count
            )
        hook = HOOK_OF[kind]
        assert recorder.calls == ([] if hook is None else [(hook, record)])
        assert runtime.state_of(obj.oid) == new
        for name in threads:
            assert runtime.thread_counter(name) == reference.rdsh.get(name, 0)
        assert runtime.g_rdsh_counter == reference.g_rdsh
        assert dataclasses.asdict(runtime.stats) == dataclasses.asdict(
            reference.stats
        )
        assert runtime.protocol.stats() == reference.protocol
        assert runtime.intermediate_entries == reference.intermediate


def test_no_op_hooks_are_left_out_of_the_tables():
    """Hooks a listener inherits from OctetListener never run."""

    class OnlyFences(OctetListener):
        def __init__(self):
            self.fences = 0

        def on_fence(self, record):
            self.fences += 1

    runtime = OctetRuntime(live_threads=lambda: ["T1", "T2", "T3"])
    listener = OnlyFences()
    runtime.add_listener(listener)
    assert runtime._hooks == {
        "on_initial": [], "on_upgrading_wr_ex": [], "on_upgrading_rd_sh": [],
        "on_fence": [listener.on_fence], "on_conflicting": [],
    }
    obj = Heap().alloc("o")
    for thread in ("T1", "T2", "T3"):  # initial, ->RdSh, fence
        runtime.observe(make_event(obj, thread, AccessKind.READ))
    assert listener.fences == 1


def test_table1_census():
    """The seeded 20k-access mix of ``benchmarks/bench_table1_octet.py``
    (4 threads, 12 objects, 80% reads) and its transition census."""
    runtime = OctetRuntime(live_threads=lambda: ["T1", "T2", "T3", "T4"])
    heap = Heap()
    objects = [heap.alloc(f"o{i}") for i in range(12)]
    rng = random.Random(7)
    for _ in range(20_000):
        thread = f"T{rng.randrange(4) + 1}"
        obj = objects[rng.randrange(len(objects))]
        kind = AccessKind.READ if rng.random() < 0.8 else AccessKind.WRITE
        runtime.observe(make_event(obj, thread, kind))
    stats = runtime.stats
    assert (
        stats.fast_path,
        stats.initial,
        stats.upgrading_wr_ex,
        stats.upgrading_rd_sh,
        stats.fences,
        stats.conflicting,
    ) == (9521, 12, 164, 2238, 1549, 6516)
