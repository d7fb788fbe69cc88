"""Property-based tests of the Octet state machine (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octet.runtime import OctetListener, OctetRuntime
from repro.octet.states import StateKind
from repro.octet.transitions import TransitionKind
from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.heap import Heap

THREADS = ["T1", "T2", "T3"]

#: a random access script: (thread index, object index, is_write)
scripts = st.lists(
    st.tuples(
        st.integers(0, len(THREADS) - 1),
        st.integers(0, 2),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


class Hooks(OctetListener):
    def __init__(self):
        self.calls = []

    def on_conflicting(self, thread, responders, is_read):
        self.calls.append(("conflicting", thread, list(responders)))

    def on_upgrading_rd_sh(self, thread, prior_owner, counter):
        self.calls.append(("up_rdsh", thread, counter))

    def on_fence(self, thread, counter):
        self.calls.append(("fence", thread, counter))


def run_script(script):
    """Run ``script``; per access, the transition kind, the object's
    state before and after, and the hook calls it made."""
    heap = Heap()
    objects = [heap.alloc(f"o{i}") for i in range(3)]
    runtime = OctetRuntime(live_threads=lambda: list(THREADS))
    hooks = Hooks()
    runtime.add_listener(hooks)
    steps = []
    for seq, (t, o, is_write) in enumerate(script, start=1):
        obj = objects[o]
        event = AccessEvent(
            seq=seq,
            thread_name=THREADS[t],
            obj=obj,
            fieldname="f",
            kind=AccessKind.WRITE if is_write else AccessKind.READ,
            is_sync=False,
            is_array=False,
            site=Site("m", 0),
        )
        old = runtime.state_of(obj.oid)
        hooks.calls.clear()
        kind = runtime.observe(event)
        steps.append((kind, old, runtime.state_of(obj.oid), list(hooks.calls)))
    return runtime, objects, steps


@given(scripts)
@settings(max_examples=150, deadline=None)
def test_states_never_left_intermediate(script):
    runtime, objects, _ = run_script(script)
    for state in runtime.snapshot_states().values():
        assert not state.is_intermediate()


@given(scripts)
@settings(max_examples=150, deadline=None)
def test_write_always_ends_in_wrex_for_writer(script):
    _, _, steps = run_script(script)
    # after each write by T, the object's state must be WrEx(T)
    for (t, o, is_write), (kind, old, new, _) in zip(script, steps):
        if is_write:
            assert new.kind is StateKind.WR_EX
            assert new.owner == THREADS[t]
            if kind is TransitionKind.SAME_STATE:
                assert new is old


@given(scripts)
@settings(max_examples=150, deadline=None)
def test_read_fast_path_only_when_safe(script):
    """A read takes the fast path only if the thread owns the object or
    its rdShCnt is current — the conditions of the read barrier."""
    counters = {t: 0 for t in THREADS}
    for (t, o, is_write), (kind, old, new, _) in zip(
        script, run_script(script)[2]
    ):
        thread = THREADS[t]
        if not is_write and kind is TransitionKind.SAME_STATE:
            if old.kind is StateKind.RD_SH:
                assert counters[thread] >= old.counter
            else:
                assert old.owner == thread
        if kind is TransitionKind.FENCE:
            counters[thread] = old.counter
        if kind is TransitionKind.UPGRADING_RD_SH:
            counters[thread] = new.counter


@given(scripts)
@settings(max_examples=150, deadline=None)
def test_global_counter_increments_only_on_rdsh_upgrades(script):
    runtime, _, steps = run_script(script)
    upgrades = [step for step in steps
                if step[0] is TransitionKind.UPGRADING_RD_SH]
    assert runtime.g_rdsh_counter == len(upgrades)
    # RdSh counters are unique per upgrade and at most the global
    # counter; the hook gets the counter the object's state holds
    seen = set()
    for kind, old, new, calls in upgrades:
        assert calls == [("up_rdsh", calls[0][1], new.counter)]
        assert new.counter not in seen
        seen.add(new.counter)
        assert new.counter <= runtime.g_rdsh_counter


@given(scripts)
@settings(max_examples=150, deadline=None)
def test_barrier_counts_are_consistent(script):
    runtime, _, _ = run_script(script)
    stats = runtime.stats
    assert stats.barriers == len(script)
    assert stats.barriers == (
        stats.fast_path
        + stats.initial
        + stats.upgrading_wr_ex
        + stats.upgrading_rd_sh
        + stats.fences
        + stats.conflicting
    )


@given(scripts)
@settings(max_examples=100, deadline=None)
def test_conflicting_transitions_always_coordinate(script):
    _, _, steps = run_script(script)
    for (t, _, _), (kind, _, _, calls) in zip(script, steps):
        conflicting = [call for call in calls if call[0] == "conflicting"]
        if kind.is_conflicting():
            [(_, thread, responders)] = conflicting
            assert thread == THREADS[t]
            assert responders
            assert thread not in responders
        else:
            assert conflicting == []


@given(scripts)
@settings(max_examples=150, deadline=None)
def test_conflicted_holds_the_objects_shared_with_a_write(script):
    """Every object two threads accessed, with a write among the
    accesses, is in ``conflicted`` (PCD's filter relies on it); an
    object only one thread accessed, or that no thread wrote, is not."""
    runtime, objects, _ = run_script(script)
    threads, written = {}, set()
    for t, o, is_write in script:
        threads.setdefault(o, set()).add(t)
        if is_write:
            written.add(o)
    for o, obj in enumerate(objects):
        shared = len(threads.get(o, ())) > 1
        assert (obj.oid in runtime.conflicted) == (shared and o in written), (
            o, threads.get(o), o in written,
        )
