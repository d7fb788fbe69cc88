"""The inline same-state fast path and its batched hot counters.

The fast-path predicate is duplicated for speed in
``OctetRuntime.observe`` and the fused barriers; ``is_same_state`` is
its reference form, pinned here against Table 1 (``classify``).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.icd import ICD
from repro.octet.runtime import OctetRuntime
from repro.octet.states import rd_ex, rd_sh, wr_ex
from repro.octet.transitions import TransitionKind, classify, is_same_state
from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.heap import Heap
from repro.spec.specification import AtomicitySpecification

R, W = AccessKind.READ, AccessKind.WRITE
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


@pytest.fixture
def obj():
    return Heap().alloc("o")


state_strategy = st.one_of(
    st.none(),
    st.builds(wr_ex, st.sampled_from(["T0", "T1", "T2"])),
    st.builds(rd_ex, st.sampled_from(["T0", "T1", "T2"])),
    st.builds(rd_sh, st.integers(1, 5)),
)


@given(
    state_strategy,
    st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
    st.sampled_from(["T0", "T1", "T2"]),
    st.integers(0, 5),
)
@settings(max_examples=300, deadline=None)
def test_is_same_state_matches_classify(state, access, thread, rdsh_counter):
    classified = classify(state, access, thread, rdsh_counter, 99)
    assert is_same_state(state, access, thread, rdsh_counter) == (
        classified.kind is TransitionKind.SAME_STATE
    )


class TestInlineFastPath:
    def test_same_state_skips_classify_and_listeners(self, obj):
        runtime = OctetRuntime()
        runtime.observe(make_event(obj, "T1", W))
        state = runtime.state_of(obj.oid)
        kind = runtime.observe(make_event(obj, "T1", R))
        assert kind is TransitionKind.SAME_STATE
        assert runtime.state_of(obj.oid) is state
        assert runtime.stats.fast_path == 1
        # the runtime's own inline shortcut is not the *fused* barrier
        assert runtime.stats.fast_path_fused == 0

    @pytest.mark.parametrize("fused", [True, False])
    def test_both_arms_agree_on_records_and_stats(self, fused):
        """The fast-path predicate has two copies: ICD's fused barrier
        (``fused=True``) and ``OctetRuntime.observe``.  Through either
        arm, one interleaving with every same-state shape (WrEx/RdEx by
        owner, current RdSh read) plus initial, upgrading and
        conflicting transitions leaves, after each access, the state
        Table 1 (``classify``) says, and the stats count Table 1's
        kinds."""
        heap = Heap()
        a, b = heap.alloc("a"), heap.alloc("b")
        if fused:
            icd = ICD(AtomicitySpecification(frozenset(), frozenset()))
            for thread in ("T1", "T2"):
                icd.on_thread_start(thread)
            runtime, fused_barrier = icd.octet, icd.access_barrier()

            def barrier(event):
                fused_barrier(
                    event.seq, event.thread_name, event.obj,
                    event.fieldname, event.kind, event.site, event.address,
                    str(event.site), event.is_array, event.is_sync,
                )
        else:
            runtime = OctetRuntime(live_threads=lambda: ["T1", "T2"])
            barrier = runtime.observe
        kinds = []
        for obj, thread, kind in [
            (a, "T1", W), (a, "T1", R), (a, "T1", W),   # WrEx by owner
            (b, "T1", R), (b, "T1", R),                 # RdEx by owner
            (b, "T2", R), (b, "T2", R), (b, "T1", R),   # RdSh reads
            (a, "T2", W), (a, "T2", W),                 # conflict, then WrEx
        ]:
            old_state = runtime.state_of(obj.oid)
            expected = classify(
                old_state, kind, thread,
                runtime.thread_counter(thread), runtime.g_rdsh_counter + 1,
            )
            returned = barrier(make_event(obj, thread, kind))
            if not fused:  # the fused barrier returns nothing
                assert returned is expected.kind
            # same-state and fence transitions keep the object's state
            expected_state = (
                old_state if expected.new_state is None else expected.new_state
            )
            assert repr(runtime.state_of(obj.oid)) == repr(expected_state)
            kinds.append(expected.kind)
        stats = runtime.stats
        assert stats.barriers == len(kinds) == 10
        assert stats.fast_path == kinds.count(TransitionKind.SAME_STATE) == 5
        assert stats.fast_path_fused == (stats.fast_path if fused else 0)
        assert stats.initial == kinds.count(TransitionKind.INITIAL)
        assert stats.upgrading_rd_sh == kinds.count(
            TransitionKind.UPGRADING_RD_SH
        )
        assert stats.upgrading_wr_ex == kinds.count(
            TransitionKind.UPGRADING_WR_EX
        )
        assert stats.fences == kinds.count(TransitionKind.FENCE)
        assert stats.conflicting == sum(k.is_conflicting() for k in kinds)


class TestHotCounterBatching:
    def test_reading_stats_flushes_pending_counts(self, obj):
        runtime = OctetRuntime()
        runtime.observe(make_event(obj, "T1", W))
        for _ in range(5):
            runtime.observe(make_event(obj, "T1", R))
        # fast-path barriers accumulate in plain pending attributes...
        assert runtime._fastpath_pending == 5
        # ...and the stats property folds them in on read
        assert runtime.stats.barriers == 6
        assert runtime.stats.fast_path == 5
        assert runtime._fastpath_pending == 0

    def test_flush_is_idempotent(self, obj):
        runtime = OctetRuntime()
        runtime.observe(make_event(obj, "T1", W))
        runtime.observe(make_event(obj, "T1", R))
        runtime.flush_hot_counters()
        runtime.flush_hot_counters()
        assert runtime.stats.barriers == 2
        assert runtime.stats.fast_path == 1

    def test_assigning_stats_discards_pending(self, obj):
        from repro.octet.runtime import OctetStats

        runtime = OctetRuntime()
        runtime.observe(make_event(obj, "T1", W))
        runtime.observe(make_event(obj, "T1", R))
        runtime.stats = OctetStats()
        assert runtime.stats.barriers == 0
        assert runtime._barriers_pending == 0
