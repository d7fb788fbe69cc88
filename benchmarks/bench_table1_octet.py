"""E1 — Table 1: the Octet state-transition machinery.

Table 1 is the specification of Octet's transition relation; its
correctness is covered exhaustively in ``tests/octet``.  This bench
measures the costs the paper's design argument depends on — the fast
path must be much cheaper than the slow paths — and emits a transition
census for a representative access mix.
"""

import itertools
import random

from repro.harness.rendering import render_table
from repro.octet.runtime import OctetRuntime
from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.heap import Heap

_seq = itertools.count(1)


def make_event(obj, thread, kind):
    return AccessEvent(
        seq=next(_seq), thread_name=thread, obj=obj, fieldname="f",
        kind=kind, is_sync=False, is_array=False, site=Site("m", 0),
    )


def test_fast_path_barrier(benchmark):
    """Same-state read barrier: the hot path of the whole system."""
    runtime = OctetRuntime(live_threads=lambda: ["T1", "T2"])
    obj = Heap().alloc("o")
    runtime.observe(make_event(obj, "T1", AccessKind.WRITE))
    event = make_event(obj, "T1", AccessKind.READ)
    benchmark(runtime.observe, event)
    assert runtime.stats.fast_path > 0


def test_conflicting_barrier(benchmark):
    """Ownership ping-pong: every access is a conflicting transition."""
    runtime = OctetRuntime(live_threads=lambda: ["T1", "T2"])
    obj = Heap().alloc("o")
    threads = itertools.cycle(["T1", "T2"])

    def flip():
        runtime.observe(make_event(obj, next(threads), AccessKind.WRITE))

    # the object's first write is its initial transition; once it is
    # owned, every timed flip conflicts, even with benchmarks disabled
    flip()
    benchmark(flip)
    assert runtime.stats.conflicting > 0


def test_rdsh_fence_barrier(benchmark):
    """Fence transitions: read-shared data with stale counters."""
    runtime = OctetRuntime(live_threads=lambda: ["T1", "T2", "T3"])
    heap = Heap()
    objects = [heap.alloc(f"o{i}") for i in range(16)]
    threads = itertools.cycle(["T1", "T2", "T3"])

    def mixed_reads():
        thread = next(threads)
        for obj in objects[:4]:
            runtime.observe(make_event(obj, thread, AccessKind.READ))

    benchmark(mixed_reads)


def test_transition_census(benchmark, write_result):
    """Census of transition kinds over a seeded random access mix."""

    def census():
        runtime = OctetRuntime(live_threads=lambda: ["T1", "T2", "T3", "T4"])
        heap = Heap()
        objects = [heap.alloc(f"o{i}") for i in range(12)]
        rng = random.Random(7)
        for _ in range(20_000):
            thread = f"T{rng.randrange(4) + 1}"
            obj = objects[rng.randrange(len(objects))]
            # 80% reads: read-mostly data drives RdSh/fence traffic
            kind = AccessKind.READ if rng.random() < 0.8 else AccessKind.WRITE
            runtime.observe(make_event(obj, thread, kind))
        return runtime.stats

    stats = benchmark.pedantic(census, rounds=1, iterations=1)
    rows = [
        ["same-state (fast path)", stats.fast_path],
        ["initial", stats.initial],
        ["upgrading RdEx->WrEx", stats.upgrading_wr_ex],
        ["upgrading ->RdSh", stats.upgrading_rd_sh],
        ["fence", stats.fences],
        ["conflicting", stats.conflicting],
    ]
    text = render_table(
        ["transition", "count"], rows,
        title="Table 1 census: transitions over 20k random accesses",
    )
    write_result("table1_octet_census", text)
    assert stats.fast_path > stats.conflicting
