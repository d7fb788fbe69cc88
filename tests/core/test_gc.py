"""Transaction-graph garbage collection."""

import itertools

from repro.core.gc import TransactionCollector
from repro.core.transactions import IdgEdge, Transaction, TransactionManager
from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.heap import Heap
from repro.spec.specification import AtomicitySpecification

from tests.util import counter_program, spec_for

_seq = itertools.count(1)


def make_manager():
    methods = frozenset({"m", "entry"})
    spec = AtomicitySpecification(methods, frozenset({"entry"}))
    return TransactionManager(spec)


def access(thread):
    return AccessEvent(
        seq=next(_seq),
        thread_name=thread,
        obj=Heap().alloc("o"),
        fieldname="f",
        kind=AccessKind.READ,
        is_sync=False,
        is_array=False,
        site=Site("m", 0),
    )


def connect(src, dst, order):
    edge = IdgEdge(src, dst, "t", order)
    src.out_edges.append(edge)
    dst.in_edges.append(edge)


def test_old_unreferenced_transactions_collected():
    manager = make_manager()
    old = manager.transaction_for_access(access("T1"))
    old.edge_touched = True  # force the next access into a new tx
    current = manager.transaction_for_access(access("T1"))
    collector = TransactionCollector(manager)
    swept = collector.collect()
    # `old` is not forward-reachable from the latest transaction
    assert swept == 1
    assert old.collected
    assert manager.all_transactions == [current]


def test_pinned_transactions_kept_alive():
    manager = make_manager()
    old = manager.transaction_for_access(access("T1"))
    old.edge_touched = True
    manager.transaction_for_access(access("T1"))
    collector = TransactionCollector(manager)
    swept = collector.collect(pinned=[old])  # e.g. ICD's lastRdEx
    assert swept == 0
    assert not old.collected


def test_pinned_transactions_not_traversed():
    """A pinned root keeps itself alive but not its forward cone
    (otherwise a stale lastRdEx would pin every newer transaction on
    its thread via the intra chain)."""
    manager = make_manager()
    pinned = manager.transaction_for_access(access("T1"))
    pinned.edge_touched = True
    middle = manager.transaction_for_access(access("T1"))
    middle.edge_touched = True
    manager.transaction_for_access(access("T1"))  # latest stays alive
    collector = TransactionCollector(manager)
    swept = collector.collect(pinned=[pinned])
    assert swept == 1
    assert middle.collected
    assert not pinned.collected


def test_edge_reachable_transactions_survive():
    manager = make_manager()
    old = manager.transaction_for_access(access("T1"))
    old.edge_touched = True
    current = manager.transaction_for_access(access("T1"))
    # old is reachable from the current transaction through a cross edge
    other = manager.transaction_for_access(access("T2"))
    connect(other, old, 1)
    assert TransactionCollector(manager).collect() == 0


def test_dead_edges_unlinked_from_survivors():
    manager = make_manager()
    dead = manager.transaction_for_access(access("T1"))
    dead.edge_touched = True
    live = manager.transaction_for_access(access("T1"))
    connect(dead, live, 1)
    TransactionCollector(manager).collect()
    assert dead.collected
    assert live.in_edges == []
    assert live.intra_prev is None


def test_logs_freed_on_collection():
    manager = make_manager()
    dead = manager.transaction_for_access(access("T1"))
    dead.log = [(1, (1, "f"), False, "s")]
    dead.edge_touched = True
    manager.transaction_for_access(access("T1"))
    collector = TransactionCollector(manager)
    collector.collect()
    assert dead.log is None
    assert collector.stats.log_entries_collected == 1


def test_collection_stats_and_peaks():
    manager = make_manager()
    for _ in range(5):
        tx = manager.transaction_for_access(access("T1"))
        tx.edge_touched = True
    collector = TransactionCollector(manager)
    collector.note_peak()
    assert collector.stats.peak_live_transactions == 5
    swept = collector.collect()
    assert swept == 4  # everything but the latest
    assert collector.stats.collections == 1
    assert collector.stats.transactions_collected == 4


def test_gc_does_not_change_detection_results():
    """End-to-end: violations identical with GC on and off."""
    from repro.core.doublechecker import DoubleChecker
    from repro.runtime.scheduler import RandomScheduler

    def blamed(gc_interval):
        program = counter_program(threads=3, iterations=20)
        checker = DoubleChecker(spec_for(program), gc_interval=gc_interval)
        result = checker.run_single(
            program, RandomScheduler(seed=77, switch_prob=0.7)
        )
        return result.blamed_methods

    assert blamed(None) == blamed(4)


def test_gc_actually_collects_in_real_runs():
    from repro.core.doublechecker import DoubleChecker
    from repro.runtime.scheduler import RandomScheduler

    program = counter_program(threads=3, iterations=40)
    checker = DoubleChecker(spec_for(program), gc_interval=8)
    result = checker.run_single(
        program, RandomScheduler(seed=5, switch_prob=0.6)
    )
    assert result.gc_stats.transactions_collected > 0
