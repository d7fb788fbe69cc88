"""PCD: seq-order log replay and precise cycle detection."""

import gc

import pytest

from repro.core.pcd import PCD
from repro.core.transactions import IdgEdge, Transaction
from repro.errors import OutOfMemoryBudget

from tests.util import ALL_OBJECTS

#: an access entry's is_write (see repro.core.rwlog)
R, W = False, True


def make_tx(tx_id, thread, method=None):
    tx = Transaction(tx_id, thread, method or f"m{tx_id}", False)
    tx.finished = True
    tx.log = []
    return tx


def log(tx, is_write, oid, field, seq):
    tx.log.append((seq, (oid, field), is_write, "site"))


_order = [0]


def link(src, dst, seq):
    """An IDG edge created by the access at ``seq``, anchored in both
    logs as ICD anchors it."""
    _order[0] += 1
    edge = IdgEdge(src, dst, "test", _order[0], seq)
    src.anchors += 1
    dst.anchors += 1
    src.out_edges.append(edge)
    dst.in_edges.append(edge)


def make_pcd(memory_budget=None):
    """A PCD that replays every access."""
    return PCD(ALL_OBJECTS, memory_budget)


class TestCycles:
    def test_classic_write_read_cycle(self):
        a = make_tx(1, "T1", "methodA")
        b = make_tx(2, "T2", "methodB")
        log(a, W, 100, "f", 1)
        log(b, R, 100, "f", 2)
        log(b, W, 100, "f", 3)
        log(a, R, 100, "f", 4)
        violations = make_pcd().process([a, b])
        assert len(violations) == 1
        record = violations[0]
        assert set(record.cycle_tx_ids) == {1, 2}
        # methodA kept running after its effects escaped: it is blamed
        assert record.blamed_method == "methodA"

    def test_no_cycle_for_one_way_dependence(self):
        a = make_tx(1, "T1")
        b = make_tx(2, "T2")
        log(a, W, 100, "f", 1)
        log(b, R, 100, "f", 2)
        assert make_pcd().process([a, b]) == []

    def test_field_granularity_rules_out_icd_false_positive(self):
        """Different fields of one object: ICD (object granularity)
        would cycle these; PCD must not."""
        a = make_tx(1, "T1")
        b = make_tx(2, "T2")
        log(a, W, 100, "f", 1)
        log(b, W, 100, "g", 2)
        log(b, R, 100, "g", 3)
        log(a, R, 100, "f", 4)
        assert make_pcd().process([a, b]) == []

    def test_read_write_conflict_cycle(self):
        """R->W then W->R in the other direction."""
        a = make_tx(1, "T1")
        b = make_tx(2, "T2")
        log(a, R, 100, "f", 1)   # A reads f
        log(b, W, 100, "f", 2)   # B writes f: R->W edge A->B
        log(b, R, 100, "g", 3)   # B reads g
        log(a, W, 100, "g", 4)   # A writes g: R->W edge B->A -> cycle
        violations = make_pcd().process([a, b])
        assert len(violations) == 1

    def test_three_party_cycle(self):
        a, b, c = make_tx(1, "T1"), make_tx(2, "T2"), make_tx(3, "T3")
        log(a, W, 1, "x", 1)
        log(b, R, 1, "x", 2)   # a -> b
        log(b, W, 2, "y", 3)
        log(c, R, 2, "y", 4)   # b -> c
        log(c, W, 3, "z", 5)
        log(a, R, 3, "z", 6)   # c -> a: cycle
        violations = make_pcd().process([a, b, c])
        assert len(violations) == 1
        assert set(violations[0].cycle_tx_ids) == {1, 2, 3}

    def test_same_thread_transactions_never_create_cross_edges(self):
        a1 = make_tx(1, "T1")
        a2 = make_tx(2, "T1")
        log(a1, W, 1, "f", 1)
        log(a2, R, 1, "f", 2)
        assert make_pcd().process([a1, a2]) == []

    def test_duplicate_cycles_reported_once(self):
        pcd = make_pcd()
        a = make_tx(1, "T1")
        b = make_tx(2, "T2")
        log(a, W, 1, "f", 1)
        log(b, R, 1, "f", 2)
        log(b, W, 1, "f", 3)
        log(a, R, 1, "f", 4)
        first = pcd.process([a, b])
        second = pcd.process([a, b])  # ICD may re-submit a grown SCC
        assert len(first) == 1 and second == []


class TestReplayOrdering:
    def test_anchor_orders_the_source_before_the_sink(self):
        """The edge's anchor, at the seq of the access that created it,
        lies between the source's write and the sink's read; seq order
        replays the write first."""
        a = make_tx(1, "T1")
        b = make_tx(2, "T2")
        log(a, W, 1, "f", 10)
        link(a, b, 11)          # A's state change happened before B's read
        log(b, R, 1, "f", 12)
        pcd = make_pcd()
        pcd.process([a, b])
        assert pcd.stats.entries_replayed == 2  # the accesses only
        assert [(e.src, e.dst) for e in pcd._kept.pdg.edges] == [(1, 2)]

    def test_anchors_of_out_of_component_edges_ignored(self):
        a = make_tx(1, "T1")
        b = make_tx(2, "T2")
        outsider = make_tx(3, "T3")
        log(a, W, 1, "f", 1)
        link(a, outsider, 2)    # edge leaves the component
        log(b, R, 1, "f", 3)
        pcd = make_pcd()
        assert pcd.process([a, b]) == []
        assert pcd.stats.entries_replayed == 2

    def test_conflicting_accesses_replayed_in_execution_order(self):
        a = make_tx(1, "T1")
        b = make_tx(2, "T2")
        # true order: B writes f (5), A writes f (6): dependence B -> A only
        log(b, W, 1, "f", 5)
        log(a, W, 1, "f", 6)
        pcd = make_pcd()
        assert pcd.process([a, b]) == []
        assert pcd.stats.pdg_edges == 1

    def test_late_created_marks_never_reorder_accesses(self):
        """Edges created long after their source transaction's accesses
        (or attributed by ICD to a thread's *next* transaction, whose
        log starts later) are anchored at their creation seq, far from
        the accesses around them.  The replay still takes the accesses
        in seq order: a merge that once ordered a thread's log by such
        an anchor let a later write overtake an earlier one here,
        deriving a phantom backwards dependence and a false-positive
        cycle."""
        x1 = make_tx(1, "TX")  # writes f early
        x2 = make_tx(2, "TX")  # ICD attributes a later edge to it
        y = make_tx(3, "TY")   # reads then writes f in the middle
        z = make_tx(4, "TZ")   # writes f last
        log(x1, W, 1, "f", 10)
        log(y, R, 1, "f", 20)
        # an edge attributed to TX's *next* transaction: its source
        # anchor is x2's only one (x2's log is empty), its sink sits in
        # TY's log before the seq-28 write
        link(x2, y, 27)
        log(y, W, 1, "f", 28)
        log(z, W, 1, "f", 45)
        # a late edge anchored at the end of x1's log with seq 51,
        # after TZ's seq-45 write
        link(x1, z, 51)
        pcd = make_pcd()
        violations = pcd.process([x1, x2, y, z])
        # true access order 10 < 20 < 28 < 45 is acyclic: x1->y->z
        assert violations == []
        assert pcd.stats.pdg_edges == 2


class TestMemory:
    def test_process_leaves_no_reference_cycle(self):
        """Everything one replay allocates dies by reference counting:
        with the cyclic collector off, a collection afterwards finds
        nothing unreachable (it would otherwise hold the merge's
        streams, entries of logs the transaction collector swept)."""
        a, b = make_tx(1, "T1"), make_tx(2, "T2")
        log(a, W, 1, "f", 1)
        link(a, b, 2)
        log(b, R, 1, "f", 3)
        log(b, W, 1, "f", 4)
        log(a, R, 1, "f", 5)
        pcd = make_pcd()
        gc.collect()
        enabled, flags, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            records = pcd.process([a, b])
            unreachable = gc.collect()
            garbage = gc.garbage[saved:]
        finally:
            gc.set_debug(flags)
            del gc.garbage[saved:]
            if enabled:
                gc.enable()
        assert len(records) == 1
        assert unreachable == 0, garbage


class TestInputHandling:
    def test_components_smaller_than_two_skipped(self):
        a = make_tx(1, "T1")
        log(a, W, 1, "f", 1)
        assert make_pcd().process([a]) == []

    def test_transactions_without_logs_skipped(self):
        a = make_tx(1, "T1")
        log(a, W, 1, "f", 1)
        b = Transaction(2, "T2", "m2", False)  # no log (unmonitored)
        b.finished = True
        assert make_pcd().process([a, b]) == []

    def test_memory_budget_enforced(self):
        a = make_tx(1, "T1")
        b = make_tx(2, "T2")
        for i in range(50):
            log(a, W, 1, f"f{i}", i)
            log(b, R, 1, f"f{i}", 100 + i)
        with pytest.raises(OutOfMemoryBudget):
            make_pcd(memory_budget=10).process([a, b])

    def test_anchors_count_against_the_memory_budget(self):
        """An edge anchor counts as a log entry, as in ICD's budget."""
        a = make_tx(1, "T1")
        b = make_tx(2, "T2")
        log(a, W, 1, "f", 1)
        log(b, R, 1, "f", 2)
        assert make_pcd(memory_budget=2).process([a, b]) == []
        link(a, b, 2)
        with pytest.raises(OutOfMemoryBudget) as failure:
            make_pcd(memory_budget=3).process([a, b])
        assert failure.value.used == 4

    def test_stats_accumulate(self):
        pcd = make_pcd()
        a = make_tx(1, "T1")
        b = make_tx(2, "T2")
        log(a, W, 1, "f", 1)
        log(b, R, 1, "f", 2)
        pcd.process([a, b])
        assert pcd.stats.components_processed == 1
        assert pcd.stats.transactions_processed == 2
        assert pcd.stats.entries_replayed == 2
        assert pcd.stats.pdg_edges == 1


def process_like_fresh(pcd, reference, component):
    """Process ``component`` on ``pcd`` and on ``reference`` with its
    kept state cleared; both must report the same records."""
    reference._kept = None
    records = pcd.process(component)
    assert records == reference.process(component)
    return records


class TestResumption:
    """Each way PCD picks up the kept replay of the previous component
    (see repro.core.pcd), checked against a from-scratch replay."""

    def test_new_member_before_last_access_rolls_back(self):
        a, b, c = make_tx(1, "T1"), make_tx(2, "T2"), make_tx(3, "T3")
        log(a, W, 1, "x", 1)
        log(b, R, 1, "x", 2)    # a -> b
        log(c, W, 1, "y", 3)
        log(b, W, 1, "z", 4)
        log(a, R, 1, "y", 6)
        log(c, R, 1, "z", 7)
        pcd, reference = make_pcd(), make_pcd()
        assert process_like_fresh(pcd, reference, [a, b]) == []
        # c's first access (3) precedes a's read of y (6): the replay
        # rolls back to 3, so c -> a and b -> c close a -> b -> c -> a;
        # appending c after the kept replay would have derived a -> c
        violations = process_like_fresh(pcd, reference, [a, b, c])
        assert len(violations) == 1
        assert set(violations[0].cycle_tx_ids) == {1, 2, 3}
        assert pcd.stats.entries_resumed == 2   # x's write and read
        assert pcd.stats.entries_replayed == 4 + 4

    def test_grown_log_resumes_at_the_kept_end(self):
        a, b = make_tx(1, "T1"), make_tx(2, "T2")
        log(a, W, 1, "x", 1)
        log(b, R, 1, "x", 2)    # a -> b
        pcd, reference = make_pcd(), make_pcd()
        assert process_like_fresh(pcd, reference, [a, b]) == []
        log(b, W, 1, "y", 3)
        log(a, R, 1, "y", 4)    # b -> a closes the cycle
        violations = process_like_fresh(pcd, reference, [a, b])
        assert len(violations) == 1
        assert pcd.stats.entries_resumed == 2
        assert pcd.stats.entries_replayed == 2 + 2

    def test_kept_member_missing_from_next_component_rolls_back(self):
        a, b, c = make_tx(1, "T1"), make_tx(2, "T2"), make_tx(3, "T3")
        log(a, W, 1, "x", 1)
        log(b, R, 1, "x", 2)    # a -> b
        log(b, W, 1, "y", 3)
        log(c, W, 1, "y", 4)    # b -> c
        log(a, R, 1, "y", 5)    # c -> a: a -> b -> c -> a
        pcd, reference = make_pcd(), make_pcd()
        assert len(process_like_fresh(pcd, reference, [a, b, c])) == 1
        # without c, a reads b's write: the replay rolls back to c's
        # first access (4) and finds b -> a
        violations = process_like_fresh(pcd, reference, [a, b])
        assert [set(v.cycle_tx_ids) for v in violations] == [{1, 2}]
        assert pcd.stats.entries_resumed == 3
        assert set(pcd._kept.seen) == {1, 2}

    def test_disjoint_component_starts_fresh(self):
        a, b = make_tx(1, "T1"), make_tx(2, "T2")
        c, d = make_tx(3, "T1"), make_tx(4, "T2")
        log(a, W, 1, "x", 1)
        log(b, R, 1, "x", 2)
        log(c, W, 1, "x", 3)
        log(d, R, 1, "x", 4)
        pcd, reference = make_pcd(), make_pcd()
        process_like_fresh(pcd, reference, [a, b])
        process_like_fresh(pcd, reference, [c, d])
        assert pcd.stats.entries_resumed == 0
        assert pcd.stats.entries_replayed == 4
        # nothing of the first component's replay carries over
        assert pcd._kept.pdg.nodes() == {3, 4}
        assert set(pcd._kept.seen) == {3, 4}

    def test_identical_set_replays_nothing(self):
        a, b = make_tx(1, "T1"), make_tx(2, "T2")
        log(a, W, 1, "f", 1)
        log(b, R, 1, "f", 2)
        log(b, W, 1, "f", 3)
        log(a, R, 1, "f", 4)
        pcd, reference = make_pcd(), make_pcd()
        assert len(process_like_fresh(pcd, reference, [a, b])) == 1
        assert process_like_fresh(pcd, reference, [a, b]) == []
        assert pcd.stats.entries_replayed == 4
        assert pcd.stats.entries_resumed == 4
        assert reference.stats.entries_replayed == 8


class TestConflictFilter:
    """PCD replays only accesses to objects in Octet's conflict set,
    plus each member's first access (see repro.core.pcd)."""

    def test_first_access_places_a_program_order_edge_in_the_cycle(self):
        """B -> A1 -> A2 -> A3 -> B, where A1 -> A2 -> A3 is program
        order and A2 touches only a thread-local object: A2's first
        access is replayed, so the cycle runs through A2 and not
        through a direct A1 -> A3 chain edge."""
        x, y, local = 1, 2, 3
        a1, a2, a3 = make_tx(1, "T1"), make_tx(2, "T1"), make_tx(3, "T1")
        b = make_tx(4, "T2")
        log(b, W, x, "f", 1)
        log(a1, R, x, "f", 2)       # B -> A1
        log(a2, W, local, "f", 3)
        log(a2, R, local, "g", 4)   # skipped: not A2's first access
        log(a3, W, y, "f", 5)
        log(b, R, y, "f", 6)        # A3 -> B closes the cycle
        pcd = PCD({x, y})
        violations = pcd.process([a1, a2, a3, b])
        assert [set(v.cycle_tx_ids) for v in violations] == [{1, 2, 3, 4}]
        assert pcd.stats.entries_replayed == 5

    def test_grown_set_replays_from_scratch(self):
        """A's write of o is skipped while o is outside the set.  Once
        the set gains o, a kept replay would lack that write below the
        cut and miss A -> C; the grown set makes PCD start fresh."""
        x, y, o = 1, 2, 3
        a, b, c = make_tx(1, "T1"), make_tx(2, "T2"), make_tx(3, "T3")
        log(a, W, x, "f", 1)
        log(a, W, o, "f", 2)
        log(b, R, x, "f", 3)        # A -> B
        log(c, R, o, "f", 5)        # A -> C once o is in the set
        log(c, W, y, "f", 6)
        log(a, R, y, "f", 7)        # C -> A
        conflicted = {x, y}
        pcd, reference = PCD(conflicted), PCD(conflicted)
        assert process_like_fresh(pcd, reference, [a, b]) == []
        assert pcd.stats.entries_replayed == 3
        conflicted.add(o)
        violations = process_like_fresh(pcd, reference, [a, b, c])
        assert [set(v.cycle_tx_ids) for v in violations] == [{1, 3}]
        assert pcd.stats.entries_resumed == 0
        assert pcd.stats.entries_replayed == 3 + 6
