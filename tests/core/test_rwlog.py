"""Read/write logs and duplicate elision."""

import gc

from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.core.rwlog import ElisionFilter
from repro.runtime.executor import Executor
from repro.runtime.scheduler import RandomScheduler

from tests.util import counter_program, spec_for

#: an access entry's is_write
R, W = False, True


def single_run(gc_interval=None):
    """ICD and PCD over a contended counter (single-run mode); with
    ``gc_interval`` None every transaction and its log survive."""
    program = counter_program(threads=2, iterations=6)
    icd = ICD(spec_for(program), gc_interval=gc_interval)
    icd.on_scc = PCD(icd.octet.conflicted).process
    executor = Executor(program, RandomScheduler(seed=3, switch_prob=0.7), [icd])
    executor.run()
    logs = [tx.log for tx in icd.tx_manager.all_transactions if tx.log]
    return icd, executor, logs


def accesses(logs):
    return [entry for log in logs for entry in log]


def idg_edges(icd):
    return [
        edge for tx in icd.tx_manager.all_transactions for edge in tx.out_edges
    ]


class TestReadWriteLog:
    """A transaction's log is a plain list of access tuples (see
    :mod:`repro.core.rwlog`), appended by ICD; its IDG edges are
    anchored by their creation seq and counted in ``anchors``."""

    def test_edge_seq_is_the_seq_of_its_sink_access(self):
        """ICD creates an edge in the barrier of the sink's access, and
        the edge opens a new elision window, so the sink logs that
        access with the edge's seq."""
        icd, _, _ = single_run()
        edges = idg_edges(icd)
        assert edges
        for edge in edges:
            assert type(edge.seq) is int
            assert edge.seq in {entry[0] for entry in edge.dst.log}, edge
            assert all(
                entry[0] != edge.seq for entry in edge.src.log
            ), edge

    def test_anchors_count_each_logged_edge_end(self):
        """Each transaction counts one anchor per IDG edge it is an end
        of, and the counters agree; anchors fall between accesses."""
        icd, _, logs = single_run()
        transactions = [
            tx for tx in icd.tx_manager.all_transactions if tx.log is not None
        ]
        for tx in transactions:
            assert tx.anchors == len(tx.out_edges) + len(tx.in_edges), tx
        assert sum(tx.anchors for tx in transactions) == icd.stats.log_marks > 0
        assert len(accesses(logs)) == icd.stats.log_entries > 0
        assert any(
            any(entry[0] < edge.seq for entry in edge.src.log)
            and any(entry[0] > edge.seq for entry in edge.src.log)
            for edge in idg_edges(icd)
        )

    def test_entry_address(self):
        """An access is ``(seq, address, is_write, site)``."""
        _, _, logs = single_run()
        for seq, (oid, fieldname), is_write, site in accesses(logs):
            assert type(seq) is int and seq > 0
            assert type(oid) is int and type(fieldname) is str
            assert type(is_write) is bool and type(site) is str
        fields = {entry[1][1]: entry[3] for entry in accesses(logs)}
        assert fields["value"].startswith("rmw@")

    def test_entry_address_precomputed_not_a_property(self):
        """No entry builds its own address: each holds the tuple the
        executor interned for its field, slow-path entries included."""
        _, executor, logs = single_run()
        for entry in accesses(logs):
            address = entry[1]
            assert executor._addr_intern.get(address) is address

    def test_each_field_is_one_tuple(self):
        """The fused barrier and the slow path both log the address the
        barrier was called with, so each logged field is held by one
        tuple object in every log entry and elision key."""
        icd, _, logs = single_run()
        objects = {}
        for entry in accesses(logs):
            objects.setdefault(entry[1], set()).add(id(entry[1]))
        for table in icd._elision._last_by_thread.values():
            for address in table:
                objects.setdefault(address, set()).add(id(address))
        assert len(objects) == 3
        assert all(len(ids) == 1 for ids in objects.values()), objects

    def test_append_access_passes_interned_address_through(self):
        """The fused barrier logs the executor's interned address."""
        _, executor, logs = single_run()
        assert any(
            executor._addr_intern.get(entry[1]) is entry[1]
            for entry in accesses(logs)
        )

    def test_no_entry_is_tracked_by_the_cyclic_collector(self):
        """Every entry holds only values CPython does not track, so the
        collector stops tracking all of them, address tuples too.  A
        collection untracks a tuple only when its items are untracked
        already, and it may visit an entry before that entry's address,
        so the address goes in one collection and the entry in the
        next."""
        _, _, logs = single_run(gc_interval=64)
        assert accesses(logs)
        gc.collect()
        gc.collect()
        for log in logs:
            for entry in log:
                assert not gc.is_tracked(entry), entry
                assert not gc.is_tracked(entry[1]), entry


class TestElision:
    def test_duplicate_read_elided(self):
        f = ElisionFilter()
        assert f.should_log("T", 1, "f", R)
        assert not f.should_log("T", 1, "f", R)
        assert f.stats.elided == 1

    def test_duplicate_write_elided(self):
        f = ElisionFilter()
        assert f.should_log("T", 1, "f", W)
        assert not f.should_log("T", 1, "f", W)

    def test_read_after_write_elided(self):
        """A read adds nothing after a same-window write."""
        f = ElisionFilter()
        assert f.should_log("T", 1, "f", W)
        assert not f.should_log("T", 1, "f", R)

    def test_write_after_read_not_elided(self):
        f = ElisionFilter()
        assert f.should_log("T", 1, "f", R)
        assert f.should_log("T", 1, "f", W)

    def test_bump_opens_new_window(self):
        f = ElisionFilter()
        assert f.should_log("T", 1, "f", R)
        f.bump("T")
        assert f.should_log("T", 1, "f", R)

    def test_windows_are_per_thread(self):
        f = ElisionFilter()
        assert f.should_log("T1", 1, "f", R)
        assert f.should_log("T2", 1, "f", R)
        f.bump("T1")
        assert f.should_log("T1", 1, "f", R)
        assert not f.should_log("T2", 1, "f", R)

    def test_distinct_fields_not_elided(self):
        f = ElisionFilter()
        assert f.should_log("T", 1, "f", R)
        assert f.should_log("T", 1, "g", R)
        assert f.should_log("T", 2, "f", R)

    def test_stats_count_both_sides(self):
        f = ElisionFilter()
        f.should_log("T", 1, "f", R)
        f.should_log("T", 1, "f", R)
        f.should_log("T", 1, "f", W)
        assert f.stats.logged == 2
        assert f.stats.elided == 1

    def test_should_log_addr_is_should_log_on_a_prebuilt_address(self):
        """The hot-path entry point: same decisions, same stats."""
        by_key = ElisionFilter()
        by_addr = ElisionFilter()
        accesses = [
            ("T1", 1, "f", R), ("T1", 1, "f", R), ("T1", 1, "f", W),
            ("T2", 1, "f", W), ("T2", 1, "f", R), ("T1", 2, "g", R),
        ]
        for thread, oid, fieldname, kind in accesses:
            expected = by_key.should_log(thread, oid, fieldname, kind)
            got = by_addr.should_log_addr(thread, (oid, fieldname), kind)
            assert got == expected
        by_addr.bump("T1")
        by_key.bump("T1")
        assert by_addr.should_log_addr("T1", (1, "f"), R) == by_key.should_log(
            "T1", 1, "f", R
        )
        assert (by_addr.stats.logged, by_addr.stats.elided) == (
            by_key.stats.logged, by_key.stats.elided
        )
