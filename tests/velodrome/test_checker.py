"""Velodrome: online precise checking."""

import pytest

from repro.errors import OutOfMemoryBudget
from repro.runtime.ops import Compute, Invoke, Read, Write
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler
from repro.velodrome.checker import VelodromeChecker

from tests.util import (
    counter_program,
    rereading_program,
    spec_for,
    two_thread_program,
)


def scheduler(seed=1):
    return RandomScheduler(seed=seed, switch_prob=0.7)


class TestDetection:
    def test_detects_split_rmw(self):
        program = counter_program(threads=2, iterations=12)
        result = VelodromeChecker(spec_for(program)).run(program, scheduler())
        assert result.blamed_methods == {"rmw"}
        assert result.stats.cycles_found > 0

    def test_clean_locked_program(self):
        program = counter_program(threads=2, iterations=12, locked=True)
        result = VelodromeChecker(spec_for(program)).run(program, scheduler())
        assert result.blamed_methods == set()

    def test_blames_overlapping_transaction(self):
        """The mixed intra/cross-edge cycle: B overlaps two of A's
        transactions and must be blamed."""
        program = Program("overlap")
        x = program.add_global_object("x")
        y = program.add_global_object("y")

        def a_body(ctx):
            yield Invoke("a_read_x")
            yield Invoke("a_write_y")

        def a_read_x(ctx):
            yield Read(x, "f")

        def a_write_y(ctx):
            yield Write(y, "f", 1)

        def b_whole(ctx):
            yield Write(x, "f", 2)       # before A reads x
            yield Compute(30)
            yield Read(y, "f")           # after A writes y

        def b_body(ctx):
            yield Invoke("b_whole")

        program.method(a_body, name="a_body")
        program.method(a_read_x, name="a_read_x")
        program.method(a_write_y, name="a_write_y")
        program.method(b_whole, name="b_whole")
        program.method(b_body, name="b_body")
        program.add_thread("A", "a_body")
        program.add_thread("B", "b_body")
        program.mark_entry("a_body")
        program.mark_entry("b_body")

        # schedule: B writes x, then A runs fully, then B reads y
        from repro.runtime.scheduler import ScriptedScheduler

        script = ["B", "B", "B", "B"] + ["A"] * 40 + ["B"] * 40
        result = VelodromeChecker(spec_for(program)).run(
            program, ScriptedScheduler(script)
        )
        assert result.blamed_methods == {"b_whole"}

    def test_per_access_atomic_cost(self):
        program = counter_program(threads=2, iterations=5)
        checker = VelodromeChecker(spec_for(program))
        result = checker.run(program, scheduler())
        # the sound checker pays one CAS + two fences per access
        assert result.stats.atomic_operations == result.stats.instrumented_accesses
        assert result.stats.memory_fences == 2 * result.stats.instrumented_accesses


class TestFilters:
    def test_monitor_regular_filter(self):
        program = counter_program(threads=2, iterations=8)
        checker = VelodromeChecker(
            spec_for(program), monitor_regular=lambda m: False
        )
        result = checker.run(program, scheduler())
        assert result.tx_stats.regular_transactions == 0
        assert result.tx_stats.unmonitored_transactions > 0

    def test_monitor_unary_disabled(self):
        program = counter_program(threads=2, iterations=8)
        checker = VelodromeChecker(spec_for(program), monitor_unary=False)
        result = checker.run(program, scheduler())
        assert result.tx_stats.unary_accesses == 0

    def test_arrays_skipped_by_default(self):
        from repro.runtime.ops import ArrayRead, ArrayWrite

        program = Program("arr")
        arr = program.add_global_array("arr", 4)

        def body(ctx):
            for i in range(4):
                value = yield ArrayRead(arr, i)
                yield ArrayWrite(arr, i, (value or 0) + 1)

        program.method(body, name="body")
        program.add_thread("A", "body")
        program.add_thread("B", "body")
        program.mark_entry("body")
        checker = VelodromeChecker(spec_for(program))
        result = checker.run(program, scheduler())
        assert result.stats.array_accesses_skipped > 0

    def test_sync_edges_off_matches_vc(self):
        """With sync edges off, Velodrome skips the synchronization
        accesses vc skips by default, and builds vc's graph."""
        from repro.harness.runner import initial_spec, make_scheduler
        from repro.vc.checker import VcChecker
        from repro.workloads import build

        spec = initial_spec("hedc")
        velodrome = VelodromeChecker(spec)
        velodrome.sync_edges = False
        ours = velodrome.run(build("hedc"), make_scheduler(0))
        vc = VcChecker(spec).run(build("hedc"), make_scheduler(0))
        assert ours.stats.sync_accesses_skipped > 0
        for counter in (
            "sync_accesses_skipped", "array_accesses_skipped",
            "instrumented_accesses", "fastpath_hits", "metadata_updates",
            "edges", "edges_deduplicated", "clock_joins", "propagations",
            "cycle_checks",
        ):
            assert getattr(ours.stats, counter) == getattr(vc.stats, counter)
        assert ours.tx_stats == vc.tx_stats
        assert bool(ours.violations) == bool(vc.violations)


class TestGcAndBudget:
    def test_gc_preserves_detection(self):
        def blamed(interval):
            program = counter_program(threads=3, iterations=20)
            checker = VelodromeChecker(spec_for(program), gc_interval=interval)
            return checker.run(program, scheduler(seed=5)).blamed_methods

        assert blamed(None) == blamed(4)

    def test_metadata_purged_after_collection(self):
        program = counter_program(threads=2, iterations=30)
        checker = VelodromeChecker(spec_for(program), gc_interval=4)
        checker.run(program, scheduler())
        assert checker.collector.stats.transactions_collected > 0
        for meta in checker.metadata._fields.values():
            if meta.last_writer is not None:
                assert not meta.last_writer.collected
            assert all(not tx.collected for tx in meta.last_readers.values())

    def test_memory_budget(self):
        program = counter_program(threads=2, iterations=100)
        checker = VelodromeChecker(
            spec_for(program), memory_budget=5, gc_interval=None
        )
        with pytest.raises(OutOfMemoryBudget):
            checker.run(program, scheduler())


#: per seed: (blamed, edges, cycles_found, cycle_checks,
#: cycle_check_visits, instrumented_accesses, atomic_operations,
#: memory_fences, metadata_updates) of the AccessEvent-per-access
#: barrier this checker had before it shared vc's fused barrier
_EVENT_BARRIER_REFERENCE = {
    3: ({"churn"}, 64, 40, 64, 131, 186, 186, 372, 114),
    11: ({"churn"}, 68, 41, 68, 138, 186, 186, 372, 113),
    29: ({"churn"}, 79, 52, 79, 161, 186, 186, 372, 120),
}


class TestFusedBarrier:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_fused_matches_reference(self, seed):
        """The fused barrier's no-op fast path must not change any
        analysis-visible output, the cost model's synchronization and
        metadata counters included."""
        program = rereading_program()
        result = VelodromeChecker(spec_for(program)).run(
            program, scheduler(seed=seed)
        )
        stats = result.stats
        assert (
            result.blamed_methods, stats.edges, stats.cycles_found,
            stats.cycle_checks, stats.cycle_check_visits,
            stats.instrumented_accesses, stats.atomic_operations,
            stats.memory_fences, stats.metadata_updates,
        ) == _EVENT_BARRIER_REFERENCE[seed]
        assert stats.fastpath_hits > 0


class TestAgreementWithDoubleChecker:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_same_schedule_same_violations(self, seed):
        """Both sound+precise checkers must agree on identical
        executions (listeners never perturb the schedule)."""
        from repro.core.doublechecker import DoubleChecker

        program_v = counter_program(threads=3, iterations=15)
        velodrome = VelodromeChecker(spec_for(program_v)).run(
            program_v, scheduler(seed=seed)
        )
        program_d = counter_program(threads=3, iterations=15)
        double = DoubleChecker(spec_for(program_d)).run_single(
            program_d, scheduler(seed=seed)
        )
        assert velodrome.blamed_methods == double.blamed_methods
