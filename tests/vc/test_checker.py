"""Vector-clock backend: detection, knobs, GC, fused-path identity."""

import pytest

from repro.errors import OutOfMemoryBudget
from repro.runtime.ops import Compute, Invoke, Read, Write
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler, ScriptedScheduler
from repro.vc.checker import VcChecker
from repro.velodrome.checker import VelodromeChecker

from tests.util import counter_program, rereading_program, spec_for

def scheduler(seed=1):
    return RandomScheduler(seed=seed, switch_prob=0.7)


class TestDetection:
    def test_detects_split_rmw(self):
        program = counter_program(threads=2, iterations=12)
        result = VcChecker(spec_for(program)).run(program, scheduler())
        assert result.blamed_methods == {"rmw"}
        assert result.stats.cycles_found > 0

    def test_clean_locked_program(self):
        program = counter_program(threads=2, iterations=12, locked=True)
        result = VcChecker(spec_for(program)).run(program, scheduler())
        assert result.blamed_methods == set()

    def test_blames_overlapping_transaction(self):
        """The mixed intra/cross-edge cycle: B overlaps two of A's
        transactions; the program-order leg lives in A's clock chain."""
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

        script = ["B", "B", "B", "B"] + ["A"] * 40 + ["B"] * 40
        result = VcChecker(spec_for(program)).run(
            program, ScriptedScheduler(script)
        )
        assert result.blamed_methods == {"b_whole"}

    def test_linear_time_no_graph_search(self):
        """The whole point: cycle checks are clock probes, so their
        count is bounded by the (deduplicated) edge count."""
        program = counter_program(threads=3, iterations=20)
        result = VcChecker(spec_for(program)).run(program, scheduler())
        assert result.stats.cycle_checks == result.stats.edges


class TestSyncEdges:
    def test_sync_accesses_skipped_by_default(self):
        """The barrier's is_sync argument decides: every
        synchronization pseudo-access the executor emits is skipped."""
        program = counter_program(threads=2, iterations=8, locked=True)
        result = VcChecker(spec_for(program)).run(program, scheduler())
        assert result.execution.sync_access_count > 0
        assert (
            result.stats.sync_accesses_skipped
            == result.execution.sync_access_count
        )

    def test_sync_edges_mode_counts_them(self):
        program = counter_program(threads=2, iterations=8, locked=True)
        checker = VcChecker(spec_for(program), sync_edges=True)
        checker.run(program, scheduler())
        assert checker.stats.sync_accesses_skipped == 0

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_sync_edges_mode_matches_velodrome(self, seed):
        """With sync ordering on, verdicts are Velodrome's."""
        program_v = counter_program(threads=3, iterations=15, locked=True)
        velodrome = VelodromeChecker(spec_for(program_v)).run(
            program_v, scheduler(seed=seed)
        )
        program_c = counter_program(threads=3, iterations=15, locked=True)
        vc = VcChecker(spec_for(program_c), sync_edges=True).run(
            program_c, scheduler(seed=seed)
        )
        assert vc.blamed_methods == velodrome.blamed_methods


class TestFilters:
    def test_monitor_regular_filter(self):
        program = counter_program(threads=2, iterations=8)
        checker = VcChecker(spec_for(program), monitor_regular=lambda m: False)
        result = checker.run(program, scheduler())
        assert result.tx_stats.regular_transactions == 0
        assert result.tx_stats.unmonitored_transactions > 0

    def test_monitor_unary_disabled(self):
        program = counter_program(threads=2, iterations=8)
        checker = VcChecker(spec_for(program), monitor_unary=False)
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
        checker = VcChecker(spec_for(program))
        result = checker.run(program, scheduler())
        assert result.stats.array_accesses_skipped > 0


class TestGcAndBudget:
    def test_gc_preserves_detection(self):
        def blamed(interval):
            program = counter_program(threads=3, iterations=20)
            checker = VcChecker(spec_for(program), gc_interval=interval)
            return checker.run(program, scheduler(seed=5)).blamed_methods

        assert blamed(None) == blamed(4)

    @pytest.mark.parametrize(
        "backend", [VcChecker, VelodromeChecker], ids=["vc", "velodrome"]
    )
    def test_clock_states_swept_with_transactions(self, backend):
        """Both backends keep their transaction clocks in step with the
        collector: no clock outlives its transaction."""
        program = counter_program(threads=2, iterations=30)
        checker = backend(spec_for(program), gc_interval=4)
        checker.run(program, scheduler())
        assert checker.collector.stats.transactions_collected > 0
        live = {t.tx_id for t in checker.tx_manager.all_transactions}
        assert set(checker.clocks._clocks) <= live

    def test_memory_budget(self):
        program = counter_program(threads=2, iterations=100)
        checker = VcChecker(
            spec_for(program), memory_budget=5, gc_interval=None
        )
        with pytest.raises(OutOfMemoryBudget):
            checker.run(program, scheduler())


#: per seed: (blamed, edges, cycles_found, cycle_checks, clock_joins,
#: instrumented_accesses) of the classify-every-access barrier this
#: checker had before its fused no-op path became the only barrier
_UNFUSED_REFERENCE = {
    3: ({"churn"}, 64, 40, 64, 32, 180),
    11: ({"churn"}, 68, 41, 68, 34, 180),
    29: ({"churn"}, 79, 52, 79, 34, 180),
}


class TestFusedBarrier:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_fused_matches_reference(self, seed):
        """The fused closure's no-op fast path must not change any
        analysis-visible output: every counter equals the recorded
        unfused barrier's."""
        program = rereading_program()
        result = VcChecker(spec_for(program)).run(program, scheduler(seed=seed))
        stats = result.stats
        assert (
            result.blamed_methods, stats.edges, stats.cycles_found,
            stats.cycle_checks, stats.clock_joins,
            stats.instrumented_accesses,
        ) == _UNFUSED_REFERENCE[seed]
        assert stats.fastpath_hits > 0


class TestAgreementWithDoubleChecker:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_same_schedule_same_violations(self, seed):
        """On pure data-conflict programs the vc backend must agree
        with the two-pass ICD+PCD pipeline."""
        from repro.core.doublechecker import DoubleChecker

        program_c = counter_program(threads=3, iterations=15)
        vc = VcChecker(spec_for(program_c)).run(program_c, scheduler(seed=seed))
        program_d = counter_program(threads=3, iterations=15)
        double = DoubleChecker(spec_for(program_d)).run_single(
            program_d, scheduler(seed=seed)
        )
        assert vc.blamed_methods == double.blamed_methods
