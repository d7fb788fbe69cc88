"""ICD experiment knobs end-to-end through DoubleChecker."""

import pytest

from repro.core.doublechecker import DoubleChecker
from repro.errors import OutOfMemoryBudget
from repro.runtime.ops import ArrayRead, ArrayWrite, Invoke
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler

from tests.util import counter_program, spec_for


def array_program(length=6):
    program = Program("arr")
    arr = program.add_global_array("arr", length)

    def sweep(ctx, offset):
        for i in range(length):
            value = yield ArrayRead(arr, (i + offset) % length)
            yield ArrayWrite(arr, (i + offset) % length, (value or 0) + 1)

    def worker(ctx, offset):
        for _ in range(8):
            yield Invoke("sweep", (offset,))

    program.method(sweep, name="sweep")
    program.method(worker, name="worker")
    program.mark_entry("worker")
    program.add_thread("A", "worker", (0,))
    program.add_thread("B", "worker", (3,))
    return program


def scheduler(seed=1):
    return RandomScheduler(seed=seed, switch_prob=0.7)


class TestArrayInstrumentation:
    def test_element_granularity_is_precise(self):
        """Distinct elements never create precise cycles even when
        instrumented at element granularity... unless threads overlap:
        offsets 0/3 over length 6 do overlap, so cycles are possible —
        the check here is that the configuration runs and reports
        through the same pipeline."""
        from repro.spec.specification import AtomicitySpecification

        program = array_program()
        spec = AtomicitySpecification.initial(program)
        checker = DoubleChecker(spec, instrument_arrays=True)
        result = checker.run_single(array_program(), scheduler())
        assert result.icd_stats.array_accesses_skipped == 0
        assert result.icd_stats.instrumented_accesses > 0

    def test_array_granularity_requires_cycle_detection_off(self):
        """Conflating elements makes ICD imprecise beyond PCD's ability
        to filter (PCD sees the conflated addresses too) — the harness
        always disables cycle detection; verify the combination runs."""
        from repro.spec.specification import AtomicitySpecification

        program = array_program()
        spec = AtomicitySpecification.initial(program)
        checker = DoubleChecker(
            spec,
            instrument_arrays=True,
            array_granularity_object=True,
            cycle_detection=False,
        )
        result = checker.run_single(array_program(), scheduler())
        assert result.icd_stats.sccs == 0

    def test_array_granularity_logs_one_address_per_array(self):
        """Every logged access to the conflated array holds the array's
        one ``(oid, "*")`` tuple."""
        from repro.core.icd import ICD
        from repro.runtime.executor import Executor
        from repro.spec.specification import AtomicitySpecification

        program = array_program()
        icd = ICD(
            AtomicitySpecification.initial(program),
            instrument_arrays=True,
            array_granularity_object=True,
            cycle_detection=False,
            gc_interval=None,
        )
        Executor(program, scheduler(), [icd]).run()
        arr = program.make_context().arr
        addresses = [
            entry[1] for tx in icd.tx_manager.all_transactions
            for entry in tx.log or ()
            if entry[1][0] == arr.oid
        ]
        assert addresses
        assert all(address is arr.object_address for address in addresses)
        assert arr.object_address == (arr.oid, "*")

    def test_uninstrumented_arrays_cost_nothing(self):
        from repro.spec.specification import AtomicitySpecification

        program = array_program()
        spec = AtomicitySpecification.initial(program)
        result = DoubleChecker(spec).run_single(array_program(), scheduler())
        assert result.icd_stats.array_accesses_skipped > 0
        assert result.octet_stats.barriers < result.execution.access_count


class TestBudgetAndGcInterplay:
    def test_gc_keeps_budget_satisfied(self):
        """A budget that fails without collection passes with it."""
        program_args = dict(threads=3, iterations=60)
        spec = spec_for(counter_program(**program_args))
        budget = 700
        with pytest.raises(OutOfMemoryBudget):
            DoubleChecker(
                spec, icd_memory_budget=budget, gc_interval=None
            ).run_single(counter_program(**program_args), scheduler())
        DoubleChecker(
            spec, icd_memory_budget=budget, gc_interval=8
        ).run_single(counter_program(**program_args), scheduler())

    def test_run_multi_with_default_schedulers(self):
        spec = spec_for(counter_program(threads=2, iterations=8))
        result = DoubleChecker(spec).run_multi(
            lambda: counter_program(threads=2, iterations=8), first_trials=2
        )
        assert len(result.first_runs) == 2
