"""DoubleChecker's execution modes end to end."""

import pytest

from repro.core.doublechecker import DoubleChecker
from repro.core.static_info import StaticTransactionInfo
from repro.errors import OutOfMemoryBudget
from repro.runtime.ops import Compute, Invoke, Read, Write
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler

from tests.util import counter_program, spec_for


def scheduler(seed=1):
    return RandomScheduler(seed=seed, switch_prob=0.7)


class TestSingleRun:
    def test_detects_violation(self):
        program = counter_program(threads=2, iterations=12)
        checker = DoubleChecker(spec_for(program))
        result = checker.run_single(program, scheduler())
        assert result.blamed_methods == {"rmw"}
        assert result.pcd_stats is not None
        assert result.pcd_stats.cycles_found > 0

    def test_clean_program_reports_nothing(self):
        program = counter_program(threads=2, iterations=12, locked=True)
        checker = DoubleChecker(spec_for(program))
        result = checker.run_single(program, scheduler())
        assert result.blamed_methods == set()

    def test_stats_populated(self):
        program = counter_program(threads=2, iterations=8)
        result = DoubleChecker(spec_for(program)).run_single(
            program, scheduler()
        )
        assert result.execution.steps > 0
        assert result.icd_stats.instrumented_accesses > 0
        assert result.octet_stats.barriers > 0
        assert result.tx_stats.regular_transactions == 16


class TestMultiRun:
    def test_first_run_produces_static_info(self):
        program = counter_program(threads=2, iterations=12)
        checker = DoubleChecker(spec_for(program))
        first = checker.run_first(program, scheduler())
        assert "rmw" in first.static_info.methods
        assert first.icd_stats.log_entries == 0

    def test_second_run_detects_with_info(self):
        checker = DoubleChecker(
            spec_for(counter_program(threads=2, iterations=12))
        )
        info = StaticTransactionInfo(frozenset({"rmw"}), True)
        result = checker.run_second(
            counter_program(threads=2, iterations=12), info, scheduler()
        )
        assert result.blamed_methods == {"rmw"}

    def test_second_run_with_empty_info_instruments_nothing(self):
        checker = DoubleChecker(
            spec_for(counter_program(threads=2, iterations=12))
        )
        result = checker.run_second(
            counter_program(threads=2, iterations=12),
            StaticTransactionInfo.empty(),
            scheduler(),
        )
        assert result.icd_stats.instrumented_accesses == 0
        assert result.tx_stats.skipped_accesses > 0
        assert result.blamed_methods == set()

    def test_second_run_skips_unidentified_methods(self):
        """A benign method outside the static set must not be
        instrumented."""
        program = counter_program(threads=2, iterations=6)
        checker = DoubleChecker(spec_for(program))
        info = StaticTransactionInfo(frozenset({"not_rmw"}), False)
        result = checker.run_second(program, info, scheduler())
        assert result.tx_stats.unmonitored_transactions > 0

    def test_full_pipeline(self):
        factory = lambda: counter_program(threads=2, iterations=12)
        checker = DoubleChecker(spec_for(factory()))
        result = checker.run_multi(
            factory,
            first_trials=3,
            scheduler_factory=lambda t: scheduler(seed=100 + t),
            second_scheduler=scheduler(seed=999),
        )
        assert len(result.first_runs) == 3
        assert "rmw" in result.static_info.methods
        assert result.violations.blamed_methods() == {"rmw"}

    def test_always_instrument_unary_variant(self):
        program = counter_program(threads=2, iterations=8)
        checker = DoubleChecker(spec_for(program))
        info = StaticTransactionInfo(frozenset({"rmw"}), False)
        restricted = checker.run_second(
            counter_program(threads=2, iterations=8), info, scheduler()
        )
        unconditional = checker.run_second(
            counter_program(threads=2, iterations=8),
            info,
            scheduler(),
            always_instrument_unary=True,
        )
        assert (
            unconditional.tx_stats.unary_accesses
            >= restricted.tx_stats.unary_accesses
        )


class TestPcdOnly:
    def test_finds_same_violations_as_single(self):
        def run(mode):
            program = counter_program(threads=2, iterations=12)
            checker = DoubleChecker(spec_for(program))
            if mode == "single":
                return checker.run_single(program, scheduler(seed=7))
            return checker.run_pcd_only(program, scheduler(seed=7))

        assert run("single").blamed_methods == run("pcd").blamed_methods

    def test_processes_every_transaction(self):
        program = counter_program(threads=2, iterations=10)
        checker = DoubleChecker(spec_for(program))
        result = checker.run_pcd_only(program, scheduler())
        single = DoubleChecker(spec_for(counter_program(threads=2, iterations=10)))
        baseline = single.run_single(
            counter_program(threads=2, iterations=10), scheduler()
        )
        assert (
            result.pcd_stats.transactions_processed
            >= baseline.pcd_stats.transactions_processed
        )

    def test_memory_budget_reproduces_oom(self):
        program = counter_program(threads=3, iterations=60)
        checker = DoubleChecker(spec_for(program), pcd_memory_budget=50)
        with pytest.raises(OutOfMemoryBudget):
            checker.run_pcd_only(program, scheduler())


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run():
            program = counter_program(threads=3, iterations=15)
            checker = DoubleChecker(spec_for(program))
            result = checker.run_single(program, scheduler(seed=42))
            return (
                result.blamed_methods,
                result.icd_stats.idg_edges,
                result.icd_stats.sccs,
            )

        assert run() == run()
