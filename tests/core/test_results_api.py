"""Result-object ergonomics: the fields downstream users consume."""

from repro.core.doublechecker import DoubleChecker
from repro.runtime.scheduler import RandomScheduler

from tests.util import counter_program, spec_for


def test_single_run_result_surface():
    program = counter_program(threads=2, iterations=8)
    result = DoubleChecker(spec_for(program)).run_single(
        program, RandomScheduler(seed=2, switch_prob=0.6)
    )
    # the documented stat groups are all populated
    assert result.execution.steps > 0
    assert result.icd_stats.instrumented_accesses > 0
    assert result.octet_stats.barriers == result.icd_stats.instrumented_accesses
    assert result.tx_stats.regular_transactions > 0
    assert result.pcd_stats is not None
    assert isinstance(result.protocol_stats, dict)
    assert {"rounds", "explicit_responses", "implicit_responses"} <= set(
        result.protocol_stats
    )
    assert result.elision_stats.logged > 0
    assert result.blamed_methods == result.violations.blamed_methods()


def test_first_run_result_surface():
    program = counter_program(threads=2, iterations=8)
    result = DoubleChecker(spec_for(program)).run_first(
        program, RandomScheduler(seed=2, switch_prob=0.6)
    )
    assert result.static_info is not None
    assert result.icd_stats.log_entries == 0


def test_multi_run_result_surface():
    result = DoubleChecker(
        spec_for(counter_program(threads=2, iterations=8))
    ).run_multi(
        lambda: counter_program(threads=2, iterations=8),
        first_trials=2,
        scheduler_factory=lambda t: RandomScheduler(seed=t, switch_prob=0.6),
        second_scheduler=RandomScheduler(seed=9, switch_prob=0.6),
    )
    assert result.violations is result.second_run.violations
    assert len(result.first_runs) == 2
    assert result.static_info.methods or result.static_info.any_unary


def test_octet_stats_consistency():
    program = counter_program(threads=2, iterations=8)
    result = DoubleChecker(spec_for(program)).run_single(
        program, RandomScheduler(seed=2, switch_prob=0.6)
    )
    stats = result.octet_stats
    assert stats.barriers == stats.fast_path + stats.slow_path()
    assert stats.conflicting == sum(stats.conflicting_by_kind.values())
