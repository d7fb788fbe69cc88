"""End-to-end instrumentation: registry counters must byte-match the
legacy ``*Stats`` dataclasses after a checker run."""

import dataclasses
import gc

import pytest

from repro.harness import runner
from repro.obs.registry import (
    MetricsRegistry,
    MODE_COUNTERS,
    MODE_FULL,
    recorder,
    use_registry,
)
from repro.runtime.executor import Executor
from repro.runtime.listeners import ExecutionListener

from tests.util import counter_program

WORKLOAD = "hedc"


@pytest.fixture(autouse=True)
def restore_recorder():
    previous = recorder()
    yield
    use_registry(previous)


@pytest.fixture
def registry():
    reg = MetricsRegistry(MODE_FULL)
    previous = use_registry(reg)
    yield reg
    use_registry(previous)


def _assert_stats_match(counters, prefix, stats, skip=()):
    """Every published int field of ``stats`` must byte-match its
    counter; dict fields must match key-wise."""
    checked = 0
    for field in dataclasses.fields(stats):
        if field.name in skip:
            continue
        value = getattr(stats, field.name)
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            assert counters.get(f"{prefix}.{field.name}", 0) == value, (
                f"{prefix}.{field.name}"
            )
            checked += 1
        elif isinstance(value, dict):
            for key, entry in value.items():
                if isinstance(entry, int) and not isinstance(entry, bool):
                    assert counters.get(f"{prefix}.{field.name}.{key}", 0) == entry
                    checked += 1
    assert checked, f"no integer fields published for {prefix}"


def test_single_run_counters_byte_match_legacy_stats(registry):
    spec = runner.initial_spec(WORKLOAD)
    result = runner.run_single(WORKLOAD, spec, seed=0)
    counters = registry.snapshot()["counters"]

    _assert_stats_match(counters, "icd", result.icd_stats)
    _assert_stats_match(counters, "octet", result.octet_stats)
    _assert_stats_match(counters, "transactions", result.tx_stats)
    _assert_stats_match(
        counters, "gc", result.gc_stats,
        skip=("peak_live_transactions", "peak_live_log_entries"),
    )
    _assert_stats_match(counters, "pcd", result.pcd_stats)

    # executor-level counters reflect the same execution
    assert counters["executor.steps"] == result.execution.steps
    assert counters["executor.accesses"] == result.execution.access_count
    assert counters["executor.runs"] == 1
    assert counters["executor.threads"] == len(result.execution.thread_names)

    # GC peaks are max-merged gauges, not counters
    gauges = registry.snapshot()["gauges"]
    assert gauges["gc.peak_live_transactions"] == (
        result.gc_stats.peak_live_transactions
    )


def test_velodrome_counters_byte_match_legacy_stats(registry):
    spec = runner.initial_spec(WORKLOAD)
    result = runner.run_velodrome(WORKLOAD, spec, seed=0)
    counters = registry.snapshot()["counters"]
    _assert_stats_match(counters, "velodrome", result.stats)


def test_disabled_mode_records_nothing():
    use_registry(None)
    spec = runner.initial_spec(WORKLOAD)
    result = runner.run_single(WORKLOAD, spec, seed=0)
    assert result.execution.steps > 0
    assert recorder().snapshot()["counters"] == {}


class CollectingListener(ExecutionListener):
    """Runs a cyclic collection at every thread start, noting the
    ``gc.callbacks`` the run sees; raises there if ``fail``."""

    def __init__(self, fail=False):
        self.fail = fail
        self.seen = None

    def on_thread_start(self, thread_name):
        self.seen = list(gc.callbacks)
        gc.collect()
        if self.fail:
            raise RuntimeError("listener failed")


def collecting_run(fail=False):
    listener = CollectingListener(fail)
    Executor(counter_program(threads=2, iterations=2), None, [listener]).run()
    return listener


@pytest.mark.parametrize("mode", [MODE_COUNTERS, MODE_FULL])
def test_cyclic_gc_probe_covers_the_run_only(mode):
    before = list(gc.callbacks)
    use_registry(MetricsRegistry(mode))
    listener = collecting_run()
    assert gc.callbacks == before
    assert len(listener.seen) == len(before) + 1
    histograms = recorder().histograms
    collections = histograms["executor.cyclic_gc.collections"]
    seconds = histograms["executor.cyclic_gc.seconds"]
    assert collections.count == seconds.count == 1
    assert collections.total >= 2  # one per thread start
    assert seconds.total > 0


def test_cyclic_gc_probe_is_removed_when_the_run_raises():
    before = list(gc.callbacks)
    use_registry(MetricsRegistry(MODE_COUNTERS))
    with pytest.raises(RuntimeError, match="listener failed"):
        collecting_run(fail=True)
    assert gc.callbacks == before


def test_cyclic_gc_probe_is_not_installed_with_telemetry_off():
    before = list(gc.callbacks)
    use_registry(None)
    listener = collecting_run()
    assert listener.seen == before
    assert gc.callbacks == before
