"""Telemetry determinism across the parallel harness.

Counters are derived from the analyzed execution, never from wall-clock
time, and :meth:`CellPool.starmap` merges per-cell snapshots in
submission order — so a serial run and a ``--jobs N`` run of the same
cells must produce *identical* merged counters and gauges.  Histograms
and span events carry wall-clock durations and are exempt.

A full-mode ``--jobs`` run must also merge into one schema-valid trace
timeline: a single trace id, and a labeled ``cell-worker`` track for
each worker process that ran a cell.
"""

import os

import pytest

from repro.harness import runner, table3
from repro.harness.parallel import CellPool
from repro.obs.analyze import validate_trace
from repro.obs.export import chrome_trace_document
from repro.obs.registry import (
    MetricsRegistry,
    MODE_COUNTERS,
    MODE_FULL,
    recorder,
    use_registry,
)

WORKLOAD = "hedc"


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path))
    runner._FINAL_SPEC_MEMO.clear()
    yield
    runner._FINAL_SPEC_MEMO.clear()


def _cells(spec):
    return [
        ("velodrome", WORKLOAD, spec, seed) for seed in range(3)
    ] + [
        ("single", WORKLOAD, spec, seed) for seed in range(3)
    ] + [
        ("first", WORKLOAD, spec, 7),
        ("first", WORKLOAD, spec, 0),
    ]


def _run_cells(jobs, mode=MODE_COUNTERS):
    registry = MetricsRegistry(mode)
    previous = use_registry(registry)
    try:
        with CellPool(jobs) as pool:
            results = pool.starmap(runner.run_cell, _cells(spec_for_test()))
    finally:
        use_registry(previous)
    return results, registry.snapshot()


def spec_for_test():
    return runner.initial_spec(WORKLOAD)


def test_serial_and_parallel_merged_counters_identical():
    serial_results, serial = _run_cells(jobs=1)
    parallel_results, parallel = _run_cells(jobs=2)
    assert serial["counters"] == parallel["counters"]
    assert serial["gauges"] == parallel["gauges"]
    assert serial["counters"], "expected a non-empty merged snapshot"
    # the telemetry wrapper must not change the cell results either
    assert len(serial_results) == len(parallel_results)
    for s, p in zip(serial_results[:3], parallel_results[:3]):
        assert s.blamed_methods == p.blamed_methods


def test_full_mode_counters_still_deterministic():
    _, serial = _run_cells(jobs=1, mode=MODE_FULL)
    _, parallel = _run_cells(jobs=2, mode=MODE_FULL)
    assert serial["counters"] == parallel["counters"]
    # events exist in both but carry wall-clock data (not compared)
    assert serial["events"] and parallel["events"]


def test_experiment_generation_deterministic_under_obs():
    """A whole experiment (refinement included) merges identically."""

    def generate(jobs):
        runner._FINAL_SPEC_MEMO.clear()
        runner.clear_caches()
        registry = MetricsRegistry(MODE_COUNTERS)
        previous = use_registry(registry)
        try:
            with CellPool(jobs) as pool:
                result = table3.generate([WORKLOAD], pool=pool)
        finally:
            use_registry(previous)
        return result.render(), registry.snapshot()

    render_serial, serial = generate(jobs=1)
    render_parallel, parallel = generate(jobs=2)
    assert render_serial == render_parallel
    assert serial["counters"] == parallel["counters"]
    assert serial["gauges"] == parallel["gauges"]


def test_jobs_full_mode_merges_single_timeline():
    """``--jobs 2 --obs full`` must produce ONE schema-valid trace: a
    single trace id, and worker processes labeled ``cell-worker`` on
    tracks of their own (the only cross-process use of
    :func:`~repro.obs.wire.trace_context` and
    :func:`~repro.obs.wire.aligned_epoch`)."""
    _, snapshot = _run_cells(jobs=2, mode=MODE_FULL)
    doc = chrome_trace_document(snapshot)
    assert validate_trace(doc) == []

    assert doc["otherData"]["trace_id"] == snapshot["trace_id"]
    worker_pids = {
        pid for pid, label in snapshot["labels"].items()
        if label == "cell-worker"
    }
    assert worker_pids - {os.getpid()}, "expected a worker-process track"
    span_pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert worker_pids <= span_pids


def test_disabled_mode_parallel_path_unchanged():
    use_registry(None)
    assert recorder().enabled is False
    with CellPool(2) as pool:
        results = pool.starmap(
            runner.run_cell, [("first", WORKLOAD, spec_for_test(), 0)] * 2
        )
    assert all(r.execution.steps > 0 for r in results)
