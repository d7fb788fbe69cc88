"""Telemetry-overhead microbenchmark.

Measures what the observability layer costs the uninstrumented
executor on three catalog workloads (hsqldb6, xalan6, sor) and records
the results into ``results/BENCH_obs.json``.

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

which writes its report under pytest's ``tmp_path``, or standalone
(JSON only), which regenerates the committed ``results/BENCH_obs.json``::

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

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_obs.json"
)


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
            report[name] = {
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
    finally:
        if gc_was_enabled:
            gc.enable()
    return report


def write_report(path=RESULTS_PATH):
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
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def check_overhead_budget(report):
    """Return a list of budget violations (empty = within budget)."""
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


def test_disabled_mode_overhead(tmp_path):
    """Off-mode throughput must stay within the 2% budget of the
    pre-telemetry loop (median of paired rounds); the report goes under
    ``tmp_path``, never over the committed baseline."""
    report = write_report(str(tmp_path / "BENCH_obs.json"))
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
