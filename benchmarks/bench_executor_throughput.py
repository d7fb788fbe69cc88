"""Executor hot-path throughput microbenchmark.

Times the scheduler loop itself — uninstrumented (no listeners, the
Figure 7 baseline configuration) and with the single-run DoubleChecker
pipeline attached — and records steps/sec into
``results/BENCH_executor.json`` so future optimization work has a
committed baseline to compare against.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_executor_throughput.py -q

which writes its report under pytest's ``tmp_path``, or standalone
(no pytest-benchmark timings, JSON only), which regenerates the
committed ``results/BENCH_executor.json``::

    PYTHONPATH=src python benchmarks/bench_executor_throughput.py
"""

import json
import os
import platform
import sys

BENCH_NAMES = ["hsqldb6", "xalan6", "sor"]
RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_executor.json"
)


def _measure():
    """steps/sec per workload for the executor configurations."""
    from repro.harness import runner

    report = {}
    for name in BENCH_NAMES:
        spec = runner.final_spec(name)
        baseline = runner.baseline_steps(name, seed=0)
        single = runner.run_single(name, spec, seed=0)
        report[name] = {
            "steps": baseline.steps,
            "baseline_steps_per_second": round(baseline.steps_per_second),
            "single_run_steps_per_second": round(
                single.execution.steps_per_second
            ),
        }
    return report


def write_report(path=RESULTS_PATH):
    report = {
        "python": platform.python_version(),
        "workloads": _measure(),
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def test_executor_throughput(benchmark, tmp_path):
    """Times the uninstrumented hsqldb6 run and checks a fresh report
    (written under ``tmp_path``, never over the committed baseline)."""
    from repro.harness import runner

    result = benchmark.pedantic(
        lambda: runner.baseline_steps("hsqldb6", seed=0),
        rounds=3,
        iterations=1,
    )
    assert result.steps_per_second > 0
    report = write_report(str(tmp_path / "BENCH_executor.json"))
    for stats in report["workloads"].values():
        assert stats["baseline_steps_per_second"] > 0
        assert stats["single_run_steps_per_second"] > 0
        # instrumentation costs something; baseline must stay faster
        assert (
            stats["baseline_steps_per_second"]
            > stats["single_run_steps_per_second"]
        )


if __name__ == "__main__":
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "src")
    )
    printed = write_report()
    json.dump(printed, sys.stdout, indent=2, sort_keys=True)
    print()
