"""Analysis-phase throughput benchmark: the cycle-detection clients.

Times the Velodrome per-edge checker, which runs on the incremental
strongly-connected-component engine (``repro.graph``), ICD's
transaction-end Tarjan pass (``repro.core.scc``), and the vector-clock
backend, on the ``hubstress`` workload built for exactly this: one
long *hub* transaction per round anchors itself into a producer
group's ever-growing write chain, then periodically probes old
write-once seed fields.  Every probe would force a whole-graph
per-edge check to exhaust the hub's whole reachable region to *refute*
a cycle, while the engine's component certificate answers in O(1).
The retired arms' last numbers are kept as ``LEGACY_*`` constants:
Velodrome's visit counts are checked against its whole-graph arm, and
ICD's Tarjan schedule must reproduce its recorded visit count exactly.

Records steps/sec and the deterministic visit counters into
``results/BENCH_analysis.json`` so future work has a committed
baseline (``benchmarks/check_bench_regression.py`` compares fresh runs
against it).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_analysis_throughput.py -q

which writes its report under pytest's ``tmp_path``, or standalone
(no pytest-benchmark timings, JSON only), which regenerates the
committed ``results/BENCH_analysis.json``::

    PYTHONPATH=src python benchmarks/bench_analysis_throughput.py
"""

import json
import os
import platform
import sys
import time

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_analysis.json"
)

#: wall-clock repetitions per configuration (minimum is reported)
REPS = 2

#: the retired arms on this workload: Velodrome's whole-graph checker
#: and ICD's first run with the engine off, whose Section 3.2.3
#: schedule ICD runs again.  Their deterministic counters, and
#: steps/sec on the machine that produced the committed
#: BENCH_analysis.json (machine-dependent, like the prechange numbers
#: in bench_access_barrier)
LEGACY_VELODROME = {
    "cycle_checks": 9800,
    "cycle_check_visits": 960127,
    "steps_per_second": 42012,
}
LEGACY_ICD_FIRST = {"scc_visits": 86955, "steps_per_second": 65410}


def hubstress_spec():
    """The cycle-check stress workload (not a Table 2/3 catalog entry)."""
    from repro.workloads.builder import WorkloadSpec

    return WorkloadSpec(
        name="hubstress",
        threads=12,
        iterations=1200,
        shared_objects=2,
        violating_weight=0.02,
        safe_methods=6,
        unary_ops=2,
        array_ops=0,
        unary_shared_period=6,
        hub_scan_iters=600,
        hub_rounds=20,
        hub_threads=1,
        hub_probe_period=6,
        hub_listener_threads=2,
        pad=1,
    )


def _velodrome(spec):
    from repro.harness.runner import make_scheduler
    from repro.spec.specification import AtomicitySpecification
    from repro.velodrome.checker import VelodromeChecker
    from repro.workloads.builder import build_program

    aspec = AtomicitySpecification.initial(build_program(spec))
    best = None
    for _ in range(REPS):
        start = time.perf_counter()
        checker = VelodromeChecker(aspec)
        result = checker.run(build_program(spec), make_scheduler(0))
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    elapsed, result = best
    stats = result.stats
    return {
        "steps_per_second": round(result.execution.steps / elapsed),
        "cycle_checks": stats.cycle_checks,
        "cycle_checks_certified": stats.cycle_checks_certified,
        "cycle_check_visits": stats.cycle_check_visits,
        "engine_search_visits": stats.engine_search_visits,
    }


def _icd_first(spec):
    from repro.core.doublechecker import DoubleChecker
    from repro.harness.runner import make_scheduler
    from repro.spec.specification import AtomicitySpecification
    from repro.workloads.builder import build_program

    aspec = AtomicitySpecification.initial(build_program(spec))
    best = None
    for _ in range(REPS):
        start = time.perf_counter()
        checker = DoubleChecker(aspec)
        result = checker.run_first(build_program(spec), make_scheduler(0))
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    elapsed, result = best
    stats = result.icd_stats
    return {
        "steps_per_second": round(result.execution.steps / elapsed),
        "scc_computations": stats.scc_computations,
        "scc_visits": stats.scc_visits,
    }


def _vc(spec, sync_edges):
    from repro.harness.runner import make_scheduler
    from repro.spec.specification import AtomicitySpecification
    from repro.vc.checker import VcChecker
    from repro.workloads.builder import build_program

    aspec = AtomicitySpecification.initial(build_program(spec))
    best = None
    for _ in range(REPS):
        start = time.perf_counter()
        checker = VcChecker(aspec, sync_edges=sync_edges)
        result = checker.run(build_program(spec), make_scheduler(0))
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    elapsed, result = best
    stats = result.stats
    return {
        "steps_per_second": round(result.execution.steps / elapsed),
        "edges": stats.edges,
        "cycle_checks": stats.cycle_checks,
        "clock_joins": stats.clock_joins,
        "propagations": stats.propagations,
        "cycles_found": stats.cycles_found,
        "fastpath_hits": stats.fastpath_hits,
    }


def _measure():
    spec = hubstress_spec()
    return {
        "hubstress": {
            "velodrome": {"engine": _velodrome(spec)},
            "icd_first": {"tarjan": _icd_first(spec)},
            "vc": {
                "default": _vc(spec, False),
                "sync_edges": _vc(spec, True),
            },
        }
    }


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


def test_analysis_throughput(tmp_path):
    """Writes a fresh report under ``tmp_path`` (never over the
    committed baseline) and checks the recorded bars.

    The visit counters are deterministic — Velodrome's engine must
    certify the overwhelming majority of probe checks and cut visits
    by far more than the 2x the acceptance bar asks for, against the
    recorded whole-graph arm, and ICD's Tarjan schedule must visit
    exactly what the recorded engine-off arm visited.  Steps/sec is
    noisy, so the wall-clock assertions only require each arm not to
    be meaningfully slower than the recorded arms.
    """
    report = write_report(str(tmp_path / "BENCH_analysis.json"))
    rows = report["workloads"]["hubstress"]

    velo = rows["velodrome"]
    assert velo["engine"]["cycle_checks"] == LEGACY_VELODROME["cycle_checks"]
    total_engine = (
        velo["engine"]["cycle_check_visits"]
        + velo["engine"]["engine_search_visits"]
    )
    assert total_engine * 2 <= LEGACY_VELODROME["cycle_check_visits"]
    certified = velo["engine"]["cycle_checks_certified"]
    assert certified >= velo["engine"]["cycle_checks"] * 0.9
    assert (
        velo["engine"]["steps_per_second"]
        >= LEGACY_VELODROME["steps_per_second"] * 0.95
    )

    icd = rows["icd_first"]["tarjan"]
    assert icd["scc_visits"] == LEGACY_ICD_FIRST["scc_visits"]
    assert icd["steps_per_second"] >= LEGACY_ICD_FIRST["steps_per_second"] * 0.85

    # vector-clock arm: with sync edges it builds Velodrome's exact
    # graph, so the per-edge check counts must match Velodrome's; the
    # default arm drops sync-edge work on the floor, never adds any
    vc = rows["vc"]
    assert vc["sync_edges"]["cycle_checks"] == velo["engine"]["cycle_checks"]
    assert vc["default"]["edges"] <= vc["sync_edges"]["edges"]
    assert vc["default"]["cycles_found"] <= vc["sync_edges"]["cycles_found"]
    # the linear-time claim: no graph searches at all, so the vc arm
    # must not be meaningfully slower than the whole-graph per-edge
    # checker
    assert (
        vc["sync_edges"]["steps_per_second"]
        >= LEGACY_VELODROME["steps_per_second"] * 0.9
    )


if __name__ == "__main__":
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "src")
    )
    printed = write_report()
    json.dump(printed, sys.stdout, indent=2, sort_keys=True)
    print()
