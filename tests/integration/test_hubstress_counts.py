"""Exact counts of the online checkers on the hubstress stress program.

This hubstress has twice the iterations and hub rounds of the layer
ledger's (``benchmarks/layers/workloads.py``) and loads every layer
at once.  One long *hub* transaction per round anchors itself into a
producer group's ever-growing write chain, then probes old write-once
fields: most barriers still take Octet's fused fast path, single-run
mode logs ~165k accesses, and without the transaction clocks every
probe would make Velodrome's per-edge cycle check exhaust the hub's
reachable region to refute a cycle.

Every count is deterministic at scheduler seed 0, so a change that
moves one changed what a checker does, not how fast it does it.  Some
were first recorded by arms since retired, and pin that the code
replacing them is a pure optimization:

* the single-run counts are the classify-everything pipeline's (both
  fast paths off);
* the first run's SCC visits are those of ICD's first run without the
  incremental cycle-detection engine;
* Velodrome makes the whole-graph checker's 9,800 cycle checks, and
  its clock-bounded DFSs visit under half of that checker's 960,127
  nodes.
"""

import pytest

from repro.core.doublechecker import DoubleChecker
from repro.harness.runner import make_scheduler
from repro.spec.specification import AtomicitySpecification
from repro.velodrome.checker import VelodromeChecker
from repro.workloads.builder import WorkloadSpec, build_program

HUBSTRESS = WorkloadSpec(
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

#: cycle-check visits of the retired whole-graph Velodrome checker
WHOLE_GRAPH_VISITS = 960_127


@pytest.fixture(scope="module")
def spec():
    return AtomicitySpecification.initial(build_program(HUBSTRESS))


def test_single_run_counts(spec):
    result = DoubleChecker(spec).run_single(
        build_program(HUBSTRESS), make_scheduler(0)
    )
    octet, icd = result.octet_stats, result.icd_stats
    assert octet.barriers == 181_680
    assert octet.fast_path == 169_735
    # every fast-path hit is resolved inside the fused barrier
    assert octet.fast_path_fused == octet.fast_path
    assert icd.idg_edges == 9_704
    assert icd.log_entries == 164_839
    assert icd.sccs == 1_799
    assert len(result.violations.records) == 129


def test_first_run_scc_passes(spec):
    result = DoubleChecker(spec).run_first(
        build_program(HUBSTRESS), make_scheduler(0)
    )
    assert result.icd_stats.scc_computations == 10_289
    assert result.icd_stats.scc_visits == 86_955


def test_velodrome_cycle_checks(spec):
    stats = VelodromeChecker(spec).run(
        build_program(HUBSTRESS), make_scheduler(0)
    ).stats
    assert stats.cycle_checks == 9_800
    # the clocks alone refute all but the 120 checks that close a cycle
    assert stats.cycle_checks_certified == 9_680
    assert stats.cycle_check_visits == 291
    assert 2 * stats.cycle_check_visits <= WHOLE_GRAPH_VISITS
