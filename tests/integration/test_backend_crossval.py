"""Backend cross-validation goldens over the full workload catalog.

Runs every catalog workload (seed 0) under all three online backends —
single-run ICD+PCD, Velodrome, and the vector-clock checker — plus the
vc backend with synchronization edges enabled, the whole-trace oracle
(with and without synchronization edges) recorded on the same
schedule, and vc over a replay of that recording, and pins the
agreement contract between the arms:

* boolean verdicts agree everywhere (and match a committed golden);
* vc's blamed methods are a subset of Velodrome's, with exact equality
  on the workloads where the cycles are all data-conflict 2-cycles;
* the one *designed* divergence — release-acquire-only cycles, which
  Velodrome reports and the no-sync-edges arms do not — is asserted on
  a purpose-built program, not ignored;
* replaying a recorded trace through the vc checker reproduces the
  live run verdict-for-verdict.
"""

import pytest

from repro.core.doublechecker import DoubleChecker
from repro.harness import runner
from repro.harness.backends import recorded_verdicts
from repro.runtime.ops import Acquire, Compute, Invoke, Read, Release, Write
from repro.runtime.program import Program
from repro.spec.specification import AtomicitySpecification
from repro.trace.recorder import record_execution
from repro.trace.replay import replay_trace
from repro.vc.checker import VcChecker
from repro.velodrome.checker import VelodromeChecker
from repro.workloads import all_names, build

SEED = 0

#: golden: catalog workloads where every arm reports a violation at seed 0
VIOLATING = {
    "eclipse6",
    "lusearch6",
    "xalan6",
    "avrora9",
    "xalan9",
    "elevator",
}

#: golden: workloads whose vc blame set equals Velodrome's exactly
#: (every cycle there is a data-conflict 2-cycle, so the closing edge's
#: destination — vc's blame rule — is also Velodrome's pick)
BLAME_EQUAL = {"lusearch6", "xalan6", "elevator"}


@pytest.fixture(scope="module")
def matrix():
    """name -> dict of per-arm results over the whole catalog."""
    out = {}
    for name in all_names():
        spec = runner.initial_spec(name)
        icd = runner.run_single(name, spec, SEED)
        velodrome = runner.run_velodrome(name, spec, SEED)
        vc = runner.run_vc(name, spec, SEED)
        vc_sync = runner.run_vc(name, spec, SEED, sync_edges=True)
        oracle, oracle_data, replay = recorded_verdicts(name, spec, SEED)
        out[name] = {
            "icd": icd,
            "velodrome": velodrome,
            "vc": vc,
            "vc_sync": vc_sync,
            "oracle": oracle,
            "oracle_data": oracle_data,
            "replay": replay,
        }
    return out


@pytest.mark.parametrize("name", all_names())
def test_boolean_verdicts_agree(matrix, name):
    """All seven arms return the same verdict, matching the golden."""
    arms = matrix[name]
    expected = name in VIOLATING
    assert bool(arms["icd"].violations) == expected
    assert bool(arms["velodrome"].violations) == expected
    assert bool(arms["vc"].violations) == expected
    assert bool(arms["vc_sync"].violations) == expected
    assert arms["oracle"] == expected
    assert arms["oracle_data"] == expected
    assert arms["replay"] == expected


@pytest.mark.parametrize("name", all_names())
def test_vc_blame_is_subset_of_velodrome(matrix, name):
    arms = matrix[name]
    assert arms["vc"].blamed_methods <= arms["velodrome"].blamed_methods


@pytest.mark.parametrize("name", sorted(BLAME_EQUAL))
def test_vc_blame_equals_velodrome_on_two_cycles(matrix, name):
    arms = matrix[name]
    assert arms["vc"].blamed_methods == arms["velodrome"].blamed_methods
    assert arms["vc"].blamed_methods  # golden set is non-trivial


@pytest.mark.parametrize("name", all_names())
def test_vc_sync_builds_velodrome_graph(matrix, name):
    """With sync edges, the vc arm adds the same deduplicated cross
    edges Velodrome does (cycle checks count exactly those)."""
    arms = matrix[name]
    assert (
        arms["vc_sync"].stats.cycle_checks
        == arms["velodrome"].stats.cycle_checks
    )


# ----------------------------------------------------------------------
# the designed divergence: release-acquire-only cycles
# ----------------------------------------------------------------------
def _sync_only_program():
    """Two atomic methods whose only interaction is a shared lock each
    takes twice with a gap: release-acquire edges close a cycle between
    overlapping transactions, but no data conflict exists (the paper's
    Section 6 false-positive shape)."""
    program = Program("synconly")
    lock = program.add_global_object("lock")
    mine = program.add_global_objects("mine", 2)

    def double_critical(ctx, lane):
        yield Acquire(lock)
        value = yield Read(mine[lane], "x")
        yield Write(mine[lane], "x", (value or 0) + 1)
        yield Release(lock)
        yield Compute(2)
        yield Acquire(lock)
        value = yield Read(mine[lane], "y")
        yield Write(mine[lane], "y", (value or 0) + 1)
        yield Release(lock)

    def worker(ctx, lane):
        for _ in range(6):
            yield Invoke("double_critical", (lane,))

    program.method(double_critical, name="double_critical")
    program.method(worker, name="worker")
    program.mark_entry("worker")
    program.add_thread("A", "worker", (0,))
    program.add_thread("B", "worker", (1,))
    return program


class TestSyncEdgeDivergence:
    """The only allowed disagreement, asserted in both directions."""

    def _run(self, checker_factory):
        program = _sync_only_program()
        spec = AtomicitySpecification.initial(_sync_only_program())
        checker = checker_factory(spec)
        return checker.run(program, runner.make_scheduler(13))

    def test_velodrome_reports_the_sync_cycle(self):
        result = self._run(VelodromeChecker)
        assert "double_critical" in result.blamed_methods

    def test_doublechecker_reports_it(self):
        """DoubleChecker follows Velodrome: release-acquire edges are
        dependences."""
        spec = AtomicitySpecification.initial(_sync_only_program())
        result = DoubleChecker(spec).run_single(
            _sync_only_program(), runner.make_scheduler(13)
        )
        assert "double_critical" in result.blamed_methods

    def test_vc_default_skips_it_deliberately(self):
        result = self._run(VcChecker)
        assert not result.violations
        assert result.stats.sync_accesses_skipped > 0

    def test_vc_with_sync_edges_reports_it(self):
        result = self._run(lambda spec: VcChecker(spec, sync_edges=True))
        assert "double_critical" in result.blamed_methods


# ----------------------------------------------------------------------
# replay-vs-live identity for the vc backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["hedc", "lusearch6", "xalan6"])
def test_vc_replay_equals_live(matrix, name):
    """Replaying a recorded trace of the same schedule through a fresh
    VcChecker reproduces the live run exactly: verdicts, blame, and
    the deterministic graph/clock counters."""
    live = matrix[name]["vc"]
    spec = runner.initial_spec(name)
    trace = record_execution(build(name), runner.make_scheduler(SEED))

    replayed = VcChecker(spec)
    replay_trace(trace, [replayed])

    assert replayed.violations.blamed_methods() == live.blamed_methods
    assert len(replayed.violations.records) == len(live.violations.records)
    assert replayed.stats.edges == live.stats.edges
    assert replayed.stats.cycle_checks == live.stats.cycle_checks
    assert replayed.stats.clock_joins == live.stats.clock_joins
    assert replayed.stats.cycles_found == live.stats.cycles_found
