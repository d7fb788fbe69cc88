"""Replaying traces through the online checkers."""

import pytest

from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.core.reports import ViolationSummary
from repro.runtime.scheduler import RandomScheduler
from repro.trace.recorder import Trace, record_execution
from repro.trace.replay import replay_trace
from repro.velodrome.checker import VelodromeChecker

from tests.util import counter_program, spec_for


@pytest.fixture(scope="module")
def trace_and_spec():
    program = counter_program(threads=3, iterations=12)
    spec = spec_for(program)
    trace = record_execution(program, RandomScheduler(seed=8, switch_prob=0.7))
    return trace, spec


def test_velodrome_offline_equals_online(trace_and_spec):
    trace, spec = trace_and_spec
    online = VelodromeChecker(spec)
    program = counter_program(threads=3, iterations=12)
    online_result = online.run(program, RandomScheduler(seed=8, switch_prob=0.7))

    offline = VelodromeChecker(spec)
    replay_trace(trace, [offline])
    assert offline.violations.blamed_methods() == online_result.blamed_methods
    assert offline.stats.edges == online_result.stats.edges


def test_doublechecker_pipeline_over_replay(trace_and_spec):
    trace, spec = trace_and_spec
    violations = ViolationSummary()
    icd = ICD(spec, on_scc=lambda c: violations.extend(pcd.process(c)))
    pcd = PCD(icd.octet.conflicted)
    replay_trace(trace, [icd])
    assert violations.blamed_methods() == {"rmw"}


def test_replay_is_deterministic(trace_and_spec):
    trace, spec = trace_and_spec

    def run():
        checker = VelodromeChecker(spec)
        replay_trace(trace, [checker])
        return (checker.stats.edges, frozenset(checker.violations.blamed_methods()))

    assert run() == run()


def test_replay_after_serialization(trace_and_spec, tmp_path):
    trace, spec = trace_and_spec
    path = tmp_path / "t.jsonl"
    trace.save(str(path))
    restored = Trace.load(str(path))
    checker = VelodromeChecker(spec)
    replay_trace(restored, [checker])
    assert checker.violations.blamed_methods() == {"rmw"}


def test_unknown_record_kind_rejected():
    with pytest.raises(ValueError):
        replay_trace(Trace([("??", 1)]), [])
