"""Property tests over the trace subsystem: replay fidelity.

A recorded trace must be a *complete* substitute for the live
execution from any analysis's point of view: replaying it through a
checker yields exactly the live checker's results, across random
programs, schedules, and a serialization round-trip.
"""

from hypothesis import given, settings

from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.core.reports import ViolationSummary
from repro.oracle.happens_before import HappensBeforeTracker
from repro.runtime.executor import Executor
from repro.runtime.scheduler import RandomScheduler
from repro.spec.specification import AtomicitySpecification
from repro.trace.recorder import Trace, TraceRecorder
from repro.trace.replay import replay_trace
from repro.velodrome.checker import VelodromeChecker

from tests.integration.test_soundness_properties import (
    materialize,
    program_strategy,
)


def record(method_specs, thread_scripts, seed):
    program = materialize(method_specs, thread_scripts)
    spec = AtomicitySpecification.initial(program)
    recorder = TraceRecorder()
    Executor(
        program, RandomScheduler(seed=seed, switch_prob=0.7), [recorder]
    ).run()
    return spec, recorder.trace


@given(program_strategy)
@settings(max_examples=40, deadline=None)
def test_velodrome_replay_equals_live(case):
    method_specs, thread_scripts, seed = case
    spec, trace = record(method_specs, thread_scripts, seed)

    live = VelodromeChecker(spec)
    live.run(
        materialize(method_specs, thread_scripts),
        RandomScheduler(seed=seed, switch_prob=0.7),
    )
    replayed = VelodromeChecker(spec)
    replay_trace(trace, [replayed])
    assert replayed.violations.blamed_methods() == live.violations.blamed_methods()
    assert replayed.stats.edges == live.stats.edges
    assert (
        replayed.tx_manager.stats.regular_transactions
        == live.tx_manager.stats.regular_transactions
    )


@given(program_strategy)
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip_preserves_analysis(case):
    method_specs, thread_scripts, seed = case
    spec, trace = record(method_specs, thread_scripts, seed)
    restored = Trace.from_jsonl(trace.to_jsonl())

    def dc_blames(t):
        violations = ViolationSummary()
        icd = ICD(spec, on_scc=lambda c: violations.extend(pcd.process(c)))
        pcd = PCD(icd.octet.conflicted)
        replay_trace(t, [icd])
        return violations.blamed_methods()

    assert dc_blames(trace) == dc_blames(restored)


@given(program_strategy)
@settings(max_examples=30, deadline=None)
def test_octet_ordering_holds_over_replay(case):
    """The happens-before theorem holds when Octet is driven by a
    replayed trace too (the shims preserve object identity)."""
    method_specs, thread_scripts, seed = case
    spec, trace = record(method_specs, thread_scripts, seed)
    icd = ICD(spec)
    tracker = HappensBeforeTracker()
    icd.octet.add_listener(tracker)
    replay_trace(trace, [icd, tracker])
    assert tracker.verify() == []
