"""Violation patterns: each buggy idiom is detected, each safe one is not."""

import pytest

from repro.core.doublechecker import DoubleChecker
from repro.runtime.ops import Invoke
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler
from repro.spec.specification import AtomicitySpecification
from repro.workloads import patterns


def _run_pattern(factory, takes_lane=False, threads=3, iterations=12):
    """Build a fresh program per trial (heap state must not leak)."""
    blamed = set()
    for seed in range(4):
        program = Program("pattern")
        target = program.add_global_object("target")
        aux = program.add_global_object("aux")
        body = factory(target, aux)
        program.method(body, name="candidate")

        def worker(ctx, tid):
            for _ in range(iterations):
                yield Invoke("candidate", (tid,) if takes_lane else ())

        program.method(worker, name="worker")
        program.mark_entry("worker")
        for i in range(threads):
            program.add_thread(f"T{i}", "worker", (i,))
        spec = AtomicitySpecification.initial(program)
        result = DoubleChecker(spec).run_single(
            program, RandomScheduler(seed=seed, switch_prob=0.8)
        )
        blamed |= result.blamed_methods
    return blamed


class TestViolatingPatterns:
    def test_split_rmw_detected(self):
        blamed = _run_pattern(lambda t, a: patterns.split_rmw(t))
        assert "candidate" in blamed

    def test_toctou_detected(self):
        blamed = _run_pattern(lambda t, a: patterns.toctou(t, a))
        assert "candidate" in blamed

    def test_two_phase_locked_detected(self):
        """Race-free but not atomic: the essence of atomicity checking
        beyond race detection."""
        blamed = _run_pattern(lambda t, a: patterns.two_phase_locked(t))
        assert "candidate" in blamed

    def test_read_pair_detected(self):
        # read_pair needs a concurrent writer: pair it with a writer body
        blamed = set()
        for seed in range(4):
            program = Program("pattern")
            target = program.add_global_object("target")
            program.method(patterns.read_pair(target), name="candidate")

            def writer(ctx):
                from repro.runtime.ops import Write

                for i in range(12):
                    yield Write(target, "config", i)

            def worker(ctx):
                for _ in range(12):
                    yield Invoke("candidate")

            program.method(writer, name="writer")
            program.method(worker, name="worker")
            program.mark_entry("worker")
            program.mark_entry("writer")
            program.add_thread("R1", "worker")
            program.add_thread("R2", "worker")
            program.add_thread("W", "writer")
            spec = AtomicitySpecification.initial(program)
            result = DoubleChecker(spec).run_single(
                program, RandomScheduler(seed=seed, switch_prob=0.8)
            )
            blamed |= result.blamed_methods
        assert "candidate" in blamed


class TestSafePatterns:
    def test_locked_rmw_clean(self):
        blamed = _run_pattern(lambda t, a: patterns.locked_rmw(t))
        assert blamed == set()

    def test_shared_read_clean(self):
        blamed = _run_pattern(lambda t, a: patterns.shared_read([t, a]))
        assert blamed == set()

    def test_hot_write_clean(self):
        """Blind writes to one field are serializable at transaction
        granularity only if no read observes them — with write-write
        conflicts only, every interleaving is equivalent to some serial
        order of the writes themselves... but W-W edges both ways do
        form cycles; assert the checker's verdict matches Velodrome's."""
        from repro.velodrome.checker import VelodromeChecker

        for seed in range(3):
            program = Program("pattern")
            target = program.add_global_object("target")
            program.method(patterns.hot_write(target), name="candidate")

            def worker(ctx):
                for _ in range(10):
                    yield Invoke("candidate")

            program.method(worker, name="worker")
            program.mark_entry("worker")
            program.add_thread("A", "worker")
            program.add_thread("B", "worker")
            spec = AtomicitySpecification.initial(program)
            dc = DoubleChecker(spec).run_single(
                program, RandomScheduler(seed=seed, switch_prob=0.8)
            )
            program2 = Program("pattern")
            target2 = program2.add_global_object("target")
            program2.method(patterns.hot_write(target2), name="candidate")
            program2.method(worker, name="worker")
            program2.mark_entry("worker")
            program2.add_thread("A", "worker")
            program2.add_thread("B", "worker")
            velodrome = VelodromeChecker(
                AtomicitySpecification.initial(program2)
            ).run(program2, RandomScheduler(seed=seed, switch_prob=0.8))
            assert dc.blamed_methods == velodrome.blamed_methods

    def test_field_sliced_never_precisely_cyclic(self):
        """Per-thread fields: ICD sees SCCs, PCD must filter them all."""
        from repro.core.icd import ICD
        from repro.core.pcd import PCD
        from repro.runtime.executor import Executor

        program = Program("sliced")
        target = program.add_global_object("target")
        program.method(patterns.field_sliced(target), name="candidate")

        def worker(ctx, tid):
            for _ in range(15):
                yield Invoke("candidate", (tid,))

        program.method(worker, name="worker")
        program.mark_entry("worker")
        for i in range(3):
            program.add_thread(f"T{i}", "worker", (i,))
        spec = AtomicitySpecification.initial(program)

        violations = []
        icd = ICD(spec, on_scc=lambda c: violations.extend(pcd.process(c)))
        pcd = PCD(icd.octet.conflicted)
        Executor(
            program, RandomScheduler(seed=5, switch_prob=0.8), [icd]
        ).run()
        assert icd.stats.sccs > 0          # imprecise cycles exist
        assert violations == []            # none are precise
