"""Executor semantics: stepping, heap, calls, fork/join, errors."""

import pytest

from repro.errors import DeadlockError, ProgramError, StepLimitExceeded
from repro.runtime.events import AccessKind
from repro.runtime.executor import Executor, run_program
from repro.runtime.listeners import ExecutionListener
from repro.runtime.ops import (
    Acquire,
    Compute,
    Fork,
    Invoke,
    Join,
    New,
    NewArray,
    ArrayRead,
    ArrayWrite,
    Read,
    Release,
    Write,
)
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler, RoundRobinScheduler

from tests.util import counter_program


class Recorder(ExecutionListener):
    """Records every event for assertions."""

    def __init__(self):
        self.accesses = []
        self.methods = []
        self.threads = []

    def on_access(self, event):
        self.accesses.append(event)

    def on_method_enter(self, thread, method, depth):
        self.methods.append(("enter", thread, method, depth))

    def on_method_exit(self, thread, method, depth):
        self.methods.append(("exit", thread, method, depth))

    def on_thread_start(self, thread):
        self.threads.append(("start", thread))

    def on_thread_end(self, thread):
        self.threads.append(("end", thread))


def single_thread_program(body):
    program = Program("single")
    program.method(body, name="main")
    program.add_thread("T", "main")
    return program


def test_read_returns_written_value():
    observed = []

    def body(ctx):
        obj = yield New("o")
        yield Write(obj, "f", 42)
        value = yield Read(obj, "f")
        observed.append(value)

    run_program(single_thread_program(body))
    assert observed == [42]


def test_unwritten_field_reads_zero():
    observed = []

    def body(ctx):
        obj = yield New("o")
        observed.append((yield Read(obj, "missing")))

    run_program(single_thread_program(body))
    assert observed == [0]


def test_array_read_write_roundtrip():
    observed = []

    def body(ctx):
        arr = yield NewArray("a", 4, fill=7)
        observed.append((yield ArrayRead(arr, 2)))
        yield ArrayWrite(arr, 2, 99)
        observed.append((yield ArrayRead(arr, 2)))

    run_program(single_thread_program(body))
    assert observed == [7, 99]


def test_invoke_passes_args_and_returns_value():
    observed = []

    def helper(ctx, a, b):
        yield Compute(1)
        return a + b

    def body(ctx):
        result = yield Invoke("helper", (3, 4))
        observed.append(result)

    program = Program("p")
    program.method(helper, name="helper")
    program.method(body, name="main")
    program.add_thread("T", "main")
    run_program(program)
    assert observed == [7]


def test_non_generator_method_body():
    observed = []

    def plain(ctx, x):
        return x * 2

    def body(ctx):
        observed.append((yield Invoke("plain", (21,))))

    program = Program("p")
    program.method(plain, name="plain")
    program.method(body, name="main")
    program.add_thread("T", "main")
    run_program(program)
    assert observed == [42]


def test_method_enter_exit_events_nest():
    recorder = Recorder()

    def inner(ctx):
        yield Compute(1)

    def outer(ctx):
        yield Invoke("inner")

    program = Program("p")
    program.method(inner, name="inner")
    program.method(outer, name="outer")
    program.add_thread("T", "outer")
    Executor(program, listeners=[recorder]).run()
    entered = [m for m in recorder.methods if m[0] == "enter"]
    exited = [m for m in recorder.methods if m[0] == "exit"]
    assert [m[2] for m in entered] == ["outer", "inner"]
    assert [m[2] for m in exited] == ["inner", "outer"]
    # inner is entered at depth 2
    assert entered[1][3] == 2


def test_locked_counter_is_exact():
    program = counter_program(threads=3, iterations=10, locked=True)
    run_program(program, RandomScheduler(seed=5, switch_prob=0.8))
    counter = program.make_context().counter
    assert counter.fields["value"] == 30


def test_racy_counter_loses_updates():
    program = counter_program(threads=2, iterations=30, locked=False, gap=4)
    run_program(program, RandomScheduler(seed=9, switch_prob=0.9))
    counter = program.make_context().counter
    assert counter.fields["value"] < 60


def test_fork_join_waits_for_children():
    order = []

    def child(ctx):
        yield Compute(5)
        order.append("child")

    def main(ctx):
        yield Fork("C", "child")
        yield Join("C")
        order.append("main")

    program = Program("p")
    program.method(child, name="child")
    program.method(main, name="main")
    program.add_thread("M", "main")
    run_program(program, RandomScheduler(seed=1))
    assert order == ["child", "main"]


def test_join_unknown_thread_raises():
    def main(ctx):
        yield Join("nope")

    with pytest.raises(ProgramError):
        run_program(single_thread_program(main))


def test_fork_duplicate_name_raises():
    def child(ctx):
        yield Compute(1)

    def main(ctx):
        yield Fork("C", "child")
        yield Fork("C", "child")

    program = Program("p")
    program.method(child, name="child")
    program.method(main, name="main")
    program.add_thread("M", "main")
    with pytest.raises(ProgramError):
        Executor(program).run()


def test_deadlock_detected():
    def a(ctx):
        yield Acquire(ctx.lock1)
        yield Compute(3)
        yield Acquire(ctx.lock2)

    def b(ctx):
        yield Acquire(ctx.lock2)
        yield Compute(3)
        yield Acquire(ctx.lock1)

    program = Program("deadlock")
    program.add_global_object("lock1")
    program.add_global_object("lock2")
    program.method(a, name="a")
    program.method(b, name="b")
    program.add_thread("A", "a")
    program.add_thread("B", "b")
    with pytest.raises(DeadlockError):
        run_program(program, RoundRobinScheduler(quantum=2))


def test_step_limit():
    def spin(ctx):
        while True:
            yield Compute(1)

    program = single_thread_program(spin)
    with pytest.raises(StepLimitExceeded):
        run_program(program, step_limit=100)


def test_release_without_ownership_raises():
    def body(ctx):
        obj = yield New("o")
        yield Release(obj)

    with pytest.raises(ProgramError):
        run_program(single_thread_program(body))


def test_reentrant_lock():
    def body(ctx):
        obj = yield New("o")
        yield Acquire(obj)
        yield Acquire(obj)
        yield Release(obj)
        yield Release(obj)

    run_program(single_thread_program(body))  # must not raise


def test_sync_accesses_reported_to_listeners():
    recorder = Recorder()

    def body(ctx):
        obj = yield New("o")
        yield Acquire(obj)
        yield Release(obj)

    program = single_thread_program(body)
    Executor(program, listeners=[recorder]).run()
    sync = [e for e in recorder.accesses if e.is_sync]
    # thread-start read, acquire read, release write, thread-end write
    kinds = [e.kind for e in sync]
    assert kinds == [
        AccessKind.READ,
        AccessKind.READ,
        AccessKind.WRITE,
        AccessKind.WRITE,
    ]


def test_thread_lifecycle_events():
    recorder = Recorder()
    program = counter_program(threads=2, iterations=1)
    Executor(program, RoundRobinScheduler(), [recorder]).run()
    starts = {t for kind, t in recorder.threads if kind == "start"}
    ends = {t for kind, t in recorder.threads if kind == "end"}
    assert starts == ends == {"T1", "T2"}


def test_execution_result_counts():
    recorder = Recorder()
    program = counter_program(threads=2, iterations=5)
    result = Executor(program, RoundRobinScheduler(), [recorder]).run()
    assert result.access_count == len(recorder.accesses)
    assert result.sync_access_count == sum(1 for e in recorder.accesses if e.is_sync)
    assert result.program_access_count == (
        result.access_count - result.sync_access_count
    )
    assert result.steps > 0


def test_per_thread_ops_are_step_counts():
    """Regression: per_thread_ops used to report thread *ids*; it must
    report how many scheduler steps each thread actually ran."""

    class CountingScheduler(RoundRobinScheduler):
        def __init__(self):
            super().__init__()
            self.counts = {}

        def choose(self, runnable, step):
            chosen = super().choose(runnable, step)
            self.counts[chosen] = self.counts.get(chosen, 0) + 1
            return chosen

    scheduler = CountingScheduler()
    program = counter_program(threads=3, iterations=7)
    result = Executor(program, scheduler).run()
    assert result.per_thread_ops == scheduler.counts
    assert sum(result.per_thread_ops.values()) == result.steps
    assert set(result.per_thread_ops) == {"T1", "T2", "T3"}
    # distinct from thread ids (tids are 1..3; each thread runs far more)
    assert all(count > 3 for count in result.per_thread_ops.values())


def test_steps_per_second_throughput_counter():
    result = Executor(counter_program(threads=2, iterations=5)).run()
    assert result.steps_per_second > 0
    assert result.steps_per_second == result.steps / result.elapsed_seconds


def test_determinism_same_seed_same_trace():
    def trace(seed):
        recorder = Recorder()
        program = counter_program(threads=3, iterations=8)
        Executor(
            program, RandomScheduler(seed=seed, switch_prob=0.6), [recorder]
        ).run()
        return [(e.thread_name, e.fieldname, e.kind) for e in recorder.accesses]

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_listeners_do_not_perturb_schedule():
    """Attaching analyses must not change the interleaving (this is what
    makes cross-checker comparisons on the same seed meaningful)."""

    def trace(listeners):
        recorder = Recorder()
        program = counter_program(threads=3, iterations=8)
        Executor(
            program,
            RandomScheduler(seed=3, switch_prob=0.6),
            list(listeners) + [recorder],
        ).run()
        return [(e.seq, e.thread_name, e.fieldname) for e in recorder.accesses]

    assert trace([]) == trace([ExecutionListener()])
