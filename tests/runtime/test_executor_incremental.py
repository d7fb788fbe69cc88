"""Equivalence of the incremental runnable set with the old scan loop.

The executor used to rebuild (and re-sort) the live/runnable lists on
every scheduler step; it now maintains the runnable set incrementally
across thread state transitions.  These tests pin the optimization to
a reference re-implementation of the old loop: on random programs —
including ones that deadlock — both executors must produce the
identical event sequence and the identical outcome.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.runtime.events import THREAD_FIELD, AccessKind, intern_site
from repro.runtime.executor import Executor, _PendingAcquire, _PendingJoin
from repro.runtime.listeners import ExecutionListener
from repro.runtime.ops import (
    Acquire,
    Compute,
    Fork,
    Join,
    Read,
    Release,
    Write,
)
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler


class ReferenceExecutor(Executor):
    """The pre-optimization run loop: rebuild live/runnable every step.

    Uses the same op handlers, lock, and listener machinery as the real
    executor, and its own copy of the per-step logic for generator
    bodies (the programs here have no scripted bodies) — so any
    divergence is attributable to the incremental runnable-set
    bookkeeping.
    """

    def run(self):
        from repro.errors import ProgramError, StepLimitExceeded

        self.scheduler.reset()
        self._emit = self.pipeline.access_barrier()
        for spec in self.program.threads:
            self._spawn(spec.name, spec.method, spec.args)

        while True:
            live = [t for t in self.threads.values() if t.is_live()]
            if not live:
                break
            runnable = sorted(t.name for t in live if t.is_runnable())
            if not runnable:
                blocked = {t.name: t.state.value for t in live}
                raise DeadlockError(blocked)
            chosen = self.scheduler.choose(runnable, self._steps)
            if chosen not in runnable:
                raise ProgramError(
                    f"scheduler chose non-runnable thread {chosen!r}"
                )
            self._steps += 1
            if self._steps > self.step_limit:
                raise StepLimitExceeded(self.step_limit)
            self._reference_step(self.threads[chosen])

        self.pipeline.on_execution_end()
        return None

    def _reference_step(self, thread):
        self._per_thread_steps[thread.name] += 1
        if not thread.started:
            thread.started = True
            self.pipeline.on_thread_start(thread.name)
            self._emit_sync_access(
                thread, thread.thread_obj, THREAD_FIELD, AccessKind.READ,
                intern_site("<thread-start>"),
            )
            return
        if thread.compute_remaining > 0:
            thread.compute_remaining -= 1
            return
        if thread.pending_value.__class__ in (_PendingAcquire, _PendingJoin):
            self._retry_pending(thread)
            return
        self._advance(thread)


class _Tracer(ExecutionListener):
    def __init__(self):
        self.events = []

    def on_access(self, event):
        self.events.append(
            (
                event.seq,
                event.thread_name,
                event.obj.label,
                event.fieldname,
                event.kind,
                event.is_sync,
            )
        )


# ----------------------------------------------------------------------
# random program generation
# ----------------------------------------------------------------------
#: an action is one of
#:   ("rw", obj_index, field_index, write?)
#:   ("compute", cost)
#:   ("lock", obj_index, [inner actions])   -> acquire/…/release
_action = st.deferred(
    lambda: st.one_of(
        st.tuples(
            st.just("rw"),
            st.integers(0, 2),
            st.integers(0, 1),
            st.booleans(),
        ),
        st.tuples(st.just("compute"), st.integers(1, 3)),
        st.tuples(
            st.just("lock"),
            st.integers(0, 2),
            st.lists(_action, max_size=3),
        ),
    )
)

_thread_bodies = st.lists(
    st.lists(_action, max_size=6), min_size=2, max_size=4
)


def _emit(actions, ctx_objects):
    for action in actions:
        if action[0] == "rw":
            _, obj_index, field_index, is_write = action
            obj = ctx_objects[obj_index]
            if is_write:
                yield Write(obj, f"f{field_index}", 1)
            else:
                yield Read(obj, f"f{field_index}")
        elif action[0] == "compute":
            yield Compute(action[1])
        else:
            _, obj_index, inner = action
            obj = ctx_objects[obj_index]
            yield Acquire(obj)
            for op in _emit(inner, ctx_objects):
                yield op
            yield Release(obj)


def _build_program(bodies, with_fork):
    """One top-level thread per body; optionally the first thread also
    forks (and joins) a child running the last body."""
    program = Program("random")
    objects = [program.add_global_object(f"o{i}") for i in range(3)]

    for index, body in enumerate(bodies):
        def method(ctx, _body=body):
            for op in _emit(_body, objects):
                yield op

        program.method(method, name=f"m{index}")

    if with_fork:
        def forker(ctx):
            yield Fork("child", f"m{len(bodies) - 1}")
            for op in _emit(bodies[0], objects):
                yield op
            yield Join("child")

        program.method(forker, name="forker")
        program.add_thread("T0", "forker")
    else:
        program.add_thread("T0", "m0")
    for index in range(1, len(bodies)):
        program.add_thread(f"T{index}", f"m{index}")
    return program


def _trace(executor_cls, bodies, with_fork, seed):
    tracer = _Tracer()
    program = _build_program(bodies, with_fork)
    executor = executor_cls(
        program,
        RandomScheduler(seed=seed, switch_prob=0.7),
        [tracer],
        step_limit=50_000,
    )
    try:
        executor.run()
    except DeadlockError as deadlock:
        return tracer.events, ("deadlock", sorted(deadlock.blocked.items()))
    return tracer.events, ("done", executor._steps)


@settings(max_examples=60, deadline=None)
@given(bodies=_thread_bodies, with_fork=st.booleans(), seed=st.integers(0, 999))
def test_incremental_runnable_set_matches_reference(bodies, with_fork, seed):
    """Identical (seq, thread, obj, field, kind) sequences — and
    identical deadlock verdicts — on random programs."""
    reference = _trace(ReferenceExecutor, bodies, with_fork, seed)
    optimized = _trace(Executor, bodies, with_fork, seed)
    assert reference == optimized


def test_reference_and_optimized_agree_on_deadlocks():
    """A lock-order inversion: for every seed both executors must agree,
    and at least one seed must actually deadlock."""
    bodies = [
        [("lock", 0, [("compute", 3), ("lock", 1, [])])],
        [("lock", 1, [("compute", 3), ("lock", 0, [])])],
    ]
    outcomes = []
    for seed in range(10):
        reference = _trace(ReferenceExecutor, bodies, False, seed)
        optimized = _trace(Executor, bodies, False, seed)
        assert reference == optimized
        outcomes.append(optimized[1][0])
    assert "deadlock" in outcomes
