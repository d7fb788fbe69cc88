"""Shared helpers for the test suite: small program factories."""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.ops import (
    Acquire,
    Compute,
    Fork,
    Invoke,
    Join,
    Read,
    Release,
    Write,
)
from repro.runtime.program import Program
from repro.spec.specification import AtomicitySpecification


def counter_program(
    *,
    threads: int = 2,
    iterations: int = 10,
    locked: bool = False,
    gap: int = 2,
) -> Program:
    """Workers repeatedly invoke a read-modify-write on one counter.

    With ``locked=False`` the RMW is a textbook atomicity violation;
    with ``locked=True`` it is properly synchronized.
    """
    program = Program("counter")
    counter = program.add_global_object("counter")

    def rmw(ctx):
        if locked:
            yield Acquire(counter)
        value = yield Read(counter, "value")
        yield Compute(gap)
        yield Write(counter, "value", (value or 0) + 1)
        if locked:
            yield Release(counter)

    program.method(rmw, name="rmw")

    def worker(ctx):
        for _ in range(iterations):
            yield Invoke("rmw")

    program.method(worker, name="worker")
    program.mark_entry("worker")
    for i in range(threads):
        program.add_thread(f"T{i + 1}", "worker")
    return program


def fork_join_program(body: Optional[Callable] = None, workers: int = 2) -> Program:
    """A main thread forks workers running ``body`` and joins them."""
    program = Program("forkjoin")
    shared = program.add_global_object("shared")

    def default_body(ctx):
        value = yield Read(shared, "x")
        yield Write(shared, "x", (value or 0) + 1)

    program.method(body or default_body, name="task")

    def main(ctx):
        for i in range(workers):
            yield Fork(f"W{i}", "task")
        for i in range(workers):
            yield Join(f"W{i}")

    program.method(main, name="main")
    program.add_thread("main", "main")
    program.mark_entry("task")
    return program


def spec_for(program: Program) -> AtomicitySpecification:
    """The initial specification (entry/interrupting methods excluded)."""
    return AtomicitySpecification.initial(program)


def two_thread_program(body_a, body_b, name: str = "pair") -> Program:
    """Two threads running distinct generator bodies ``body_a``/``body_b``.

    Bodies take (ctx) and are registered as entry methods, so their
    accesses are unary unless they invoke atomic methods.
    """
    program = Program(name)

    program.method(body_a, name="body_a")
    program.method(body_b, name="body_b")
    program.add_thread("A", "body_a")
    program.add_thread("B", "body_b")
    program.mark_entry("body_a")
    program.mark_entry("body_b")
    return program


def rereading_program() -> Program:
    """Transactions that re-touch fields they already own: the shape
    the Velodrome/vc barrier's no-op predicate exists for."""
    program = Program("reread")
    x = program.add_global_object("x")

    def churn(ctx):
        total = 0
        for _ in range(4):
            total = (yield Read(x, "f")) or 0
        yield Write(x, "f", total + 1)
        yield Write(x, "f", total + 2)

    def body(ctx):
        for _ in range(10):
            yield Invoke("churn")

    program.method(churn, name="churn")
    program.method(body, name="body")
    for name in ("A", "B", "C"):
        program.add_thread(name, "body")
    program.mark_entry("body")
    return program


class AllObjects:
    """A conflict set that holds every object, for driving
    :class:`~repro.core.pcd.PCD` without Octet: PCD then replays every
    logged access, and the set never grows."""

    def __contains__(self, oid: object) -> bool:
        return True

    def __len__(self) -> int:
        return 0


#: the conflict set of every object
ALL_OBJECTS = AllObjects()
