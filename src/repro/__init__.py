"""DoubleChecker — efficient sound and precise atomicity checking.

A production-quality Python reproduction of Biswas, Huang, Sengupta &
Bond, *DoubleChecker: Efficient Sound and Precise Atomicity Checking*
(PLDI 2014), including the Octet concurrency-control substrate, the
Velodrome baseline, and the deterministic multithreaded-execution
simulator the analyses run on.

Quickstart::

    from repro import (
        AtomicitySpecification, DoubleChecker, Program,
        RandomScheduler, Read, Write, Invoke,
    )

    program = Program("demo")
    shared = program.add_global_object("shared")

    @program.method
    def read_modify_write(ctx):
        value = yield Read(shared, "x")
        yield Write(shared, "x", value + 1)

    @program.method
    def worker(ctx):
        for _ in range(100):
            yield Invoke("read_modify_write")

    program.add_thread("T1", "worker")
    program.add_thread("T2", "worker")
    program.mark_entry("worker")

    spec = AtomicitySpecification.initial(program)
    checker = DoubleChecker(spec)
    result = checker.run_single(program, RandomScheduler(seed=1))
    print(result.violations.blamed_methods())
"""

from repro.core.doublechecker import (
    DoubleChecker,
    FirstRunResult,
    MultiRunResult,
    SingleRunResult,
)
from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.core.reports import ViolationRecord, ViolationSummary
from repro.core.static_info import StaticTransactionInfo
from repro.errors import (
    DeadlockError,
    OutOfMemoryBudget,
    ProgramError,
    ReproError,
    SpecificationError,
)
from repro.runtime import (
    Acquire,
    ArrayRead,
    ArrayWrite,
    Compute,
    Executor,
    Fork,
    Invoke,
    Join,
    New,
    NewArray,
    Notify,
    Program,
    RandomScheduler,
    Read,
    Release,
    RoundRobinScheduler,
    ScriptedScheduler,
    Wait,
    Write,
)
from repro.oracle import HappensBeforeTracker, VectorClock
from repro.spec import AtomicitySpecification, iterative_refinement
from repro.trace import Trace, record_execution, replay_trace
from repro.velodrome import UnsoundVelodrome, VelodromeChecker

__version__ = "1.0.0"

__all__ = [
    "Acquire",
    "ArrayRead",
    "ArrayWrite",
    "AtomicitySpecification",
    "Compute",
    "DeadlockError",
    "DoubleChecker",
    "Executor",
    "FirstRunResult",
    "Fork",
    "HappensBeforeTracker",
    "ICD",
    "Invoke",
    "Join",
    "MultiRunResult",
    "New",
    "NewArray",
    "Notify",
    "OutOfMemoryBudget",
    "PCD",
    "Program",
    "ProgramError",
    "RandomScheduler",
    "Read",
    "Release",
    "ReproError",
    "RoundRobinScheduler",
    "ScriptedScheduler",
    "SingleRunResult",
    "SpecificationError",
    "StaticTransactionInfo",
    "Trace",
    "UnsoundVelodrome",
    "VectorClock",
    "VelodromeChecker",
    "record_execution",
    "replay_trace",
    "ViolationRecord",
    "ViolationSummary",
    "Wait",
    "Write",
    "iterative_refinement",
]
