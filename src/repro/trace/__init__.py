"""Execution-trace recording and replay.

DoubleChecker, Velodrome and vc are *online* analyses: they run inside
the program's execution.  This package lets them run after it too:
record an execution's event stream once, persist it, and replay it
through any :class:`~repro.runtime.listeners.ExecutionListener`.  An
online checker produces identical results on a replayed trace
(``tests/trace/test_replay.py``), and ``crosscheck``'s ``replay``
column holds vc over the replayed schedule to its live verdict.
"""

from repro.errors import TraceFormatError
from repro.trace.recorder import Trace, TraceRecorder, record_execution
from repro.trace.replay import replay_trace

__all__ = [
    "Trace",
    "TraceFormatError",
    "TraceRecorder",
    "record_execution",
    "replay_trace",
]
