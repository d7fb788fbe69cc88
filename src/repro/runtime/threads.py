"""Virtual thread state for the executor."""

from __future__ import annotations

import enum
from typing import Any, Generator, List, Optional

from repro.runtime.heap import SharedObject


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread.

    ``BLOCKED_LOCK``/``WAITING``/``BLOCKED_JOIN`` matter to Octet's
    coordination protocol: a conflicting transition against a blocked
    responder uses the *implicit* protocol (Section 3.2.1).
    """

    RUNNABLE = "runnable"
    BLOCKED_LOCK = "blocked-lock"
    WAITING = "waiting"
    BLOCKED_JOIN = "blocked-join"
    FINISHED = "finished"


#: a thread at a blocking operation (lock, wait, join): Octet's
#: coordination protocol answers a request to it implicitly
BLOCKED_STATES = (
    ThreadState.BLOCKED_LOCK, ThreadState.WAITING, ThreadState.BLOCKED_JOIN
)


class VThread:
    """A simulated thread: a call stack of generators plus blocking state."""

    def __init__(self, name: str, tid: int, thread_obj: SharedObject) -> None:
        self.name = name
        self.tid = tid
        #: heap object standing in for the java.lang.Thread instance;
        #: fork/join synchronization is expressed as accesses to it.
        self.thread_obj = thread_obj
        self.state = ThreadState.RUNNABLE
        #: stack of (method-name, generator) frames
        self.frames: List[tuple[str, Generator[Any, Any, Any]]] = []
        #: value to send into the top generator on the next step
        self.pending_value: Any = None
        #: per-frame operation ordinals, for Site construction
        self.op_counters: List[int] = []
        #: object whose monitor this thread is blocked on (if any)
        self.blocked_on: Optional[SharedObject] = None
        #: thread name this thread is joining (if any)
        self.joining: Optional[str] = None
        #: lock re-entry depth to restore after wait()
        self.saved_lock_depth: int = 0
        #: number of Compute steps still to burn
        self.compute_remaining: int = 0
        #: true once the fork-synchronization read has been emitted
        self.started: bool = False

    # ------------------------------------------------------------------
    def is_live(self) -> bool:
        return self.state is not ThreadState.FINISHED

    def is_runnable(self) -> bool:
        return self.state is ThreadState.RUNNABLE

    def current_method(self) -> str:
        """Name of the method on top of the call stack."""
        if not self.frames:
            return "<none>"
        return self.frames[-1][0]

    def push_frame(self, method: str, gen: Generator[Any, Any, Any]) -> None:
        self.frames.append((method, gen))
        self.op_counters.append(0)

    def pop_frame(self) -> str:
        method, _gen = self.frames.pop()
        self.op_counters.pop()
        return method

    def next_op_index(self) -> int:
        """Advance and return the op ordinal within the current frame."""
        index = self.op_counters[-1]
        self.op_counters[-1] = index + 1
        return index

    def call_depth(self) -> int:
        return len(self.frames)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VThread {self.name} {self.state.value} depth={len(self.frames)}>"
