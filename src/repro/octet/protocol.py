"""The coordination protocol for conflicting transitions.

A conflicting transition involves one *requesting* thread (reqT, the
thread whose access needs the state change) and one or more
*responding* threads (respT — the current exclusive owner, or, for
RdSh→WrEx, every other thread, since readers are not tracked
individually).  The object first enters an intermediate state so only
one thread at a time changes its state; then, per responder:

* **explicit protocol** — respT is executing code normally; reqT sends
  a request and respT responds at its next *safe point* (a point
  definitely not between a barrier and its access).  The roundtrip
  establishes happens-before.
* **implicit protocol** — respT is blocked (lock/wait/join/IO); reqT
  atomically sets a flag respT will observe on unblocking, placing a
  "hold" on respT while the requester performs work (ICD's procedure)
  on respT's behalf.

In the serialized simulator a thread is never *between* a barrier and
its access when another thread runs, so every scheduler interleaving
point is a safe point, and explicit-protocol responses happen
instantly.  What the protocol model preserves is (a) which threads
respond, which ICD consumes (``OctetListener.on_conflicting`` gets
their names), and (b) which protocol each one uses, which the counters
and the cost model consume: an implicit response is one atomic
operation and one hold, under which reqT invokes ICD's edge-creation
procedure on respT's behalf.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable


class CoordinationProtocol:
    """Carries out coordination rounds and tallies protocol statistics.

    Args:
        is_thread_blocked: predicate telling whether a thread is at a
            blocking operation (decides explicit vs implicit).  Defaults
            to "never blocked" for standalone use.
    """

    def __init__(
        self, is_thread_blocked: Callable[[str], bool] | None = None
    ) -> None:
        self._is_blocked = is_thread_blocked or (lambda _name: False)
        self.rounds = 0
        self.explicit_responses = 0
        self.implicit_responses = 0
        self.holds_placed = 0

    def coordinate(self, requester: str, responders: Iterable[str]) -> int:
        """Run one coordination round against ``responders`` (never the
        requester itself); returns how many responded implicitly."""
        self.rounds += 1
        explicit = implicit = 0
        for name in responders:
            if name == requester:
                continue
            if self._is_blocked(name):
                implicit += 1
            else:
                explicit += 1
        self.explicit_responses += explicit
        self.implicit_responses += implicit
        self.holds_placed += implicit
        return implicit

    def stats(self) -> Dict[str, int]:
        """Protocol statistics for cost accounting."""
        return {
            "rounds": self.rounds,
            "explicit_responses": self.explicit_responses,
            "implicit_responses": self.implicit_responses,
            "holds_placed": self.holds_placed,
        }
