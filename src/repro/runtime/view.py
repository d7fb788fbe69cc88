"""Read-only views of executor state for analyses.

Octet's coordination protocol needs two facts about the world the
analyses cannot derive from access events alone: whether a thread is
currently blocked (explicit vs implicit protocol) and which threads
are live (responders for RdSh→WrEx transitions).  Analyses receive a
:class:`RuntimeView`; binding an :class:`ExecutorView` is optional —
unit tests drive analyses with the :class:`NullView` default.
"""

from __future__ import annotations

from repro.runtime.threads import BLOCKED_STATES


class RuntimeView:
    """Interface: what analyses may observe about the runtime."""

    def is_thread_blocked(self, thread_name: str) -> bool:
        """Is the thread at a blocking operation (lock/wait/join)?"""
        raise NotImplementedError

    def holds_any_lock(self, thread_name: str) -> bool:
        """Does the thread own at least one monitor?"""
        raise NotImplementedError


class NullView(RuntimeView):
    """Default view: nobody is ever blocked, nobody holds locks."""

    def is_thread_blocked(self, thread_name: str) -> bool:
        return False

    def holds_any_lock(self, thread_name: str) -> bool:
        return False


class ExecutorView(RuntimeView):
    """Live view over a running :class:`~repro.runtime.executor.Executor`."""

    def __init__(self, executor) -> None:  # type: ignore[no-untyped-def]
        self._executor = executor

    def is_thread_blocked(self, thread_name: str) -> bool:
        thread = self._executor.threads.get(thread_name)
        return thread is not None and thread.state in BLOCKED_STATES

    def holds_any_lock(self, thread_name: str) -> bool:
        monitors = self._executor.locks._monitors
        return any(m.owner == thread_name for m in monitors.values())


__all__ = ["ExecutorView", "NullView", "RuntimeView"]
