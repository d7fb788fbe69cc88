"""Listener interface connecting analyses to the executor.

Listeners play the role the paper's compiler-inserted instrumentation
plays in Jikes RVM: the callable :meth:`ExecutionListener.access_barrier`
returns is the barrier invoked before each program access (and each
synchronization pseudo-access), and the method/thread lifecycle hooks
drive transaction demarcation.
"""

from __future__ import annotations

from typing import Callable, Iterable, List

from repro.runtime.events import AccessEvent

#: what :meth:`ExecutionListener.access_barrier` returns
AccessBarrier = Callable[..., None]


class ExecutionListener:
    """Callbacks dispatched by the executor; override what you need."""

    def on_thread_start(self, thread_name: str) -> None:
        """A thread began executing (before its first operation)."""

    def on_thread_end(self, thread_name: str) -> None:
        """A thread finished (after its last operation)."""

    def on_method_enter(self, thread_name: str, method: str, depth: int) -> None:
        """A method was entered on ``thread_name`` at call ``depth``."""

    def on_method_exit(self, thread_name: str, method: str, depth: int) -> None:
        """A method returned on ``thread_name``."""

    def on_access(self, event: AccessEvent) -> None:
        """An access, as one event: what the default barrier calls."""

    def access_barrier(self) -> AccessBarrier:
        """The callable the executor dispatches per access.

        Its arguments are the access's fields as the executor already
        holds them: ``(seq, thread_name, obj, fieldname, kind, site,
        address, site_str, is_array, is_sync)``, where ``address`` is
        the interned ``(oid, fieldname)`` tuple and ``site_str`` the
        interned ``str(site)``.  The default builds the
        :class:`AccessEvent` those fields describe, the interned
        address and site string included, and passes it to
        :meth:`on_access`, bound when the barrier is built.  A listener
        that fuses its per-access steps into one closure (ICD fuses the
        Octet state check with its logging; Velodrome, and with it vc
        and the unsound variant, all of Figure 5's per-access rule)
        overrides this and consumes the fields directly, so an access
        on its fast path allocates nothing.
        """
        on_access = self.on_access

        def barrier(seq, thread_name, obj, fieldname, kind, site, address,
                    site_str, is_array, is_sync, _event=AccessEvent):
            on_access(
                _event(seq, thread_name, obj, fieldname, kind, is_sync,
                       is_array, site, address, site_str)
            )

        return barrier

    def on_thread_blocked(self, thread_name: str) -> None:
        """``thread_name`` left the runnable set (lock/wait/join).

        Not fired for thread completion — :meth:`on_thread_end` already
        covers that transition.
        """

    def on_thread_unblocked(self, thread_name: str) -> None:
        """``thread_name`` re-entered the runnable set."""

    def on_execution_end(self) -> None:
        """The whole program finished; flush any pending analysis work."""


def _discard_access(seq, thread_name, obj, fieldname, kind, site, address,
                    site_str, is_array, is_sync) -> None:
    """No-listener barrier: a no-op."""


class ListenerPipeline(ExecutionListener):
    """Dispatch events to an ordered list of listeners.

    Order matters exactly as barrier order matters in the paper: ICD's
    logging instrumentation runs *after* Octet's barrier, which the
    pipeline realizes by registering Octet before ICD's logger.

    The per-access hot path is :meth:`access_barrier`, built once per
    run: with zero listeners it is a no-op, with exactly one it is that
    listener's own barrier (no loop, no indirection — for ICD, its
    fused Octet+logging closure), and with two or more it calls each
    listener's barrier in registration order.
    """

    def __init__(self, listeners: Iterable[ExecutionListener] = ()) -> None:
        self.listeners: List[ExecutionListener] = list(listeners)

    def add(self, listener: ExecutionListener) -> None:
        self.listeners.append(listener)

    def access_barrier(self) -> AccessBarrier:
        barriers = [listener.access_barrier() for listener in self.listeners]
        if not barriers:
            return _discard_access
        if len(barriers) == 1:
            return barriers[0]

        def fan_out(*access) -> None:
            for barrier in barriers:
                barrier(*access)

        return fan_out

    def on_thread_start(self, thread_name: str) -> None:
        for listener in self.listeners:
            listener.on_thread_start(thread_name)

    def on_thread_end(self, thread_name: str) -> None:
        for listener in self.listeners:
            listener.on_thread_end(thread_name)

    def on_method_enter(self, thread_name: str, method: str, depth: int) -> None:
        for listener in self.listeners:
            listener.on_method_enter(thread_name, method, depth)

    def on_method_exit(self, thread_name: str, method: str, depth: int) -> None:
        for listener in self.listeners:
            listener.on_method_exit(thread_name, method, depth)

    def on_access(self, event: AccessEvent) -> None:
        for listener in self.listeners:
            listener.on_access(event)

    def on_thread_blocked(self, thread_name: str) -> None:
        for listener in self.listeners:
            listener.on_thread_blocked(thread_name)

    def on_thread_unblocked(self, thread_name: str) -> None:
        for listener in self.listeners:
            listener.on_thread_unblocked(thread_name)

    def on_execution_end(self) -> None:
        for listener in self.listeners:
            listener.on_execution_end()


__all__ = ["AccessBarrier", "ExecutionListener", "ListenerPipeline"]
