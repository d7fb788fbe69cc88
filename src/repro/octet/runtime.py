"""The Octet runtime: per-object states, counters, and barriers.

:class:`OctetRuntime` is driven by a client analysis (ICD) that calls
:meth:`OctetRuntime.observe` from its access barrier.  ``observe`` is
one pass per access: a single decision tree over the object's state
kind, its owner, the access kind and the thread's ``rdShCnt`` picks
Table 1's transition and commits it on the spot — the state change,
the counters, the coordination round of a conflicting transition —
then calls the :class:`OctetListener` hook ICD's Figure 4 procedure
of that kind attaches to, with plain arguments (the thread, the
responders, the prior owner, a counter), and returns the
:class:`~repro.octet.transitions.TransitionKind`.  Nothing is built
per transition to describe it.  :func:`~repro.octet.transitions.classify`
stays the pure reference form of Table 1 that the tests pin
``observe`` against; the barrier never calls it.

``observe`` also adds every object that takes a conflicting
transition to :attr:`OctetRuntime.conflicted`.  Under Table 1 a write
after another thread's access, and an access after another thread's
write, both need one, so every object two threads accessed with a
write among the accesses is in the set; PCD skips the accesses to
every other object.

The runtime never inspects transactions; it only knows threads and
objects.  That separation mirrors the paper, where Octet is an
independently published mechanism that ICD extends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.obs.registry import publish_stats
from repro.octet.protocol import CoordinationProtocol
from repro.octet.states import (
    OctetState, StateKind, rd_ex, rd_ex_int, rd_sh, wr_ex, wr_ex_int,
)
from repro.octet.transitions import TransitionKind
from repro.runtime.events import AccessEvent, AccessKind


@dataclass
class OctetStats:
    """Barrier and transition counters (feed the cost model)."""

    barriers: int = 0
    fast_path: int = 0
    #: subset of ``fast_path`` resolved inline by ICD's fused barriers
    #: (no :meth:`OctetRuntime.observe` call at all); the rest took
    #: ``observe``'s own inline check, which only ICD configurations
    #: without a fused barrier reach (unary site tracking,
    #: object-granularity arrays)
    fast_path_fused: int = 0
    initial: int = 0
    upgrading_wr_ex: int = 0
    upgrading_rd_sh: int = 0
    fences: int = 0
    conflicting: int = 0
    conflicting_by_kind: Dict[str, int] = field(default_factory=dict)
    memory_fences_issued: int = 0
    atomic_operations: int = 0

    def slow_path(self) -> int:
        """All non-fast-path barrier executions."""
        return self.barriers - self.fast_path

    def publish(self, target, prefix: str = "octet") -> None:
        """Publish every transition-kind counter onto a registry.

        ``conflicting_by_kind`` fans out to
        ``octet.conflicting_by_kind.<kind>``; the derived slow-path
        count is included so the metric catalog needs no arithmetic.
        """
        if not target.enabled:
            return
        publish_stats(target, prefix, self)
        target.inc(f"{prefix}.slow_path", self.slow_path())


class OctetListener:
    """Hooks fired on the transitions that may carry a cross-thread
    dependence (Table 1); ICD's Figure 4 procedures implement them.
    Each gets plain arguments: the accessing thread first."""

    def on_conflicting(
        self, thread: str, responders: Sequence[str], is_read: bool
    ) -> None:
        """A conflicting transition completed its coordination round
        with ``responders``; the object is now RdEx(``thread``) if
        ``is_read``, else WrEx(``thread``)."""

    def on_upgrading_rd_sh(
        self, thread: str, prior_owner: str, counter: int
    ) -> None:
        """``thread``'s read moved a RdEx(``prior_owner``) object to
        RdSh(``counter``)."""

    def on_fence(self, thread: str, counter: int) -> None:
        """A fence transition: ``thread``'s stale ``rdShCnt`` caught up
        to the RdSh object's ``counter``."""


#: the hooks :meth:`OctetRuntime.add_listener` binds
_HOOKS = ("on_conflicting", "on_upgrading_rd_sh", "on_fence")


# Bound once: each ``Enum`` class-attribute lookup goes through the
# metaclass, and ``.value`` is a Python-level property.
_READ = AccessKind.READ
_WR_EX, _RD_EX, _RD_SH = StateKind.WR_EX, StateKind.RD_EX, StateKind.RD_SH
_SAME_STATE = TransitionKind.SAME_STATE
_INITIAL = TransitionKind.INITIAL
_UPGRADING_WR_EX = TransitionKind.UPGRADING_WR_EX
_UPGRADING_RD_SH = TransitionKind.UPGRADING_RD_SH
_FENCE = TransitionKind.FENCE
#: conflicting kinds, each with its ``conflicting_by_kind`` key
_WR_WR, _WR_RD, _RD_WR, _SH_WR = ((kind, kind.value) for kind in (
    TransitionKind.CONFLICTING_WR_WR, TransitionKind.CONFLICTING_WR_RD,
    TransitionKind.CONFLICTING_RD_WR, TransitionKind.CONFLICTING_SH_WR,
))


class OctetRuntime:
    """Per-execution Octet state machine.

    Args:
        is_thread_blocked: predicate for the coordination protocol's
            explicit/implicit choice.
        live_threads: callable returning the names of live threads;
            needed for RdSh→WrEx conflicting transitions, whose
            responders are all other threads (readers of a RdSh object
            are not tracked individually — a key source of ICD's
            imprecision).
    """

    def __init__(
        self,
        is_thread_blocked: Callable[[str], bool] | None = None,
        live_threads: Callable[[], List[str]] | None = None,
    ) -> None:
        self._states: Dict[int, OctetState] = {}
        self._thread_rdsh: Dict[str, int] = {}
        self.g_rdsh_counter = 0
        self._is_blocked = is_thread_blocked or (lambda _name: False)
        self.protocol = CoordinationProtocol(self._is_blocked)
        self._live_threads = live_threads or (lambda: [])
        #: hook name -> the listeners' bound hooks, filled by add_listener
        self._hooks: Dict[str, List[Callable]] = {name: [] for name in _HOOKS}
        self._stats = OctetStats()
        #: oids of the objects that have taken a conflicting transition:
        #: every object two threads accessed with a write among the
        #: accesses (PCD replays only accesses to these)
        self.conflicted: Set[int] = set()
        # Hot-counter batching: the counters every barrier bumps live in
        # plain attributes and are folded into ``_stats`` only when
        # someone reads ``stats`` (or calls ``flush_hot_counters``) —
        # the per-access telemetry cost stays one attribute store (a
        # fused barrier's, ``_fused_pending``, also counts as a barrier
        # and a fast-path hit).
        self._barriers_pending = 0
        self._fastpath_pending = 0
        self._fused_pending = 0
        #: transient record of intermediate states entered, for tests
        self.intermediate_entries = 0

    # ------------------------------------------------------------------
    @property
    def stats(self) -> OctetStats:
        """Barrier counters; reading flushes the batched hot counters."""
        if self._barriers_pending or self._fastpath_pending or self._fused_pending:
            self.flush_hot_counters()
        return self._stats

    @stats.setter
    def stats(self, value: OctetStats) -> None:
        self._stats = value
        self._barriers_pending = 0
        self._fastpath_pending = 0
        self._fused_pending = 0

    def flush_hot_counters(self) -> None:
        """Fold the batched barrier/fast-path counts into the stats."""
        stats = self._stats
        fused = self._fused_pending
        stats.barriers += self._barriers_pending + fused
        stats.fast_path += self._fastpath_pending + fused
        stats.fast_path_fused += fused
        self._barriers_pending = 0
        self._fastpath_pending = 0
        self._fused_pending = 0

    # ------------------------------------------------------------------
    def add_listener(self, listener: OctetListener) -> None:
        """Subscribe ``listener``'s hooks.

        Each hook is bound here, once, into its transition kind's
        table; a hook the listener inherits unchanged from
        :class:`OctetListener` is a no-op and is left out.  A hook
        replaced on the listener's class after this call is not seen.
        """
        for name in _HOOKS:
            hook = getattr(listener, name)
            if getattr(hook, "__func__", None) is not getattr(OctetListener, name):
                self._hooks[name].append(hook)

    def state_of(self, oid: int) -> Optional[OctetState]:
        """Current state of object ``oid`` (None = untouched)."""
        return self._states.get(oid)

    def thread_counter(self, thread: str) -> int:
        """The thread's ``rdShCnt``."""
        return self._thread_rdsh.get(thread, 0)

    # ------------------------------------------------------------------
    def observe(self, event: AccessEvent) -> TransitionKind:
        """Run the barrier for one access; returns Table 1's transition.

        The client must call this *before* the access logically takes
        effect (it is the read/write barrier).

        One pass: a single decision tree over the object's state kind,
        its owner, the access kind and the thread's ``rdShCnt`` reaches
        Table 1's outcome and commits it where it is found, with no
        :func:`~repro.octet.transitions.classify` call and no second
        dispatch on the transition kind.  A same-state access (the
        paper's unsynchronized fast path) returns at once.  A
        conflicting transition coordinates with the exclusive owner as
        its one responder, or, from RdSh, with every other live thread.
        The hooks of the transition's kind, if it has any, fire last,
        once the new state and every counter are committed.
        """
        oid = event.obj.oid
        thread = event.thread_name
        is_read = event.kind is _READ
        states = self._states
        stats = self._stats
        state = states.get(oid)
        self._barriers_pending += 1
        if state is None:
            # first access: install an exclusive state, no coordination
            stats.initial += 1
            states[oid] = rd_ex(thread) if is_read else wr_ex(thread)
            return _INITIAL
        kind = state.kind
        if kind is _RD_SH:
            counter = state.counter
            if is_read:
                if self._thread_rdsh.get(thread, 0) >= counter:
                    self._fastpath_pending += 1
                    return _SAME_STATE
                # a stale rdShCnt: a fence brings the thread's counter
                # up to date and leaves the object's state as it is
                stats.fences += 1
                stats.memory_fences_issued += 1
                self._thread_rdsh[thread] = counter
                for hook in self._hooks["on_fence"]:
                    hook(thread, counter)
                return _FENCE
            # RdSh -> WrEx: readers are not tracked individually, so
            # every other thread responds
            transition, key = _SH_WR
            responders: Sequence[str] = [
                t for t in self._live_threads() if t != thread
            ]
        else:
            # exclusive: the barrier never leaves an intermediate state
            owner = state.owner
            assert kind is _WR_EX or kind is _RD_EX, state
            if owner == thread:
                if is_read or kind is _WR_EX:
                    self._fastpath_pending += 1
                    return _SAME_STATE
                # RdExT -> WrExT: one atomic operation, no coordination
                stats.upgrading_wr_ex += 1
                stats.atomic_operations += 1
                states[oid] = wr_ex(thread)
                return _UPGRADING_WR_EX
            if is_read and kind is _RD_EX:
                # RdExT1 -> RdShc: gRdShCnt is incremented atomically,
                # globally ordering all transitions to RdSh (Section
                # 3.2.1); the upgrading thread's counter becomes current
                stats.upgrading_rd_sh += 1
                stats.atomic_operations += 1
                counter = self.g_rdsh_counter = self.g_rdsh_counter + 1
                self._thread_rdsh[thread] = counter
                states[oid] = rd_sh(counter)
                for hook in self._hooks["on_upgrading_rd_sh"]:
                    hook(thread, owner, counter)
                return _UPGRADING_RD_SH
            # the exclusive owner is the one responder
            transition, key = _WR_RD if is_read else (
                _WR_WR if kind is _WR_EX else _RD_WR
            )
            responders = (owner,)

        # conflicting: one atomic operation claims the object for the
        # requester by entering the intermediate state, and each
        # implicit response (to a blocked responder) sets a flag
        # atomically
        stats.conflicting += 1
        self.conflicted.add(oid)
        by_kind = stats.conflicting_by_kind
        by_kind[key] = by_kind.get(key, 0) + 1
        self.intermediate_entries += 1
        states[oid] = rd_ex_int(thread) if is_read else wr_ex_int(thread)
        stats.atomic_operations += 1 + self.protocol.coordinate(
            thread, responders
        )
        states[oid] = rd_ex(thread) if is_read else wr_ex(thread)
        for hook in self._hooks["on_conflicting"]:
            hook(thread, responders, is_read)
        return transition

    # ------------------------------------------------------------------
    def snapshot_states(self) -> Dict[int, OctetState]:
        """Copy of the state table (testing aid)."""
        return dict(self._states)
