"""The Octet runtime: per-object states, counters, and barriers.

:class:`OctetRuntime` is driven by a client analysis (ICD) that calls
:meth:`OctetRuntime.observe` from its access barrier.  ``observe`` is
one pass per access: a single decision tree over the object's state
kind, its owner, the access kind and the thread's ``rdShCnt`` picks
Table 1's transition and commits it on the spot — the state change,
the counters, the coordination round of a conflicting transition —
then fires the :class:`OctetListener` callbacks ICD's Figure 4
procedures attach to.  :func:`~repro.octet.transitions.classify`
stays the pure reference form of Table 1 that the tests pin
``observe`` against; the barrier never calls it.

The runtime never inspects transactions; it only knows threads and
objects.  That separation mirrors the paper, where Octet is an
independently published mechanism that ICD extends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.obs.registry import publish_stats
from repro.octet.protocol import (
    CoordinationProtocol, CoordinationRound, ProtocolKind, ResponderRecord,
)
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


class TransitionRecord(NamedTuple):
    """Everything a listener may need to know about one transition.

    A ``NamedTuple``, not a frozen dataclass: one is built for every
    barrier that leaves the fast path.
    """

    event: AccessEvent
    kind: TransitionKind
    old_state: Optional[OctetState]
    new_state: Optional[OctetState]
    #: exclusive owner losing the object (conflicting WrEx/RdEx sources)
    prior_owner: Optional[str]
    #: coordination round for conflicting transitions (else None)
    coordination: Optional[CoordinationRound]
    #: counter value of the RdSh state entered by an upgrading transition
    rdsh_counter: Optional[int] = None


class OctetListener:
    """Hooks fired on state transitions; ICD implements these."""

    def on_conflicting(self, record: TransitionRecord) -> None:
        """A conflicting transition completed its coordination round."""

    def on_upgrading_rd_sh(self, record: TransitionRecord) -> None:
        """A RdExT1 → RdShc transition (read by another thread)."""

    def on_upgrading_wr_ex(self, record: TransitionRecord) -> None:
        """A RdExT → WrExT transition (ICD safely ignores these)."""

    def on_fence(self, record: TransitionRecord) -> None:
        """A fence transition (stale rdShCnt read of a RdSh object)."""

    def on_initial(self, record: TransitionRecord) -> None:
        """First access installed an exclusive state (no dependence)."""


# Bound once: each ``Enum`` class-attribute lookup goes through the
# metaclass, and ``.value`` is a Python-level property.
_READ = AccessKind.READ
_WR_EX, _RD_EX, _RD_SH = StateKind.WR_EX, StateKind.RD_EX, StateKind.RD_SH
_EXPLICIT, _IMPLICIT = ProtocolKind.EXPLICIT, ProtocolKind.IMPLICIT
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
        self._hooks: Dict[str, List[Callable]] = {
            "on_initial": [], "on_upgrading_wr_ex": [],
            "on_upgrading_rd_sh": [], "on_fence": [], "on_conflicting": [],
        }
        self._stats = OctetStats()
        # Hot-counter batching: the two counters every barrier bumps
        # live in plain attributes and are folded into ``_stats`` only
        # when someone reads ``stats`` (or calls ``flush_hot_counters``)
        # — the per-access telemetry cost stays one attribute store.
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
        stats.barriers += self._barriers_pending
        stats.fast_path += self._fastpath_pending
        stats.fast_path_fused += self._fused_pending
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
        for name, table in self._hooks.items():
            hook = getattr(listener, name)
            if getattr(hook, "__func__", None) is not getattr(OctetListener, name):
                table.append(hook)

    def state_of(self, oid: int) -> Optional[OctetState]:
        """Current state of object ``oid`` (None = untouched)."""
        return self._states.get(oid)

    def thread_counter(self, thread: str) -> int:
        """The thread's ``rdShCnt``."""
        return self._thread_rdsh.get(thread, 0)

    # ------------------------------------------------------------------
    def observe(self, event: AccessEvent) -> TransitionRecord:
        """Run the barrier for one access; returns the transition record.

        The client must call this *before* the access logically takes
        effect (it is the read/write barrier).

        One pass: a single decision tree over the object's state kind,
        its owner, the access kind and the thread's ``rdShCnt`` reaches
        Table 1's outcome and commits it where it is found, with no
        :func:`~repro.octet.transitions.classify` call and no second
        dispatch on the transition kind.  A same-state access (the
        paper's unsynchronized fast path) returns at once and fires no
        hook.  A conflicting transition coordinates with the exclusive
        owner as its one responder, or, from RdSh, with every other
        live thread.  The hooks of the transition's kind fire last,
        once the new state and every counter are committed.
        """
        oid = event.obj.oid
        thread = event.thread_name
        is_read = event.kind is _READ
        states = self._states
        stats = self._stats
        old_state = states.get(oid)
        self._barriers_pending += 1
        prior_owner = coordination = counter = conflict = None
        if old_state is None:
            # first access: install an exclusive state, no coordination
            stats.initial += 1
            transition, hooks = _INITIAL, self._hooks["on_initial"]
            new_state = states[oid] = rd_ex(thread) if is_read else wr_ex(thread)
        elif old_state.kind is _RD_SH:
            if not is_read:
                conflict = _SH_WR
            elif self._thread_rdsh.get(thread, 0) >= old_state.counter:
                self._fastpath_pending += 1
                return TransitionRecord(
                    event, _SAME_STATE, old_state, old_state, None, None
                )
            else:
                # a stale rdShCnt: a fence brings the thread's counter
                # up to date and leaves the object's state as it is
                stats.fences += 1
                stats.memory_fences_issued += 1
                self._thread_rdsh[thread] = old_state.counter
                transition, hooks = _FENCE, self._hooks["on_fence"]
                new_state = old_state
        else:
            # exclusive: the barrier never leaves an intermediate state
            kind = old_state.kind
            prior_owner = old_state.owner
            assert kind is _WR_EX or kind is _RD_EX, old_state
            if prior_owner == thread:
                if is_read or kind is _WR_EX:
                    self._fastpath_pending += 1
                    return TransitionRecord(
                        event, _SAME_STATE, old_state, old_state, None, None
                    )
                # RdExT -> WrExT: one atomic operation, no coordination
                stats.upgrading_wr_ex += 1
                stats.atomic_operations += 1
                transition, hooks = _UPGRADING_WR_EX, self._hooks["on_upgrading_wr_ex"]
                new_state = states[oid] = wr_ex(thread)
            elif is_read and kind is _RD_EX:
                # RdExT1 -> RdShc: gRdShCnt is incremented atomically,
                # globally ordering all transitions to RdSh (Section
                # 3.2.1); the upgrading thread's counter becomes current
                stats.upgrading_rd_sh += 1
                stats.atomic_operations += 1
                counter = self.g_rdsh_counter = self.g_rdsh_counter + 1
                self._thread_rdsh[thread] = counter
                transition, hooks = _UPGRADING_RD_SH, self._hooks["on_upgrading_rd_sh"]
                new_state = states[oid] = rd_sh(counter)
            else:
                conflict = _WR_RD if is_read else (
                    _WR_WR if kind is _WR_EX else _RD_WR
                )

        if conflict is not None:
            # one atomic operation claims the object for the requester
            # by entering the intermediate state
            transition, key = conflict
            stats.conflicting += 1
            by_kind = stats.conflicting_by_kind
            by_kind[key] = by_kind.get(key, 0) + 1
            stats.atomic_operations += 1
            self.intermediate_entries += 1
            states[oid] = rd_ex_int(thread) if is_read else wr_ex_int(thread)
            if prior_owner is None:
                # RdSh -> WrEx: readers are not tracked individually, so
                # every other thread responds
                coordination = self.protocol.coordinate(
                    thread, [t for t in self._live_threads() if t != thread]
                )
            else:
                # the exclusive owner is the one responder; a blocked one
                # answers implicitly, under a hold the requester places
                implicit = 1 if self._is_blocked(prior_owner) else 0
                protocol = self.protocol
                protocol.rounds += 1
                protocol.explicit_responses += 1 - implicit
                protocol.implicit_responses += implicit
                protocol.holds_placed += implicit
                responder = ResponderRecord(
                    prior_owner, _IMPLICIT if implicit else _EXPLICIT
                )
                coordination = CoordinationRound(
                    thread, [responder], 1 - implicit, implicit
                )
            # each implicit response sets a flag atomically
            stats.atomic_operations += coordination.implicit_count
            hooks = self._hooks["on_conflicting"]
            new_state = states[oid] = rd_ex(thread) if is_read else wr_ex(thread)

        record = TransitionRecord(
            event, transition, old_state, new_state, prior_owner,
            coordination, counter,
        )
        for hook in hooks:
            hook(record)
        return record

    # ------------------------------------------------------------------
    def snapshot_states(self) -> Dict[int, OctetState]:
        """Copy of the state table (testing aid)."""
        return dict(self._states)
