"""The Octet runtime: per-object states, counters, and barriers.

:class:`OctetRuntime` is driven by a client analysis (ICD) that calls
:meth:`OctetRuntime.observe` from its access barrier.  ``observe``
classifies the access against the object's current state (Table 1),
commits the state change, performs coordination for conflicting
transitions, and fires :class:`OctetListener` callbacks — the hooks
ICD's Figure 4 procedures attach to.

The runtime never inspects transactions; it only knows threads and
objects.  That separation mirrors the paper, where Octet is an
independently published mechanism that ICD extends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.obs.registry import publish_stats
from repro.octet.protocol import CoordinationProtocol, CoordinationRound
from repro.octet.states import OctetState, StateKind, rd_ex_int, wr_ex_int
from repro.octet.transitions import Classified, TransitionKind, classify
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


#: transition kind -> the :class:`OctetListener` hook it fires
_HOOKS: Dict[TransitionKind, str] = {
    TransitionKind.INITIAL: "on_initial",
    TransitionKind.UPGRADING_WR_EX: "on_upgrading_wr_ex",
    TransitionKind.UPGRADING_RD_SH: "on_upgrading_rd_sh",
    TransitionKind.FENCE: "on_fence",
    TransitionKind.CONFLICTING_WR_WR: "on_conflicting",
    TransitionKind.CONFLICTING_WR_RD: "on_conflicting",
    TransitionKind.CONFLICTING_RD_WR: "on_conflicting",
    TransitionKind.CONFLICTING_SH_WR: "on_conflicting",
}


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
        self.protocol = CoordinationProtocol(is_thread_blocked)
        self._live_threads = live_threads or (lambda: [])
        self.listeners: List[OctetListener] = []
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
        self.listeners.append(listener)

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

        The common case — a same-state access, i.e. the paper's
        unsynchronized fast path — is detected inline without calling
        :func:`classify` (no :class:`Classified` allocation, no
        ``_commit``/``_notify`` dispatch; listeners never consume
        same-state records).  The inline check is Table 1's same-state
        rule verbatim (``is_same_state``, pinned against ``classify``
        by the Octet tests), so every other access is a real
        transition.
        """
        oid = event.obj.oid
        thread = event.thread_name
        old_state = self._states.get(oid)
        if old_state is not None:
            kind = old_state.kind
            if (
                old_state.owner == thread
                and (
                    kind is StateKind.WR_EX
                    or (kind is StateKind.RD_EX and event.kind is AccessKind.READ)
                )
            ) or (
                kind is StateKind.RD_SH
                and event.kind is AccessKind.READ
                and self._thread_rdsh.get(thread, 0) >= old_state.counter
            ):
                self._barriers_pending += 1
                self._fastpath_pending += 1
                return TransitionRecord(
                    event, TransitionKind.SAME_STATE, old_state, old_state,
                    None, None,
                )
        self._barriers_pending += 1
        classified = classify(
            old_state,
            event.kind,
            thread,
            self._thread_rdsh.get(thread, 0),
            self.g_rdsh_counter + 1,
        )
        record = self._commit(event, oid, thread, old_state, classified)
        self._notify(record)
        return record

    # ------------------------------------------------------------------
    def _commit(
        self,
        event: AccessEvent,
        oid: int,
        thread: str,
        old_state: Optional[OctetState],
        classified: Classified,
    ) -> TransitionRecord:
        kind = classified.kind
        stats = self._stats

        if kind is TransitionKind.INITIAL:
            stats.initial += 1
            self._states[oid] = classified.new_state
            return TransitionRecord(
                event, kind, None, classified.new_state, None, None
            )

        if kind is TransitionKind.UPGRADING_WR_EX:
            stats.upgrading_wr_ex += 1
            stats.atomic_operations += 1
            self._states[oid] = classified.new_state
            return TransitionRecord(
                event, kind, old_state, classified.new_state,
                old_state.owner if old_state else None, None,
            )

        if kind is TransitionKind.UPGRADING_RD_SH:
            stats.upgrading_rd_sh += 1
            # gRdShCnt is incremented atomically, globally ordering all
            # transitions to RdSh (Section 3.2.1)
            stats.atomic_operations += 1
            self.g_rdsh_counter += 1
            new_state = classified.new_state
            assert new_state is not None and new_state.counter == self.g_rdsh_counter
            self._states[oid] = new_state
            # the upgrading thread's own counter becomes current, so its
            # subsequent reads of this object take the fast path
            self._thread_rdsh[thread] = new_state.counter
            prior_owner = old_state.owner if old_state else None
            return TransitionRecord(
                event, kind, old_state, new_state, prior_owner, None,
                rdsh_counter=new_state.counter,
            )

        if kind is TransitionKind.FENCE:
            stats.fences += 1
            stats.memory_fences_issued += 1
            assert classified.thread_counter_update is not None
            self._thread_rdsh[thread] = classified.thread_counter_update
            return TransitionRecord(event, kind, old_state, old_state, None, None)

        # conflicting transitions
        assert kind.is_conflicting()
        stats.conflicting += 1
        by_kind = stats.conflicting_by_kind
        by_kind[kind.value] = by_kind.get(kind.value, 0) + 1
        # enter the intermediate state: one atomic operation claims the
        # object for the requester
        stats.atomic_operations += 1
        self.intermediate_entries += 1
        intermediate = (
            rd_ex_int(thread)
            if classified.new_state.kind is StateKind.RD_EX
            else wr_ex_int(thread)
        )
        self._states[oid] = intermediate

        if kind is TransitionKind.CONFLICTING_SH_WR:
            responders = [t for t in self._live_threads() if t != thread]
            prior_owner = None
        else:
            assert old_state is not None and old_state.owner is not None
            responders = [old_state.owner]
            prior_owner = old_state.owner
        coordination = self.protocol.coordinate(thread, responders)
        # implicit responses set a flag atomically
        stats.atomic_operations += coordination.implicit_count

        self._states[oid] = classified.new_state
        return TransitionRecord(
            event, kind, old_state, classified.new_state, prior_owner, coordination
        )

    def _notify(self, record: TransitionRecord) -> None:
        # the hook is looked up by name on every call, so a hook
        # replaced on the listener's class takes effect at once
        hook = _HOOKS[record.kind]
        for listener in self.listeners:
            getattr(listener, hook)(record)

    # ------------------------------------------------------------------
    def snapshot_states(self) -> Dict[int, OctetState]:
        """Copy of the state table (testing aid)."""
        return dict(self._states)

