"""Octet-derived happens-before tracking and validation.

The tracker maintains one vector clock per thread and applies joins
**only** at the points where Octet establishes happens-before
relationships (Section 3.2.1):

* **conflicting transition** — the coordination roundtrip orders the
  responder's current point before the requester's current point: the
  requester joins the responder's clock;
* **upgrading to RdSh** — the upgrade orders (a) the previous RdEx
  owner's last transition point and (b) the previous RdSh transition
  (the ``gRdShCnt`` chain) before the upgrading read; the upgrading
  thread joins both clocks, and the upgrade's clock is recorded per
  counter value;
* **fence transition** — a stale reader joins the clock of the RdSh
  transition whose counter it is catching up to.

Nothing else creates cross-thread ordering — in particular, fast-path
accesses join nothing, exactly as in the mechanism.

:meth:`HappensBeforeTracker.verify` then checks the soundness theorem
dynamically: for every pair of conflicting accesses (same field,
different threads, at least one write), the earlier access's clock
snapshot must happen-before the later access's — i.e., the transitions
alone impose enough ordering to cover every cross-thread dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.octet.runtime import OctetListener
from repro.oracle.vector_clock import VectorClock
from repro.runtime.events import AccessEvent, AccessKind
from repro.runtime.listeners import ExecutionListener


@dataclass(frozen=True)
class OrderingViolation:
    """A conflicting access pair Octet's happens-before failed to order."""

    earlier_seq: int
    later_seq: int
    address: Tuple[int, str]
    earlier_thread: str
    later_thread: str

    def __str__(self) -> str:
        return (
            f"accesses #{self.earlier_seq} ({self.earlier_thread}) and "
            f"#{self.later_seq} ({self.later_thread}) on field "
            f"{self.address} conflict but are unordered"
        )


@dataclass
class _AccessSnapshot:
    seq: int
    thread: str
    address: Tuple[int, str]
    kind: AccessKind
    clock: VectorClock


class HappensBeforeTracker(OctetListener, ExecutionListener):
    """Attach alongside ICD: ``icd.octet.add_listener(tracker)`` for the
    transition hooks and register it in the executor pipeline *after*
    the ICD so access snapshots see post-transition clocks."""

    def __init__(self, include_arrays: bool = False) -> None:
        #: mirror the checker's instrumentation scope: the theorem
        #: covers instrumented accesses, and the main configuration does
        #: not instrument arrays (Section 4)
        self.include_arrays = include_arrays
        self._clocks: Dict[str, VectorClock] = {}
        #: clock snapshot of each transition to RdSh, keyed by counter
        self._rdsh_clocks: Dict[int, VectorClock] = {}
        #: clock snapshot of each thread's last transition to RdEx
        self._last_rdex_clocks: Dict[str, VectorClock] = {}
        self._snapshots: List[_AccessSnapshot] = []

    # ------------------------------------------------------------------
    def _clock(self, thread: str) -> VectorClock:
        clock = self._clocks.get(thread)
        if clock is None:
            clock = VectorClock()
            self._clocks[thread] = clock
        return clock

    # ------------------------------------------------------------------
    # OctetListener: the only sources of cross-thread ordering
    # ------------------------------------------------------------------
    def on_conflicting(
        self, thread: str, responders: Sequence[str], is_read: bool
    ) -> None:
        clock = self._clock(thread)
        for name in responders:
            resp_clock = self._clock(name)
            resp_clock.tick(name)  # the response point
            clock.join(resp_clock)
        if is_read:
            self._last_rdex_clocks[thread] = clock.copy()

    def on_upgrading_rd_sh(
        self, thread: str, prior_owner: str, counter: int
    ) -> None:
        clock = self._clock(thread)
        prior = self._last_rdex_clocks.get(prior_owner)
        if prior is not None:
            clock.join(prior)
        # the owner's exclusive reads happened before this upgrade:
        # its current point is ordered too (the atomic state change)
        clock.join(self._clock(prior_owner))
        previous = self._rdsh_clocks.get(counter - 1)
        if previous is not None:
            clock.join(previous)
        self._rdsh_clocks[counter] = clock.copy()

    def on_fence(self, thread: str, counter: int) -> None:
        target = self._rdsh_clocks.get(counter)
        if target is not None:
            self._clock(thread).join(target)

    # ------------------------------------------------------------------
    # ExecutionListener: snapshot every access
    # ------------------------------------------------------------------
    def on_access(self, event: AccessEvent) -> None:
        if event.is_array and not self.include_arrays:
            return
        clock = self._clock(event.thread_name)
        clock.tick(event.thread_name)
        self._snapshots.append(
            _AccessSnapshot(
                seq=event.seq,
                thread=event.thread_name,
                address=event.address,
                kind=event.kind,
                clock=clock.copy(),
            )
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def verify(self) -> List[OrderingViolation]:
        """Check every conflicting pair is ordered; returns failures.

        An empty result is the dynamic proof of the soundness theorem
        for this execution.
        """
        violations: List[OrderingViolation] = []
        last_write: Dict[Tuple[int, str], _AccessSnapshot] = {}
        last_readers: Dict[Tuple[int, str], Dict[str, _AccessSnapshot]] = {}

        for snap in self._snapshots:
            writer = last_write.get(snap.address)
            if writer is not None and writer.thread != snap.thread:
                self._require(writer, snap, violations)
            if snap.kind is AccessKind.READ:
                last_readers.setdefault(snap.address, {})[snap.thread] = snap
            else:
                for reader in last_readers.get(snap.address, {}).values():
                    if reader.thread != snap.thread:
                        self._require(reader, snap, violations)
                last_readers[snap.address] = {}
                last_write[snap.address] = snap
        return violations

    @staticmethod
    def _require(
        earlier: _AccessSnapshot,
        later: _AccessSnapshot,
        violations: List[OrderingViolation],
    ) -> None:
        # the earlier access's point is covered by the later clock iff
        # the later thread has seen the earlier thread's component
        if earlier.clock.get(earlier.thread) > later.clock.get(earlier.thread):
            violations.append(
                OrderingViolation(
                    earlier_seq=earlier.seq,
                    later_seq=later.seq,
                    address=earlier.address,
                    earlier_thread=earlier.thread,
                    later_thread=later.thread,
                )
            )
