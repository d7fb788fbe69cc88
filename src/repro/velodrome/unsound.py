"""The unsound Velodrome variant (Section 5.3).

According to the Velodrome authors, their implementation "eschews
synchronization when metadata does not actually need to change, i.e.,
the current transaction is already the last writer or reader".  The
paper's re-implementation of this variant is unsound: without the
analysis-access critical section, racy accesses can interleave with
metadata updates, losing dependences — and it crashes outright on
avrora9 "due to races accessing metadata".

The simulator serializes operations, so metadata races cannot occur
naturally; we model their *effects* mechanically and deterministically:

* **cost** — the atomic operation and fences are only paid when the
  metadata actually changes (the variant's entire point);
* **lost updates** — when an access updates a field's metadata while a
  *different* thread updated the same field's metadata within the last
  ``race_window`` global events, and the accessing thread holds no
  monitor, the two barriers would have raced on the real hardware; the
  update is dropped with probability ``loss_prob`` (seeded RNG);
* **crashes** — if the number of racy update pairs on any single field
  exceeds ``crash_threshold``, a :class:`MetadataRaceError` is raised,
  reproducing the avrora9 crash mode (heavily contended metadata).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.errors import ReproError
from repro.runtime.events import AccessEvent
from repro.runtime.listeners import AccessBarrier, ExecutionListener
from repro.velodrome.checker import VelodromeChecker


class MetadataRaceError(ReproError):
    """The unsound variant corrupted its metadata beyond recovery."""

    def __init__(self, address: Tuple[int, str], races: int) -> None:
        super().__init__(
            f"metadata race storm on field {address}: {races} racy update "
            "pairs (the unsound variant crashes under this contention)"
        )
        self.address = address
        self.races = races


class UnsoundVelodrome(VelodromeChecker):
    """Velodrome without analysis-access atomicity.

    Accepts all :class:`VelodromeChecker` arguments plus:

    Args:
        seed: RNG seed for the lost-update model.
        loss_prob: probability a racy metadata update is lost.
        race_window: how close (in global event sequence numbers) two
            different-thread updates must be to count as racy.
        crash_threshold: racy-pair count on one field that crashes the
            analysis (``None`` disables crashing).
    """

    def __init__(
        self,
        spec,
        *,
        seed: int = 0,
        loss_prob: float = 0.05,
        race_window: int = 3,
        crash_threshold: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(spec, **kwargs)
        self._rng = random.Random(seed)
        self.loss_prob = loss_prob
        self.race_window = race_window
        self.crash_threshold = crash_threshold
        #: address -> (seq, thread) of the last metadata update
        self._last_update: Dict[Tuple[int, str], Tuple[int, str]] = {}
        self._race_counts: Dict[Tuple[int, str], int] = {}

    # ------------------------------------------------------------------
    # the event path: every access as one AccessEvent, so the race model
    # sees its sequence number and thread
    # ------------------------------------------------------------------
    def access_barrier(self) -> AccessBarrier:
        return ExecutionListener.access_barrier(self)

    def on_access(self, event: AccessEvent) -> None:
        if event.is_array and not self.instrument_arrays:
            self.stats.array_accesses_skipped += 1
            return
        tx = self.tx_manager.transaction_for_access(event)
        if tx is None:
            return
        self.stats.instrumented_accesses += 1
        address = (
            event.object_address
            if (event.is_array and self.array_granularity_object)
            else event.address
        )
        meta = self.metadata.lookup(address)
        is_read = event.is_read()
        # cost: pay for synchronization only when metadata changes, and
        # no releasing fence (the variant runs unsynchronized)
        changes = (
            meta.would_change_on_read(tx)
            if is_read
            else meta.would_change_on_write(tx)
        )
        if changes:
            self.stats.atomic_operations += 1
            self.stats.memory_fences += 1
        self._analyze(
            tx, meta, is_read, self._metadata_update_allowed(event, address)
        )

    # ------------------------------------------------------------------
    # unsoundness: racy updates can be lost, storms crash
    # ------------------------------------------------------------------
    def _metadata_update_allowed(
        self, event: AccessEvent, address: Tuple[int, str]
    ) -> bool:
        last = self._last_update.get(address)
        self._last_update[address] = (event.seq, event.thread_name)
        if last is None:
            return True
        last_seq, last_thread = last
        racy = (
            last_thread != event.thread_name
            and event.seq - last_seq <= self.race_window
            and not self.view.holds_any_lock(event.thread_name)
        )
        if not racy:
            return True
        races = self._race_counts.get(address, 0) + 1
        self._race_counts[address] = races
        if self.crash_threshold is not None and races > self.crash_threshold:
            raise MetadataRaceError(address, races)
        if self._rng.random() < self.loss_prob:
            self.stats.lost_metadata_updates += 1
            return False
        return True
