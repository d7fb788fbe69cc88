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
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.velodrome.checker import VelodromeChecker
from repro.velodrome.metadata import Address


class MetadataRaceError(ReproError):
    """The unsound variant corrupted its metadata beyond recovery."""

    def __init__(self, address: Address, races: int) -> None:
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

    Its accesses go through Velodrome's barrier, which
    :meth:`_race_model` switches to this variant's rules (see
    :meth:`VelodromeChecker.access_barrier`).
    """

    #: no analysis-access critical section: the barrier pays one atomic
    #: op and one fence only for an access that changes the metadata
    critical_section = False

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
        self._last_update: Dict[Address, Tuple[int, str]] = {}
        self._race_counts: Dict[Address, int] = {}

    # ------------------------------------------------------------------
    # unsoundness: racy updates can be lost, storms crash
    # ------------------------------------------------------------------
    def _race_model(self) -> Callable[[int, str, Address], bool]:
        return self._metadata_update_allowed

    def _metadata_update_allowed(
        self, seq: int, thread: str, address: Address
    ) -> bool:
        last = self._last_update.get(address)
        self._last_update[address] = (seq, thread)
        if last is None:
            return True
        last_seq, last_thread = last
        racy = (
            last_thread != thread
            and seq - last_seq <= self.race_window
            and not self.view.holds_any_lock(thread)
        )
        if not racy:
            return True
        races = self._race_counts.get(address, 0) + 1
        self._race_counts[address] = races
        if self.crash_threshold is not None and races > self.crash_threshold:
            self._fold_barrier_counts()
            raise MetadataRaceError(address, races)
        if self._rng.random() < self.loss_prob:
            self._stats.lost_metadata_updates += 1
            return False
        return True
