"""Thread schedulers.

The scheduler is the reproduction's stand-in for OS/JVM scheduling
nondeterminism.  Each step the executor asks the scheduler to choose
among the runnable threads.  Seeded :class:`RandomScheduler` instances
model run-to-run interleaving variation (different seeds ~ different
trials in the paper's methodology); :class:`ScriptedScheduler` replays
an exact interleaving (used to reproduce Figure 3's example);
:class:`RoundRobinScheduler` provides a cheap deterministic default.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.errors import SchedulerError


class Scheduler:
    """Base class: choose the next thread to run."""

    def choose(self, runnable: Sequence[str], step: int) -> str:
        """Return the name of the thread to step next.

        ``runnable`` is sorted by thread name and never empty.  The
        executor maintains it incrementally and passes the *same*
        sequence object every step, so implementations must neither
        mutate it nor hold a reference to it across calls.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Reset internal state so the scheduler can drive a fresh run."""


class RoundRobinScheduler(Scheduler):
    """Rotate among runnable threads with a fixed quantum.

    A quantum of ``k`` runs a thread for up to ``k`` consecutive
    operations before preferring the next thread, yielding coarse
    deterministic interleavings.
    """

    def __init__(self, quantum: int = 1) -> None:
        if quantum < 1:
            raise SchedulerError(f"quantum must be >= 1, got {quantum}")
        self.quantum = quantum
        self._current: Optional[str] = None
        self._used = 0

    def choose(self, runnable: Sequence[str], step: int) -> str:
        if self._current in runnable and self._used < self.quantum:
            self._used += 1
            return self._current
        if self._current in runnable:
            # rotate to the thread after the current one
            index = (runnable.index(self._current) + 1) % len(runnable)
        else:
            index = step % len(runnable)
        self._current = runnable[index]
        self._used = 1
        return self._current

    def reset(self) -> None:
        self._current = None
        self._used = 0


class RandomScheduler(Scheduler):
    """Seeded random scheduler with a context-switch bias.

    With probability ``1 - switch_prob`` the previously running thread
    keeps running (if still runnable); otherwise a uniformly random
    runnable thread is chosen.  Lower ``switch_prob`` produces longer
    uninterrupted bursts, which matters for atomicity checking: very
    frequent switching makes interleavings (and hence violations) more
    likely, mimicking a heavily loaded machine.
    """

    def __init__(self, seed: int = 0, switch_prob: float = 0.3) -> None:
        if not 0.0 <= switch_prob <= 1.0:
            raise SchedulerError(f"switch_prob must be in [0, 1], got {switch_prob}")
        self.seed = seed
        self.switch_prob = switch_prob
        self.reset()

    def choose(self, runnable: Sequence[str], step: int) -> str:
        if (
            self._current in runnable
            and self._random() >= self.switch_prob
        ):
            return self._current
        # randrange(n), as CPython draws it: k = n.bit_length() random
        # bits, redrawn while out of range (so n == 1 consumes bits too)
        n = len(runnable)
        k = n.bit_length()
        r = self._getrandbits(k)
        while r >= n:
            r = self._getrandbits(k)
        self._current = runnable[r]
        return self._current

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        # choose() runs once per executor step; bind the RNG methods
        # once per (re)seed instead of resolving them on every call
        self._random = self._rng.random
        self._getrandbits = self._rng.getrandbits
        self._current: Optional[str] = None


class ScriptedScheduler(Scheduler):
    """Replay an explicit schedule; fall back to round-robin when exhausted.

    The script is a sequence of thread names.  Entries naming threads
    that are not currently runnable are skipped (they would deadlock the
    replay otherwise); this makes hand-written scripts robust to the
    exact number of operations a body performs.
    """

    def __init__(self, script: Sequence[str]) -> None:
        self.script = list(script)
        self._pos = 0
        self._fallback = RoundRobinScheduler()

    def choose(self, runnable: Sequence[str], step: int) -> str:
        while self._pos < len(self.script):
            candidate = self.script[self._pos]
            self._pos += 1
            if candidate in runnable:
                return candidate
        return self._fallback.choose(runnable, step)

    def reset(self) -> None:
        self._pos = 0
        self._fallback.reset()

    def exhausted(self) -> bool:
        """True once the whole script has been consumed."""
        return self._pos >= len(self.script)


__all__ = [
    "RandomScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "ScriptedScheduler",
]
