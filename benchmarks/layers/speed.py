"""Machine-speed calibration for the ledger's timings.

The ledger runs on shared hosts whose speed drifts: on a 2-core x86
VM, one unary ``base`` check took 0.37 s in a quiet minute and up to
0.76 s in a busy one, and busy phases last from seconds to minutes, so
they cover whole benchmark runs.  No statistic over one run's rounds
removes that.  What does: timing a fixed kernel right before and right
after each check, and scaling the check's seconds by how much slower
than usual the kernel ran around it.

The kernel is this file's own pure-Python code; it calls nothing in
``repro``, so a change to the checker moves the checks' times and never
the kernel's.  It has two parts, because the host's contention slows
them by different amounts: an interpreter-bound part (method calls and
attribute updates on a few hundred objects, like a barrier's fast path)
and a memory-bound part (random reads and writes over ~20 MB of
untracked ints, like a large log or graph).  A reading is the geometric
mean of the two parts' times.

A scaled timing reads as seconds on a machine where one reading takes
:data:`REFERENCE_S`, which is about what it takes on that VM in a
quiet minute.
"""

from __future__ import annotations

import math
import time
from array import array

#: one kernel reading on the reference machine, in seconds
REFERENCE_S = 0.005

_CELLS = 512
_INTERP_ITERATIONS = 25_000
_TABLE_BITS = 18
_MEMORY_ITERATIONS = 6_000


class _Cell:
    __slots__ = ("owner", "count", "moves")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.count = 0
        self.moves = 0

    def touch(self, thread: int) -> bool:
        if self.owner == thread:
            self.count += 1
            return False
        self.owner = thread
        self.moves += 1
        return True


class Speedometer:
    """Reads the machine's current speed with the calibration kernel.

    Building one allocates the memory-bound part's table (about 20 MB,
    in objects the cyclic GC does not track, so it adds no work to the
    checks' collections).
    """

    def __init__(self) -> None:
        size = 1 << _TABLE_BITS
        self._mask = size - 1
        # a dict of int -> int holds no references the GC must follow
        self._table = {i: (i * 7919) & self._mask for i in range(size)}
        self._slots = array("q", bytes(8 * size))
        self._cells = [_Cell(i & 7) for i in range(_CELLS)]

    def _interpreter_bound(self) -> int:
        cells = self._cells
        moved = 0
        for i in range(_INTERP_ITERATIONS):
            if cells[(i * 37) & (_CELLS - 1)].touch((i >> 3) & 7):
                moved += 1
        return moved

    def _memory_bound(self) -> int:
        table, slots, mask = self._table, self._slots, self._mask
        total = 0
        for i in range(_MEMORY_ITERATIONS):
            j = table[(i * 40503) & mask]
            slots[j] += 1
            total += slots[(j * 3) & mask]
        return total

    def reading(self) -> float:
        """Seconds of one kernel run: the geometric mean of its parts."""
        start = time.perf_counter()
        self._interpreter_bound()
        middle = time.perf_counter()
        self._memory_bound()
        end = time.perf_counter()
        return math.sqrt((middle - start) * (end - middle))


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall-clock, between readings ``before`` and
    ``after``, as seconds on the reference machine."""
    return seconds * REFERENCE_S * 2 / (before + after)
