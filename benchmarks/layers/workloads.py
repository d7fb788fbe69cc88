"""The layer ledger's three workloads, each defined once.

A workload is one or more :class:`~repro.workloads.builder.WorkloadSpec`
programs, each checked on the same ``schedules`` scheduler seeds in
every round of a run; its timings are sums over those checks.  The
seeds come from the benchmark's ``--seed``: run ``s`` checks
``make_scheduler(s * schedules + k)`` for ``k`` in ``range(schedules)``,
which is ``make_scheduler(s)`` for a one-schedule workload.  The
programs themselves are fixed by their specs.

``round_s`` converts ``--seconds`` into a round count (see ``run.py``).
It is the measured time of one timed round of the end-to-end arms,
calibration readings included, on a 2-core x86 VM in a quiet minute,
so a run's work never depends on how fast it goes.
``README.md`` gives the measured profile of each workload and why it
was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.workloads import get_spec
from repro.workloads.builder import WorkloadSpec


@dataclass(frozen=True)
class Workload:
    programs: Tuple[WorkloadSpec, ...]
    #: scheduler seeds each program is checked on per round
    schedules: int
    #: seconds of one timed round of the end-to-end arms (see above)
    round_s: float

    def checks(self, seed: int) -> List[Tuple[WorkloadSpec, int]]:
        """The ``(program, scheduler seed)`` pairs one run checks."""
        return [
            (program, seed * self.schedules + k)
            for program in self.programs
            for k in range(self.schedules)
        ]


# The cycle-check stress program: a long hub transaction anchors itself
# into a producer chain and probes old write-once fields, so Velodrome's
# per-edge cycle checks walk a large reachable region, while 9 in 10
# barriers take Octet's fast path and logging is heavy.
HUBSTRESS = WorkloadSpec(
    name="hubstress",
    threads=12,
    iterations=600,
    shared_objects=2,
    violating_weight=0.02,
    safe_methods=6,
    unary_ops=2,
    array_ops=0,
    unary_shared_period=6,
    hub_scan_iters=600,
    hub_rounds=10,
    hub_threads=1,
    hub_probe_period=6,
    hub_listener_threads=2,
    pad=1,
)

# High violating density over a write ring: ICD finds hundreds of cyclic
# SCCs and most hold a precise cycle, so PCD replay dominates single-run
# time.  With eight threads PCD's replay work swings by up to 2.25x
# between schedules; with six it stays within 1.3x, and each run sums
# four schedules.
PCDHEAVY = WorkloadSpec(
    name="pcdheavy",
    threads=6,
    iterations=150,
    shared_objects=6,
    readonly_objects=2,
    violating_methods=8,
    safe_methods=4,
    unary_ops=1,
    violating_weight=0.30,
    sliced_weight=0.20,
    sliced_methods=8,
    ring_size=8,
    ring_weight=0.35,
    pad=3,
)

# tsp, the paper's non-transactional benchmark, at 15x: most accesses
# are unary and PCD, SCC and GC work is small, so a change to those
# layers must leave it flat.
UNARY = replace(get_spec("tsp"), iterations=600)

WORKLOADS: Dict[str, Workload] = {
    "hubstress": Workload((HUBSTRESS,), schedules=1, round_s=6.1),
    "pcdheavy": Workload((PCDHEAVY,), schedules=4, round_s=5.1),
    "unary": Workload((UNARY,), schedules=1, round_s=3.6),
}
