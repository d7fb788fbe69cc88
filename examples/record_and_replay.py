#!/usr/bin/env python3
"""Record once, check many: traces replayed through the checkers.

Records one execution of a benchmark to a JSONL trace, then analyzes
the same trace three ways without re-running the program:

1. **Velodrome (replayed)** — the online checker driven by the trace;
   identical results to its live run.
2. **DoubleChecker's ICD+PCD (replayed)** — same.
3. **vc (replayed)** — the vector-clock checker at its default design
   point, the one the paper's closest related work takes (Farzan &
   Parthasarathy, Section 6): *no synchronization edges*, so cycles
   formed purely by lock release–acquire order are not reported.

Run with::

    python examples/record_and_replay.py
"""

import os
import tempfile

from repro import (
    ICD,
    PCD,
    RandomScheduler,
    Trace,
    VelodromeChecker,
    ViolationSummary,
    record_execution,
    replay_trace,
)
from repro.harness.explain import explain_summary
from repro.harness.runner import initial_spec
from repro.vc import VcChecker
from repro.workloads import build

BENCHMARK = "hsqldb6"


def main() -> None:
    spec = initial_spec(BENCHMARK)

    # ---- record ---------------------------------------------------------
    trace = record_execution(
        build(BENCHMARK), RandomScheduler(seed=21, switch_prob=0.6)
    )
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, f"{BENCHMARK}.trace.jsonl")
        trace.save(path)
        print(f"recorded {len(trace)} events ({trace.access_count()} "
              f"accesses) -> {path}")
        loaded = Trace.load(path)

    # ---- Velodrome over the trace --------------------------------------
    velodrome = VelodromeChecker(spec)
    replay_trace(loaded, [velodrome])
    print(f"\nVelodrome (replayed): "
          f"{sorted(velodrome.violations.blamed_methods()) or 'clean'}")

    # ---- DoubleChecker's analyses over the trace ------------------------
    violations = ViolationSummary()
    icd = ICD(spec, on_scc=lambda c: violations.extend(pcd.process(c)))
    pcd = PCD(icd.octet.conflicted)
    replay_trace(loaded, [icd])
    print(f"ICD+PCD (replayed):   "
          f"{sorted(violations.blamed_methods()) or 'clean'}")
    print(f"  ICD filtered {icd.stats.sccs} SCC(s) out of "
          f"{icd.tx_manager.stats.regular_transactions} transactions")

    # ---- vc, without synchronization edges -----------------------------
    vc = VcChecker(spec)
    replay_trace(loaded, [vc])
    print(f"vc (replayed):        "
          f"{sorted(vc.violations.blamed_methods()) or 'clean'} "
          f"(skipped {vc.stats.sync_accesses_skipped} sync accesses)")

    print()
    print(explain_summary(violations))


if __name__ == "__main__":
    main()
