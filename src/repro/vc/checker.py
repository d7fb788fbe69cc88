"""The vector-clock online atomicity checker (AeroDrome-style).

A :class:`~repro.velodrome.checker.VelodromeChecker` in every part but
two: the cycle check and the synchronization default.  Transactions,
the barrier, Figure 5's per-access rules, edge insertion, the
transaction clocks (:class:`~repro.core.clocks.TransactionClocks`),
collection and the memory budget are Velodrome's.  Every transaction
carries a vector clock mapping each thread to the newest transaction
of that thread with a path into it, so an edge ``src -> dst`` closes a
cycle exactly when ``src``'s clock already sees a transaction of
``dst``'s thread at least as new as ``dst`` — a single dict probe, no
traversal.  Where Velodrome then searches for the cycle to blame a
member, this checker reports the closing edge alone.

The probe is complete because the clocks propagate eagerly (see
:mod:`repro.core.clocks`): at every edge they reflect every path in
the current graph, and a new cycle must contain the edge just added
(any other cycle predates the edge and was caught at *its* last edge).
A transaction inherits its intra-thread predecessor's clock at start,
so program-order edges never close a cycle themselves — the
temporally last edge of any cycle is always a cross edge.

By default the checker skips synchronization pseudo-accesses
(``sync_edges=False``), the AeroDrome design point: only data
conflicts order transactions, so cycles closed purely through lock
release/acquire edges — which Velodrome reports — are deliberately not
reported.  ``sync_edges=True`` restores Velodrome's treatment (sync
operations as reads/writes of the monitor pseudo-field) and makes the
two backends' verdicts identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.reports import ViolationRecord
from repro.core.transactions import IdgEdge
from repro.spec.specification import AtomicitySpecification
from repro.velodrome.checker import VelodromeChecker, VelodromeResult


@dataclass
class VcStats:
    """Access-level work counters (feed the cost model)."""

    instrumented_accesses: int = 0
    #: accesses resolved by the fused barrier's no-op predicate (the
    #: field's metadata already names this transaction)
    fastpath_hits: int = 0
    sync_accesses_skipped: int = 0
    array_accesses_skipped: int = 0
    metadata_updates: int = 0
    edges: int = 0
    #: re-observations of an existing edge (no clock work needed: the
    #: earlier join plus eager propagation already cover it)
    edges_deduplicated: int = 0
    #: clock joins that actually grew the destination clock
    clock_joins: int = 0
    #: worklist pushes during eager transitive propagation
    propagations: int = 0
    cycle_checks: int = 0
    cycles_found: int = 0


#: a vc run's outcome has Velodrome's shape (``stats`` is a VcStats)
VcResult = VelodromeResult


class VcChecker(VelodromeChecker):
    """Sound linear-time conflict-serializability checking.

    Args:
        spec: the atomicity specification.
        sync_edges: order transactions through synchronization
            pseudo-accesses as well (Velodrome-identical verdicts);
            off by default — see the module docstring.
        monitor_regular / monitor_unary: instrumentation filters,
            same contract as the other backends.
        instrument_arrays / array_granularity_object: array experiment
            knobs shared with Velodrome.
        memory_budget: cap on live transactions (out-of-memory model).
        gc_interval: transaction-collector cadence.
    """

    detector = "vc"
    critical_section = False

    def __init__(
        self,
        spec: AtomicitySpecification,
        *,
        sync_edges: bool = False,
        monitor_regular: Optional[Callable[[str], bool]] = None,
        monitor_unary: bool = True,
        instrument_arrays: bool = False,
        array_granularity_object: bool = False,
        memory_budget: Optional[int] = None,
        gc_interval: Optional[int] = 64,
    ) -> None:
        super().__init__(
            spec,
            monitor_regular=monitor_regular,
            monitor_unary=monitor_unary,
            instrument_arrays=instrument_arrays,
            array_granularity_object=array_granularity_object,
            memory_budget=memory_budget,
            gc_interval=gc_interval,
        )
        self.sync_edges = sync_edges
        self._stats = VcStats()

    def _check_cycle(self, closing: IdgEdge) -> None:
        """The clock probe alone: ``src`` happens-after a transaction of
        ``dst``'s thread at least as new as ``dst`` => a path
        ``dst ~> src`` exists, and the closing edge completes it."""
        stats = self._stats
        stats.cycle_checks += 1
        src, dst = closing.src, closing.dst
        clock = self.clocks.clock(src)
        if clock is None or clock.get(dst.thread_name, 0) < dst.tx_id:
            return
        stats.cycles_found += 1
        # the closing edge's destination is the current accessor — the
        # same node Velodrome's oldest-out/newest-in blame rule singles
        # out on a two-transaction cycle, so the backends agree there;
        # longer cycles have no canonical witness (see repro.core.blame)
        self.violations.add(
            ViolationRecord(
                blamed_method=dst.method,
                blamed_tx_id=dst.tx_id,
                thread_name=dst.thread_name,
                cycle_methods=(dst.method, src.method),
                cycle_tx_ids=(dst.tx_id, src.tx_id),
                detector=self.detector,
            )
        )
