"""The calibrated execution-time model.

Wall-clock numbers cannot transfer from a JVM on an i5 to a Python
simulator, so Figure 7's normalized execution times are reproduced
from *event counts*: every analysis counts exactly the events whose
hardware costs dominate in the paper (atomic operations, memory
fences, coordination roundtrips, log appends, graph and replay work),
and the model maps counts to time through per-event weights.

The weights are expressed in abstract cost units where one simulated
program operation costs :attr:`CostWeights.program_op`.  They are
calibrated against three anchors from the paper:

* Velodrome slows programs 6.1X, with 82% of its overhead coming from
  the analysis-access atomicity synchronization (Section 5.3) — so the
  atomic + fence terms dominate its per-access cost;
* DoubleChecker's single-run mode slows programs 3.6X; about two-fifths
  of that overhead is Octet + IDG + SCC work (≈ the first run of
  multi-run mode at 1.9X), nearly all the rest is read/write logging,
  and less than one-tenth is PCD (Section 5.3);
* GC time is driven by the footprint of long-lived read/write logs
  (Figure 7's sub-bars), modelled as a per-log-entry charge plus a
  per-collection charge proportional to the surviving graph.

The model is validated in ``benchmarks/bench_figure7_performance.py``:
with the catalog workloads, the geomean normalized times land near the
paper's 6.1X / 3.6X / 1.9X / 2.4X ordering with the same winners and
the same xalan6 crossover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.doublechecker import FirstRunResult, SingleRunResult
from repro.velodrome.checker import VelodromeResult


@dataclass(frozen=True)
class CostWeights:
    """Per-event costs, in abstract units (program op = 10)."""

    #: one simulated program operation (the uninstrumented baseline)
    program_op: float = 10.0

    # --- synchronization hardware costs -------------------------------
    #: an atomic read-modify-write (CAS); includes its serializing effect
    atomic_op: float = 36.0
    #: a memory fence
    fence: float = 9.0
    #: one coordination roundtrip of Octet's explicit protocol
    coordination_roundtrip: float = 130.0
    #: an implicit-protocol response (flag set + hold)
    coordination_implicit: float = 30.0

    # --- barrier bodies -------------------------------------------------
    #: Octet's fast-path state check (no writes, no synchronization)
    octet_fast_check: float = 2.3
    #: Velodrome's per-access analysis body (metadata read + compare),
    #: excluding the synchronization accounted separately
    velodrome_access_body: float = 7.0
    #: a metadata update (store of last writer/reader words)
    metadata_update: float = 2.5

    # --- graph work -----------------------------------------------------
    #: adding one dependence edge (allocation + list append)
    edge_add: float = 22.0
    #: one cycle-detection/SCC node visit
    graph_visit: float = 4.0
    #: launching one SCC computation (setup)
    scc_setup: float = 16.0

    # --- logging (single-run mode's dominant cost) ----------------------
    #: appending one read/write log entry (allocation + store)
    log_append: float = 18.0
    #: the elision check performed at every logged-candidate access
    elision_check: float = 2.5
    #: GC charge per log entry ever created (long-lived log footprint)
    gc_per_log_entry: float = 10.0
    #: GC charge per live transaction scanned per collection
    gc_per_tx_scanned: float = 0.4
    #: GC charge per unit of the live-log integral (entries alive at
    #: each transaction end): repeated collector traversals of retained
    #: logs.  Small for collected runs; ruinous when everything is
    #: retained, as in the PCD-only straw man (Section 5.4)
    gc_live_log_scan: float = 0.22

    # --- PCD --------------------------------------------------------------
    #: replaying one log entry (Figure 5 rules + merge step)
    pcd_replay_entry: float = 6.0
    #: one PDG edge + its cycle check
    pcd_edge: float = 14.0


@dataclass
class CostBreakdown:
    """Modelled time for one configuration on one benchmark."""

    base_units: float
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def overhead_units(self) -> float:
        return sum(self.components.values())

    @property
    def total_units(self) -> float:
        return self.base_units + self.overhead_units

    @property
    def normalized_time(self) -> float:
        """Execution time normalized to the uninstrumented baseline."""
        return self.total_units / self.base_units

    @property
    def gc_fraction(self) -> float:
        """Share of total time spent in GC (Figure 7's sub-bars)."""
        gc = self.components.get("gc", 0.0)
        return gc / self.total_units if self.total_units else 0.0

    def component_fraction(self, name: str) -> float:
        """Share of *overhead* attributed to one component."""
        if not self.overhead_units:
            return 0.0
        return self.components.get(name, 0.0) / self.overhead_units


class CostModel:
    """Maps analysis statistics to modelled normalized execution times."""

    def __init__(self, weights: Optional[CostWeights] = None) -> None:
        self.weights = weights or CostWeights()

    # ------------------------------------------------------------------
    def baseline_units(self, steps: int) -> float:
        return steps * self.weights.program_op

    # ------------------------------------------------------------------
    def velodrome(self, result: VelodromeResult) -> CostBreakdown:
        """Model Velodrome's cost from its counters."""
        w = self.weights
        s = result.stats
        breakdown = CostBreakdown(self.baseline_units(result.execution.steps))
        breakdown.components["synchronization"] = (
            s.atomic_operations * w.atomic_op + s.memory_fences * w.fence
        )
        breakdown.components["analysis"] = (
            s.instrumented_accesses * w.velodrome_access_body
            + s.metadata_updates * w.metadata_update
        )
        breakdown.components["graph"] = (
            s.edges * w.edge_add
            + s.cycle_checks * w.scc_setup
            + s.cycle_check_visits * w.graph_visit
        )
        breakdown.components["gc"] = (
            result.gc_stats.transactions_collected * w.gc_per_tx_scanned
            + result.gc_stats.peak_live_transactions * w.gc_per_tx_scanned
        )
        return breakdown

    # ------------------------------------------------------------------
    def _icd_components(
        self, icd_stats, octet_stats, protocol_stats, breakdown: CostBreakdown
    ) -> None:
        w = self.weights
        breakdown.components["octet"] = (
            octet_stats.barriers * w.octet_fast_check
            + octet_stats.atomic_operations * w.atomic_op
            + octet_stats.memory_fences_issued * w.fence
            + protocol_stats.get("explicit_responses", 0)
            * w.coordination_roundtrip
            + protocol_stats.get("implicit_responses", 0)
            * w.coordination_implicit
        )
        breakdown.components["idg"] = (
            icd_stats.idg_edges * w.edge_add
            + icd_stats.scc_computations * w.scc_setup
            # charge the SCC passes' traversal work that actually ran
            + icd_stats.scc_visits * w.graph_visit
            + icd_stats.cycle_detection_calls * w.graph_visit
        )

    def double_checker_single(self, result: SingleRunResult) -> CostBreakdown:
        """Model single-run mode (or the second run of multi-run mode)."""
        w = self.weights
        breakdown = CostBreakdown(self.baseline_units(result.execution.steps))
        self._icd_components(
            result.icd_stats, result.octet_stats, result.protocol_stats, breakdown
        )
        logged = result.icd_stats.log_entries + result.icd_stats.log_marks
        candidates = result.elision_stats.logged + result.elision_stats.elided
        breakdown.components["logging"] = (
            logged * w.log_append + candidates * w.elision_check
        )
        breakdown.components["pcd"] = (
            result.pcd_stats.entries_replayed * w.pcd_replay_entry
            + result.pcd_stats.pdg_edges * w.pcd_edge
            + result.pcd_stats.cycle_check_visits * w.graph_visit
        )
        breakdown.components["gc"] = (
            logged * w.gc_per_log_entry
            + result.gc_stats.transactions_collected * w.gc_per_tx_scanned
            + result.gc_stats.peak_live_log_entries * w.gc_per_tx_scanned
            + result.icd_stats.live_log_entry_integral * w.gc_live_log_scan
        )
        return breakdown

    def double_checker_first(self, result: FirstRunResult) -> CostBreakdown:
        """Model the first run of multi-run mode (ICD without logging)."""
        breakdown = CostBreakdown(self.baseline_units(result.execution.steps))
        self._icd_components(
            result.icd_stats, result.octet_stats, result.protocol_stats, breakdown
        )
        breakdown.components["gc"] = (
            result.gc_stats.transactions_collected
            * self.weights.gc_per_tx_scanned
        )
        return breakdown
