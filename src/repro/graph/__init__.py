"""Incremental cycle-detection engine behind Velodrome's per-edge checks.

* :class:`~repro.graph.engine.IncrementalSccDigraph` — Pearce–Kelly
  incremental topological ordering with union-find SCC contraction;
  the acyclicity/membership certificate behind Velodrome's certified
  skips.
* :class:`~repro.graph.chains.ChainCollapsedGraph` — the lazy
  registration layer: only cross-edge endpoints enter the engine, with
  each thread's program-order chain collapsed to edges between its
  consecutive registered transactions.

ICD does not use the engine: its transaction-end pass is the plain
Tarjan of :mod:`repro.core.scc`.  See ``docs/API.md`` ("Analysis
performance") for the design and the report-equivalence arguments.
"""

from repro.graph.engine import (
    EDGE_CYCLE,
    EDGE_DUPLICATE,
    EDGE_FAST,
    EDGE_REORDERED,
    EDGE_SELF,
    GraphEngineStats,
    IncrementalSccDigraph,
)
from repro.graph.chains import ChainCollapsedGraph, ChainFrontier

__all__ = [
    "EDGE_CYCLE",
    "EDGE_DUPLICATE",
    "EDGE_FAST",
    "EDGE_REORDERED",
    "EDGE_SELF",
    "GraphEngineStats",
    "IncrementalSccDigraph",
    "ChainCollapsedGraph",
    "ChainFrontier",
]
