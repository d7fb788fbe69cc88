"""Shared incremental cycle-detection engine.

``repro.graph`` hosts the graph maintenance machinery shared by ICD
and Velodrome:

* :class:`~repro.graph.engine.IncrementalSccDigraph` — Pearce–Kelly
  incremental topological ordering with union-find SCC contraction;
  the acyclicity/membership certificate behind every fast path.
* :class:`~repro.graph.chains.ChainCollapsedGraph` — the lazy
  registration layer: only cross-edge endpoints enter the engine, with
  each thread's program-order chain collapsed to edges between its
  consecutive registered transactions.
* :class:`~repro.graph.dirty.DirtySccScheduler` — the dirty-marking
  transaction-end schedule ICD layers on top of the engine.

See ``docs/API.md`` ("Analysis performance") for the design and the
report-equivalence arguments.
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
from repro.graph.dirty import DirtySccScheduler, DirtySccStats

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
    "DirtySccScheduler",
    "DirtySccStats",
]
