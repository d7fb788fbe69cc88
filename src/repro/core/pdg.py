"""The precise dependence graph (PDG).

PCD adds cross-thread edges between transactions as it discovers
precise dependences, plus an intra-thread edge from each thread's
previous transaction to its next one (Velodrome's rule), and checks
for a cycle after each new cross-thread edge.  A cycle is a sound and
precise condition for a conflict-serializability violation.

Intra-thread edges matter: a cycle may mix the two kinds.  If
transaction ``B`` overlaps two transactions ``A1 → A2`` of another
thread — writing something ``A1`` reads *before* reading something
``A2`` writes — the cycle is ``B → A1 → A2 → B``, where ``A1 → A2`` is
program order.  (``B`` is the classic non-atomic region interleaved
around a whole critical section.)  Intra-thread edges can never
*close* a cycle themselves, though: the edge ``A1 → A2`` is created at
``A2``'s start, before ``A2`` has performed any access, so ``A2`` has
no outgoing dependence edges yet and no path back to ``A1`` can exist.
Hence only cross-thread edges need the per-edge cycle check.

**A plain adjacency map, searched by DFS.**  A PDG spans one ICD
component (on pcdheavy a median of 14 transactions, at most 128), so
each cycle check is a DFS from the new edge's sink over the whole
graph, and the newest edges can be undone: each edge keeps the seq of
the replayed access that created it, and :meth:`PDG.truncate` deletes
the edges from a seq on, which is what lets PCD roll a kept replay
back (see :mod:`repro.core.pcd`); an edge re-added after a rollback
gets the creation order it would get in a from-scratch replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set


@dataclass(frozen=True)
class PdgEdge:
    """A precise cross-thread dependence edge between transactions.

    ``order`` is the creation index used by blame assignment; ``seq``
    is the executor sequence number of the replayed access that created
    the edge (0 for Velodrome's cycle witnesses, which are never
    truncated).
    """

    src: int
    dst: int
    order: int
    seq: int = 0


class PDG:
    """Transaction-level dependence graph with per-edge cycle checks."""

    def __init__(self) -> None:
        #: adjacency: src tx id -> dst tx id -> edge (first creation wins)
        self._adj: Dict[int, Dict[int, PdgEdge]] = {}
        #: every edge in creation order; ``edges[i].order == i + 1``
        self.edges: List[PdgEdge] = []
        self.cycle_checks = 0
        #: total nodes visited across all cycle checks — the real cost
        #: of per-edge detection
        self.nodes_visited = 0

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def add_edge(self, src: int, dst: int, seq: int = 0) -> Optional[PdgEdge]:
        """Add an edge created at ``seq``; returns it if new, ``None``
        if it already existed.  Seqs must not decrease from one added
        edge to the next."""
        if src == dst:
            return None
        out = self._adj.get(src)
        if out is None:
            out = self._adj[src] = {}
        elif dst in out:
            return None
        edge = PdgEdge(src, dst, len(self.edges) + 1, seq)
        out[dst] = edge
        self.edges.append(edge)
        return edge

    def truncate(self, seq: int) -> None:
        """Delete every edge created at ``seq`` or later."""
        edges = self.edges
        adj = self._adj
        while edges and edges[-1].seq >= seq:
            edge = edges.pop()
            del adj[edge.src][edge.dst]

    def successors(self, node: int) -> Dict[int, PdgEdge]:
        return self._adj.get(node, {})

    # ------------------------------------------------------------------
    def find_cycle_through(self, edge: PdgEdge) -> Optional[List[PdgEdge]]:
        """Find a cycle that uses ``edge``, as an ordered edge list.

        Searches for a path ``edge.dst ⇝ edge.src``; if found, the cycle
        is that path followed by ``edge``.  Returns ``None`` when acyclic.
        """
        self.cycle_checks += 1
        target = edge.src
        start = edge.dst
        if start == target:
            return None
        adj = self._adj
        # iterative DFS remembering the edge that discovered each node
        discovered: Dict[int, PdgEdge] = {}
        stack = [start]
        seen: Set[int] = {start}
        try:
            while stack:
                out = adj.get(stack.pop())
                if not out:
                    continue
                for succ, out_edge in out.items():
                    if succ in seen:
                        continue
                    discovered[succ] = out_edge
                    if succ == target:
                        return self._reconstruct(edge, discovered, start, target)
                    seen.add(succ)
                    stack.append(succ)
            return None
        finally:
            self.nodes_visited += len(seen)

    @staticmethod
    def _reconstruct(
        closing: PdgEdge, discovered: Dict[int, PdgEdge], start: int, target: int
    ) -> List[PdgEdge]:
        path: List[PdgEdge] = []
        node = target
        while node != start:
            edge = discovered[node]
            path.append(edge)
            node = edge.src
        path.reverse()
        path.append(closing)
        return path

    # ------------------------------------------------------------------
    def nodes(self) -> Set[int]:
        nodes: Set[int] = set()
        for edge in self.edges:
            nodes.add(edge.src)
            nodes.add(edge.dst)
        return nodes
