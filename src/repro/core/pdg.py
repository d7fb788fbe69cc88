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

**Cycle checks are engine-certified.**  Every edge is mirrored into a
shared :class:`~repro.graph.engine.IncrementalSccDigraph`, which keeps
a topological order of the graph's condensation.  A new edge whose
endpoints sit in different components provably closes no cycle, so the
per-edge check is a component lookup instead of a graph traversal.
When the endpoints do share a component, a DFS restricted to that
component's members finds the path: every node on a ``dst ⇝ src`` path
lies on a cycle through the closing edge and hence inside the
component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.engine import IncrementalSccDigraph


@dataclass(frozen=True)
class PdgEdge:
    """A precise cross-thread dependence edge between transactions.

    ``order`` is the creation index used by blame assignment.
    """

    src: int
    dst: int
    order: int


class PDG:
    """Transaction-level dependence graph with incremental cycle checks."""

    def __init__(self) -> None:
        #: adjacency: src tx id -> dst tx id -> edge (first creation wins)
        self._adj: Dict[int, Dict[int, PdgEdge]] = {}
        self._order = 0
        self.edge_count = 0
        self.cycle_checks = 0
        #: total nodes visited across all cycle checks — the real cost
        #: of per-edge detection; it counts only the component-restricted
        #: searches the engine did not certify away
        self.nodes_visited = 0
        #: node set, maintained incrementally on ``add_edge`` (it used
        #: to be rebuilt from the whole adjacency map per call)
        self._nodes: Set[int] = set()
        self.engine = IncrementalSccDigraph()

    def add_edge(self, src: int, dst: int) -> Optional[PdgEdge]:
        """Add an edge; returns it if new, ``None`` if it already existed."""
        if src == dst:
            return None
        out = self._adj.setdefault(src, {})
        if dst in out:
            return None
        self._order += 1
        edge = PdgEdge(src, dst, self._order)
        out[dst] = edge
        self.edge_count += 1
        self._nodes.add(src)
        self._nodes.add(dst)
        self.engine.add_edge(src, dst)
        return edge

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
        if not self.engine.same_component(start, target):
            # certified acyclic: the maintained topological order
            # witnesses that no dst ⇝ src path exists
            return None
        membership = self.engine.component_members(start)
        # iterative DFS remembering the edge that discovered each node
        discovered: Dict[int, PdgEdge] = {}
        stack = [start]
        seen: Set[int] = {start}
        try:
            while stack:
                node = stack.pop()
                for succ, out_edge in self.successors(node).items():
                    if succ in seen or succ not in membership:
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
        return set(self._nodes)
