"""Chain-collapsed view of the incremental engine.

The dependence graphs the engine certifies are *mostly chains*: every
transaction is linked to its thread predecessor by a program-order
edge, but only a small minority of transactions ever acquire a
cross-thread edge — and only those can seed or join a cycle.  Feeding
every program-order edge to the engine therefore pays per-transaction
maintenance for nodes that provably never matter.

:class:`ChainCollapsedGraph` keeps the engine graph restricted to the
cross-edge endpoints.  Each thread's program-order chain is collapsed
to edges between its *consecutive registered* transactions: for
registered ``a < b`` with no registered transaction between them, the
engine holds ``a -> b``, standing for the real path ``a -> ... -> b``
through the unregistered chain interior.  Registration happens lazily,
on a transaction's first cross edge; a later registration between two
already-registered neighbours splices into the chain (the existing
collapsed edge stays — it still denotes a real path, and extra edges
only ever make engine components larger, never smaller).

The engine graph remains a **supergraph** of live reachability: every
cross edge is inserted verbatim, and every chain segment between
registered transactions is covered transitively by the collapse edges.
Components are therefore still valid certificates — two registered
transactions in different components have no cycle through them.

What the collapse changes is *membership*: a real SCC can pass through
unregistered chain interiors (enter a thread at one registered
transaction, leave at a later one), and those interiors are absent
from the engine component.  :class:`ChainFrontier` restores them with
per-chain id windows: an interior transaction lies, by construction,
between two registered members of its own chain, hence inside the
``[min, max]`` window of that chain's member ids.  Admitting a few
extra in-window transactions is harmless — a restricted traversal that
admits any superset of the true SCC computes the same component in the
same order (an explored non-member can never reach back into the SCC,
or it would be a member).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Set

from repro.graph.engine import IncrementalSccDigraph


class ChainFrontier:
    """Membership predicate seeding a restricted cycle traversal.

    ``members`` are the registered ids of one engine component;
    ``windows`` maps a chain key (thread name) to the ``[lo, hi]`` id
    range its registered members span, admitting the unregistered
    chain interiors a cycle may run through.
    """

    __slots__ = ("members", "windows")

    def __init__(self, members: Set[int], windows: Dict[str, List[int]]) -> None:
        self.members = members
        self.windows = windows

    def __len__(self) -> int:
        return len(self.members)

    def admits(self, chain: str, node_id: int) -> bool:
        if node_id in self.members:
            return True
        window = self.windows.get(chain)
        return window is not None and window[0] <= node_id <= window[1]


class ChainCollapsedGraph:
    """Engine wrapper registering nodes lazily, on first cross edge."""

    __slots__ = ("graph", "_chains", "_chain_of")

    def __init__(self) -> None:
        self.graph = IncrementalSccDigraph()
        #: chain key -> ascending registered ids (ids are creation-
        #: ordered per chain, so id order *is* chain order)
        self._chains: Dict[str, List[int]] = {}
        #: registered id -> its chain key
        self._chain_of: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def register(self, node_id: int, chain: str) -> None:
        """Enter ``node_id`` into the engine, spliced into its chain."""
        self._chain_of[node_id] = chain
        graph = self.graph
        seq = self._chains.get(chain)
        if not seq:  # first registration, or the chain was fully swept
            self._chains[chain] = [node_id]
            graph.add_node(node_id)
            return
        if node_id > seq[-1]:
            # the common case: the chain's newest transaction
            graph.add_edge(seq[-1], node_id)
            seq.append(node_id)
            return
        # late registration (an old transaction resurfacing as an edge
        # source): splice between its registered chain neighbours
        index = bisect_left(seq, node_id)
        graph.add_node(node_id)
        if index > 0:
            graph.add_edge(seq[index - 1], node_id)
        if index < len(seq):
            graph.add_edge(node_id, seq[index])
        seq.insert(index, node_id)

    def note_cross_edge(
        self, src_id: int, src_chain: str, dst_id: int, dst_chain: str
    ) -> str:
        """Insert a cross-thread edge, registering unseen endpoints."""
        chain_of = self._chain_of
        if src_id not in chain_of:
            self.register(src_id, src_chain)
        if dst_id not in chain_of:
            self.register(dst_id, dst_chain)
        return self.graph.add_edge(src_id, dst_id)

    # ------------------------------------------------------------------
    # certificates
    # ------------------------------------------------------------------
    def same_component(self, a: int, b: int) -> bool:
        return self.graph.same_component(a, b)

    def in_cycle(self, node_id: int) -> bool:
        return self.graph.in_cycle(node_id)

    def frontier(self, node_id: int) -> ChainFrontier:
        """The membership predicate for ``node_id``'s component."""
        members = self.graph.component_members(node_id)
        windows: Dict[str, List[int]] = {}
        chain_of = self._chain_of
        for member in members:
            chain = chain_of[member]
            window = windows.get(chain)
            if window is None:
                windows[chain] = [member, member]
            elif member < window[0]:
                window[0] = member
            elif member > window[1]:
                window[1] = member
        return ChainFrontier(members, windows)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def forget(self, node_ids: Iterable[int]) -> int:
        """Drop collected registered singletons from the engine.

        A collected transaction's chain paths are already dead (the
        collector proved it unreachable from any future cycle), so
        un-splicing it without bridging its neighbours keeps the engine
        a supergraph of *live* reachability.
        """
        chain_of = self._chain_of
        candidates = [i for i in node_ids if i in chain_of]
        removed = self.graph.forget(candidates)
        if removed:
            graph = self.graph
            for node_id in candidates:
                if graph.contains(node_id):
                    continue  # merged into a component: must survive
                chain = chain_of.pop(node_id)
                seq = self._chains[chain]
                index = bisect_left(seq, node_id)
                if index < len(seq) and seq[index] == node_id:
                    del seq[index]
        return removed
