"""Equivalence of the incremental engine with the reference algorithms.

The engine replaces Velodrome's per-edge whole-graph DFS with
maintained certificates.  These tests pin it to brute-force
references on random edge streams:

* component membership after every edge equals the SCCs a from-scratch
  Tarjan computes on the same edge multiset;
* ``same_component`` answers exactly the "is there a cycle through
  this edge" question a per-edge DFS answers;
* the maintained topological order stays valid over the condensation
  (``check_invariants``), which is the engine's acyclicity proof;
* work counters are monotone, so stats syncing can never regress.

This mirrors the executor-equivalence suite from the previous
optimization round (``tests/runtime/test_executor_incremental.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    EDGE_CYCLE,
    EDGE_DUPLICATE,
    EDGE_FAST,
    EDGE_REORDERED,
    EDGE_SELF,
    IncrementalSccDigraph,
)

edges_strategy = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)),
    min_size=0,
    max_size=60,
)


def tarjan_sccs(edges):
    """From-scratch Tarjan over the accumulated edge list (reference)."""
    adj = {}
    nodes = set()
    for src, dst in edges:
        nodes.update((src, dst))
        adj.setdefault(src, set()).add(dst)
    index_of, lowlink, on_stack = {}, {}, set()
    stack, sccs = [], []
    counter = [0]

    def strongconnect(root):
        work = [(root, iter(sorted(adj.get(root, ()))))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(adj.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                sccs.append(component)

    for node in sorted(nodes):
        if node not in index_of:
            strongconnect(node)
    return {node: frozenset(c) for c in sccs for node in c}


def path_exists(edges, start, target):
    """Reference per-edge DFS: is there a ``start`` ⇝ ``target`` path?"""
    adj = {}
    for src, dst in edges:
        adj.setdefault(src, set()).add(dst)
    seen, stack = {start}, [start]
    while stack:
        node = stack.pop()
        if node == target:
            return True
        for succ in adj.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False


@settings(max_examples=150, deadline=None)
@given(edges_strategy)
def test_components_match_full_tarjan_after_every_edge(edges):
    engine = IncrementalSccDigraph()
    inserted = []
    for src, dst in edges:
        if src == dst:
            continue  # clients never insert self-edges
        engine.add_edge(src, dst)
        inserted.append((src, dst))
        engine.check_invariants()
        reference = tarjan_sccs(inserted)
        for node in {n for e in inserted for n in e}:
            assert engine.component_members(node) == set(reference[node])
            assert engine.in_cycle(node) == (len(reference[node]) > 1)


@settings(max_examples=150, deadline=None)
@given(edges_strategy)
def test_same_component_answers_the_old_cycle_check(edges):
    """After adding (src, dst), the old DFS asked: path dst ⇝ src?

    The engine answers with ``same_component`` — both endpoints on a
    cycle through the new edge iff they share an SCC.
    """
    engine = IncrementalSccDigraph()
    inserted = []
    for src, dst in edges:
        if src == dst:
            continue
        engine.add_edge(src, dst)
        inserted.append((src, dst))
        assert engine.same_component(src, dst) == path_exists(
            inserted, dst, src
        )


@settings(max_examples=100, deadline=None)
@given(edges_strategy)
def test_outcomes_and_counter_monotonicity(edges):
    engine = IncrementalSccDigraph()
    previous = (0, 0, 0, 0)
    for src, dst in edges:
        if src == dst:
            continue
        before_same = engine.same_component(src, dst)
        outcome = engine.add_edge(src, dst)
        if before_same:
            assert outcome == EDGE_SELF
        else:
            assert outcome in (
                EDGE_FAST,
                EDGE_REORDERED,
                EDGE_CYCLE,
                EDGE_DUPLICATE,
            )
        s = engine.stats
        current = (s.edges, s.search_visits, s.merges, s.merged_nodes)
        assert all(c >= p for c, p in zip(current, previous))
        previous = current


@settings(max_examples=100, deadline=None)
@given(edges_strategy, st.sets(st.integers(0, 14), max_size=8))
def test_forget_only_drops_acyclic_singletons(edges, to_forget):
    engine = IncrementalSccDigraph()
    inserted = []
    for src, dst in edges:
        if src == dst:
            continue
        engine.add_edge(src, dst)
        inserted.append((src, dst))
    engine.forget(to_forget)
    engine.check_invariants()
    # merged components must survive a forget: they are the acyclicity
    # certificate for every later membership query
    reference = tarjan_sccs(inserted)
    for node in {n for e in inserted for n in e}:
        if len(reference[node]) > 1:
            assert engine.component_members(node) == set(reference[node])


@settings(max_examples=100, deadline=None)
@given(edges_strategy)
def test_pdg_cycles_match_reference_sccs(edges):
    """The PDG's plain DFS finds a cycle exactly when one exists.

    After each new edge, ``find_cycle_through`` must return a cycle iff
    the edge's endpoints share a from-scratch Tarjan SCC, and a
    returned cycle must be a closed path of added edges that ends in
    the new edge (blame assignment and dedup keys hang off it).
    """
    from repro.core.pdg import PDG

    pdg = PDG()
    added = {}
    for src, dst in edges:
        edge = pdg.add_edge(src, dst)
        if src == dst or (src, dst) in added:
            assert edge is None
            continue
        assert edge is not None
        added[(src, dst)] = edge
        cycle = pdg.find_cycle_through(edge)
        reference = tarjan_sccs(list(added))
        assert (cycle is not None) == (dst in reference[src])
        if cycle is None:
            continue
        assert cycle[-1] is edge
        for step in cycle:
            assert added[(step.src, step.dst)] is step
        for prev, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            assert prev.dst == nxt.src
    assert pdg.nodes() == {node for pair in added for node in pair}
