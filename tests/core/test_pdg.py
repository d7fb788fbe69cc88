"""Precise dependence graph and incremental cycle detection."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pdg import PDG, PdgEdge

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


def test_add_edge_assigns_creation_order():
    pdg = PDG()
    e1 = pdg.add_edge(1, 2)
    e2 = pdg.add_edge(2, 3)
    assert e1.order < e2.order
    assert pdg.edge_count == 2


def test_duplicate_edge_returns_none():
    pdg = PDG()
    assert pdg.add_edge(1, 2) is not None
    assert pdg.add_edge(1, 2) is None
    assert pdg.edge_count == 1


def test_self_edge_rejected():
    assert PDG().add_edge(1, 1) is None


def test_no_cycle_in_dag():
    pdg = PDG()
    pdg.add_edge(1, 2)
    edge = pdg.add_edge(2, 3)
    assert pdg.find_cycle_through(edge) is None


def test_two_cycle_found():
    pdg = PDG()
    e1 = pdg.add_edge(1, 2)
    e2 = pdg.add_edge(2, 1)
    cycle = pdg.find_cycle_through(e2)
    assert cycle is not None
    assert [(e.src, e.dst) for e in cycle] == [(1, 2), (2, 1)]


def test_long_cycle_path_order():
    pdg = PDG()
    pdg.add_edge(1, 2)
    pdg.add_edge(2, 3)
    pdg.add_edge(3, 4)
    closing = pdg.add_edge(4, 1)
    cycle = pdg.find_cycle_through(closing)
    assert [(e.src, e.dst) for e in cycle] == [
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 1),
    ]


def test_cycle_detection_ignores_unrelated_subgraph():
    pdg = PDG()
    pdg.add_edge(10, 11)
    pdg.add_edge(11, 10)
    edge = pdg.add_edge(1, 2)
    assert pdg.find_cycle_through(edge) is None


def test_nodes():
    pdg = PDG()
    pdg.add_edge(1, 2)
    pdg.add_edge(3, 2)
    assert pdg.nodes() == {1, 2, 3}


def test_cycle_check_counter():
    pdg = PDG()
    e = pdg.add_edge(1, 2)
    pdg.find_cycle_through(e)
    pdg.find_cycle_through(e)
    assert pdg.cycle_checks == 2


def test_truncate_deletes_edges_from_a_seq_and_reuses_their_orders():
    pdg = PDG()
    pdg.add_edge(1, 2, 10)
    pdg.add_edge(2, 3, 20)
    pdg.add_edge(3, 1, 30)
    pdg.add_edge(1, 4, 30)
    pdg.truncate(21)
    assert [(e.src, e.dst, e.order, e.seq) for e in pdg.edges] == [
        (1, 2, 1, 10), (2, 3, 2, 20),
    ]
    assert pdg.successors(3) == {} and 4 not in pdg.successors(1)
    pdg.truncate(21)
    assert pdg.edge_count == 2
    # re-added edges get the orders a graph built from the prefix gives
    assert pdg.add_edge(1, 4, 25).order == 3
    closing = pdg.add_edge(3, 1, 26)
    assert closing.order == 4
    assert [(e.src, e.dst) for e in pdg.find_cycle_through(closing)] == [
        (1, 2),
        (2, 3),
        (3, 1),
    ]


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
