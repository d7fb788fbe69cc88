"""Precise dependence graph and incremental cycle detection."""

from repro.core.pdg import PDG, PdgEdge


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


def test_truncate_deletes_newest_edges_and_reuses_their_orders():
    pdg = PDG()
    pdg.add_edge(1, 2)
    pdg.add_edge(2, 3)
    pdg.add_edge(3, 1)
    pdg.add_edge(1, 4)
    pdg.truncate(2)
    assert [(e.src, e.dst, e.order) for e in pdg.edges] == [(1, 2, 1), (2, 3, 2)]
    assert pdg.successors(3) == {} and 4 not in pdg.successors(1)
    # re-added edges get the orders a graph built from the prefix gives
    assert pdg.add_edge(1, 4).order == 3
    closing = pdg.add_edge(3, 1)
    assert closing.order == 4
    assert [(e.src, e.dst) for e in pdg.find_cycle_through(closing)] == [
        (1, 2),
        (2, 3),
        (3, 1),
    ]
