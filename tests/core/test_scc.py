"""SCC detection over transaction graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scc import (
    is_cyclic_component,
    scc_containing,
    scc_containing_counted,
)
from repro.core.transactions import IdgEdge, Transaction


def make_txs(n, thread_prefix="T"):
    txs = [
        Transaction(i + 1, f"{thread_prefix}{i + 1}", f"m{i + 1}", False)
        for i in range(n)
    ]
    for tx in txs:
        tx.finished = True
    return txs


def connect(src, dst, order=None):
    edge = IdgEdge(src, dst, "test", order or (src.tx_id * 100 + dst.tx_id))
    src.out_edges.append(edge)
    dst.in_edges.append(edge)


def test_acyclic_node_is_singleton():
    a, b = make_txs(2)
    connect(a, b)
    assert scc_containing(a) == [a]
    assert not is_cyclic_component(scc_containing(a))


def test_two_cycle():
    a, b = make_txs(2)
    connect(a, b)
    connect(b, a)
    component = scc_containing(a)
    assert set(component) == {a, b}
    assert is_cyclic_component(component)


def test_cycle_through_intra_edges():
    """A cycle can pass through a thread's intra-transaction chain."""
    a1, a2, b = make_txs(3)
    a1.thread_name = a2.thread_name = "TA"
    a1.intra_next = a2
    a2.intra_prev = a1
    connect(a2, b)
    connect(b, a1)
    component = scc_containing(b)
    assert set(component) == {a1, a2, b}


def test_unfinished_transactions_not_explored():
    a, b, c = make_txs(3)
    connect(a, b)
    connect(b, c)
    connect(c, a)
    b.finished = False
    component = scc_containing(a)
    assert component == [a]  # the cycle is invisible until b finishes


def test_collected_transactions_not_explored():
    a, b = make_txs(2)
    connect(a, b)
    connect(b, a)
    b.collected = True
    assert scc_containing(a) == [a]


def test_maximal_component_not_just_one_cycle():
    """Two overlapping cycles form one SCC."""
    a, b, c = make_txs(3)
    connect(a, b)
    connect(b, a)
    connect(b, c)
    connect(c, b)
    assert set(scc_containing(a)) == {a, b, c}


def test_nested_graph_outside_scc_excluded():
    a, b, c, d = make_txs(4)
    connect(a, b)
    connect(b, a)
    connect(b, c)  # c, d reachable but not in the SCC
    connect(c, d)
    assert set(scc_containing(a)) == {a, b}


def test_long_cycle():
    txs = make_txs(12)
    for i in range(12):
        connect(txs[i], txs[(i + 1) % 12])
    assert set(scc_containing(txs[5])) == set(txs)


def test_self_component_root_unfinished():
    (a,) = make_txs(1)
    a.finished = False
    assert scc_containing(a) == [a]


def test_deep_chain_does_not_recurse():
    """The iterative sweeps handle chains far beyond Python's
    recursion limit."""
    txs = make_txs(5000)
    for i in range(4999):
        connect(txs[i], txs[i + 1])
    connect(txs[-1], txs[0])  # one huge cycle
    assert len(scc_containing(txs[0])) == 5000


@st.composite
def transaction_graphs(draw):
    """A few threads' intra chains, random cross edges between threads,
    and random finished/collected flags on every transaction."""
    lengths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    chains, txs = [], []
    for thread, length in enumerate(lengths):
        chain = []
        for _ in range(length):
            tx = Transaction(len(txs) + 1, f"T{thread}", "m", False)
            tx.finished = draw(st.integers(0, 3)) > 0
            tx.collected = draw(st.integers(0, 5)) == 0
            if chain:
                chain[-1].intra_next = tx
                tx.intra_prev = chain[-1]
            chain.append(tx)
            txs.append(tx)
        chains.append(chain)
    ends = st.tuples(st.integers(0, len(chains) - 1), st.integers(0, 4))
    for _ in range(draw(st.integers(0, 30))):
        (src_t, src_i), (dst_t, dst_i) = draw(ends), draw(ends)
        if src_t != dst_t:
            src = chains[src_t][src_i % len(chains[src_t])]
            dst = chains[dst_t][dst_i % len(chains[dst_t])]
            connect(src, dst)
    return txs


def reachable(start):
    """Transactions reachable from ``start`` through finished,
    uncollected transactions (``start`` itself included)."""
    seen, todo = {start}, [start]
    while todo:
        node = todo.pop()
        succs = [edge.dst for edge in node.out_edges] + [node.intra_next]
        for succ in succs:
            if (
                succ is not None
                and succ.finished
                and not succ.collected
                and succ not in seen
            ):
                seen.add(succ)
                todo.append(succ)
    return seen


@settings(max_examples=300, deadline=None)
@given(transaction_graphs())
def test_pass_returns_exactly_the_mutually_reachable_transactions(txs):
    """The definition of the root's SCC, checked from every root: the
    finished, uncollected transactions that reach the root and that the
    root reaches, through finished, uncollected transactions over
    ``out_edges`` and ``intra_next``; ``[root]`` for an unfinished
    root.  The visit count is the root's reachable region."""
    for root in txs:
        component, visits = scc_containing_counted(root)
        if not root.finished:
            assert (component, visits) == ([root], 1)
            continue
        if root.collected:
            continue  # ICD starts each pass from a just-ended, live root
        forward = reachable(root)
        expected = {tx for tx in forward if root in reachable(tx)}
        assert len(component) == len(set(component))
        assert set(component) == expected
        assert visits == len(forward)
