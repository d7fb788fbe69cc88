"""The shared transaction clocks against the reachability they encode.

``clock(b).get(a.thread_name, 0) >= a.tx_id`` must hold exactly when a
path of at least one edge leads from ``a`` to ``b`` over cross edges
and program order.  Random interleavings of transaction starts and
cross edges over 2–4 threads check it for every pair after every step;
edges go into the newest or an older transaction of their destination's
thread, as an analysis adds them into an accessor or into a transaction
that was interrupted mid-access.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocks import TransactionClocks
from repro.core.transactions import IdgEdge, Transaction


@st.composite
def interleavings(draw):
    threads = draw(st.integers(2, 4))
    start = st.tuples(st.just("start"), st.integers(0, threads - 1))
    edge = st.tuples(
        st.just("edge"),
        st.integers(0, threads - 1),  # source thread
        st.integers(1, threads - 1),  # destination thread offset
        st.integers(0, 63),  # which source transaction
        st.integers(0, 2),  # destination age: 0 is the newest
    )
    return threads, draw(st.lists(st.one_of(start, edge), max_size=40))


def reachable_from(tx):
    """Transactions a path of at least one edge leads to from ``tx``."""
    seen = set()
    stack = [tx]
    while stack:
        node = stack.pop()
        succs = [e.dst for e in node.out_edges]
        if node.intra_next is not None:
            succs.append(node.intra_next)
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def assert_clocks_match_paths(clocks, transactions):
    for a in transactions:
        reach = reachable_from(a)
        for b in transactions:
            sees = clocks.clock(b).get(a.thread_name, 0) >= a.tx_id
            assert sees == (b in reach), (a.tx_id, b.tx_id)


@settings(max_examples=300, deadline=None)
@given(interleavings())
def test_clocks_record_exactly_the_paths(case):
    threads, ops = case
    clocks = TransactionClocks()
    ids = itertools.count(1)
    chains = {f"T{i}": [] for i in range(threads)}
    transactions = []
    orders = itertools.count(1)

    def start(thread):
        tx = Transaction(next(ids), thread, "m", False)
        chain = chains[thread]
        if chain:
            chain[-1].intra_next = tx
            tx.intra_prev = chain[-1]
        chain.append(tx)
        transactions.append(tx)
        clocks.start(tx)

    for thread in chains:
        start(thread)
    assert_clocks_match_paths(clocks, transactions)

    for op in ops:
        if op[0] == "start":
            start(f"T{op[1]}")
        else:
            _, src_thread, offset, pick, age = op
            src_chain = chains[f"T{src_thread}"]
            dst_chain = chains[f"T{(src_thread + offset) % threads}"]
            src = src_chain[pick % len(src_chain)]
            dst = dst_chain[max(0, len(dst_chain) - 1 - age)]
            if any(e.dst is dst for e in src.out_edges):
                continue  # the analyses never add an edge twice
            edge = IdgEdge(src, dst, "test", next(orders))
            src.out_edges.append(edge)
            dst.in_edges.append(edge)
            before = {t.tx_id: dict(clocks.clock(t)) for t in transactions}
            grown = clocks.add_edge(src, dst)
            after = {t.tx_id: clocks.clock(t) for t in transactions}
            assert (grown == 0) == (before == after)
        assert_clocks_match_paths(clocks, transactions)


def test_forget_drops_swept_clocks():
    clocks = TransactionClocks()
    first = Transaction(1, "A", "m", False)
    second = Transaction(2, "A", "m", False)
    first.intra_next, second.intra_prev = second, first
    clocks.start(first)
    clocks.start(second)
    assert clocks.clock(second) == {"A": 1}
    clocks.forget([1, 7])
    assert clocks.clock(first) is None
    assert clocks.clock(second) == {"A": 1}
