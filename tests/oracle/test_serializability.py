"""The whole-trace oracle's own SCC routine, against the definition.

Two nodes share a strongly connected component iff each reaches the
other; the reference below computes reachability by closure, sharing
nothing with ``repro.oracle.serializability`` or ``repro.core.scc``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracle.serializability import _components

graphs = st.integers(1, 9).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n,
    ).map(lambda edges: (n, edges))
)


def reference_components(n, edges):
    reach = [{node} for node in range(n)]
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            new = reach[dst] - reach[src]
            if new:
                reach[src] |= new
                changed = True
    return {
        frozenset(m for m in range(n) if node in reach[m] and m in reach[node])
        for node in range(n)
    }


@given(graphs)
@settings(max_examples=300, deadline=None)
def test_components_are_the_mutual_reachability_classes(graph):
    n, edges = graph
    succ = {node: set() for node in range(n)}
    for src, dst in edges:
        succ[src].add(dst)
    components = _components(succ)
    assert sum(map(len, components)) == n  # a partition of the nodes
    assert set(map(frozenset, components)) == reference_components(n, edges)
