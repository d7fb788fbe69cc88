"""The whole-trace oracle: its own SCC routine against the definition,
and its recorder against what the checkers instrument.

Two nodes share a strongly connected component iff each reaches the
other; the reference below computes reachability by closure, sharing
nothing with ``repro.oracle.serializability`` or ``repro.core.scc``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.icd import ICD
from repro.harness import runner
from repro.oracle.serializability import (
    TraceRecorder,
    _components,
    oracle_cyclic_sccs,
)
from repro.runtime.executor import Executor
from repro.workloads import build

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


# ----------------------------------------------------------------------
# the recorder sees what the checkers check
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["hsqldb6", "sor"])
def test_recorder_skips_uninstrumented_arrays(name):
    """Every backend leaves array accesses uninstrumented by default,
    and so must the recorder: filed under the thread's current or
    latest transaction, they gave the oracle cycles on these clean
    catalog programs that no checker reports."""
    spec = runner.initial_spec(name)
    icd = ICD(spec, on_scc=None)
    recorder = TraceRecorder(icd)
    Executor(build(name), runner.make_scheduler(0), [icd, recorder]).run()
    assert icd.stats.array_accesses_skipped > 0
    assert oracle_cyclic_sccs(recorder.trace) == []
    assert oracle_cyclic_sccs(recorder.trace, sync_edges=False) == []
