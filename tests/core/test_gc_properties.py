"""The one GC mark against a from-scratch reference mark.

Every analysis collects through :meth:`TransactionCollector.collect`,
which marks incrementally and is exact only if every cross edge is
reported (``note_link``) and every intra-thread link is replayed.  Here
each call is checked against a mark computed inside the test from the
liveness rule alone (``repro.core.gc``): follow ``out_edges`` and
``intra_next`` forward from the live transactions, and keep the latest
transaction of each thread and the passed pins alive without following
their edges.  Random programs drive every analysis that collects, at
its most aggressive cadence.
"""

import pytest
from hypothesis import given, settings

from repro.core.doublechecker import DoubleChecker
from repro.core.gc import TransactionCollector
from repro.runtime.scheduler import RandomScheduler
from repro.spec.specification import AtomicitySpecification
from repro.vc.checker import VcChecker
from repro.velodrome.checker import VelodromeChecker

from tests.integration.test_soundness_properties import (
    materialize,
    program_strategy,
)


def reference_sweep(manager, pinned):
    """The tx ids a from-scratch mark sweeps, in population order."""
    alive = set()
    frontier = list(manager.live_transactions())
    while frontier:
        tx = frontier.pop()
        if tx in alive:
            continue
        alive.add(tx)
        frontier.extend(edge.dst for edge in tx.out_edges)
        if tx.intra_next is not None:
            frontier.append(tx.intra_next)
    alive.update(manager.latest_transactions())
    alive.update(tx for tx in pinned if tx is not None)
    return [tx.tx_id for tx in manager.all_transactions if tx not in alive]


def _single(program, spec, scheduler):
    DoubleChecker(spec, gc_interval=1).run_single(program, scheduler)


def _first(program, spec, scheduler):
    DoubleChecker(spec, gc_interval=1).run_first(program, scheduler)


def _velodrome(program, spec, scheduler):
    VelodromeChecker(spec, gc_interval=1).run(program, scheduler)


def _vc(program, spec, scheduler):
    VcChecker(spec, sync_edges=True, gc_interval=1).run(program, scheduler)


CONFIGS = {
    "icd-single": _single,
    "icd-first": _first,
    "velodrome": _velodrome,
    "vc": _vc,
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_collection_sweeps_what_a_reference_mark_sweeps(
    config, monkeypatch
):
    collect = TransactionCollector.collect
    sweeps = []

    def checked_collect(self, pinned=()):
        pinned = list(pinned)
        expected = reference_sweep(self._manager, pinned)
        swept = collect(self, pinned)
        assert self.last_swept_ids == expected
        assert swept == len(expected)
        sweeps.append(swept)
        return swept

    monkeypatch.setattr(TransactionCollector, "collect", checked_collect)

    @given(program_strategy)
    @settings(max_examples=40, deadline=None)
    def collections_match(case):
        method_specs, thread_scripts, seed = case
        program = materialize(method_specs, thread_scripts)
        CONFIGS[config](
            program,
            AtomicitySpecification.initial(program),
            RandomScheduler(seed=seed, switch_prob=0.7),
        )

    collections_match()
    # the property is vacuous unless some collection swept something
    assert any(sweeps)
