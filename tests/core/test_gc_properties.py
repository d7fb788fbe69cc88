"""The one GC mark against a from-scratch reference mark.

Every analysis collects through :meth:`TransactionCollector.collect`,
which marks incrementally and is exact only if every cross edge is
reported (``note_link``) and every intra-thread link is replayed.  Here
each call is checked against a mark computed inside the test from the
liveness rule alone (``repro.core.gc``): follow ``out_edges`` and
``intra_next`` forward from the live transactions, and keep the latest
transaction of each thread and the passed pins alive without following
their edges.  Random programs drive every analysis that collects, at
its most aggressive cadence.  ICD's collections must also leave the
IDG's edge lists and intra-thread links mirrored, which the SCC pass's
backward sweep relies on.
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.core.doublechecker import DoubleChecker
from repro.core.gc import TransactionCollector
from repro.core.icd import ICD
from repro.runtime.executor import Executor
from repro.runtime.scheduler import RandomScheduler
from repro.spec.specification import AtomicitySpecification
from repro.vc.checker import VcChecker
from repro.velodrome.checker import VelodromeChecker

from tests.integration.test_soundness_properties import (
    materialize,
    materialize_scripted,
    program_strategy,
    scripted_program_strategy,
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


def assert_idg_mirrored(transactions):
    """Every uncollected transaction's ``in_edges`` are exactly the
    uncollected out-edges that point to it, compared as multisets, and
    its ``intra_prev`` and ``intra_next`` mirror its neighbours' links:
    the precondition of the SCC pass's backward sweep
    (:mod:`repro.core.scc`)."""
    live = [tx for tx in transactions if not tx.collected]
    outgoing, incoming = Counter(), Counter()
    for tx in live:
        for edge in tx.out_edges:
            assert edge.src is tx and not edge.dst.collected, (tx, edge)
            outgoing[id(edge)] += 1
        for edge in tx.in_edges:
            assert edge.dst is tx and not edge.src.collected, (tx, edge)
            incoming[id(edge)] += 1
        nxt, prev = tx.intra_next, tx.intra_prev
        assert nxt is None or (nxt.intra_prev is tx and not nxt.collected), tx
        assert prev is None or (prev.intra_next is tx and not prev.collected), tx
    assert outgoing == incoming


def test_every_collection_leaves_the_idg_mirrored(monkeypatch):
    """After every collection, and at the end of every run, on generator
    and scripted programs with collection off and at every transaction
    end, in both ICD modes."""
    collect = TransactionCollector.collect
    checked = []

    def checked_collect(self, pinned=()):
        swept = collect(self, pinned)
        assert_idg_mirrored(self._manager.all_transactions)
        checked.append(swept)
        return swept

    monkeypatch.setattr(TransactionCollector, "collect", checked_collect)

    def check(program, seed, **icd_kwargs):
        for gc_interval in (None, 1):
            for logging_enabled in (True, False):
                icd = ICD(
                    AtomicitySpecification.initial(program()),
                    gc_interval=gc_interval,
                    logging_enabled=logging_enabled,
                    **icd_kwargs,
                )
                Executor(
                    program(), RandomScheduler(seed=seed, switch_prob=0.7),
                    [icd],
                ).run()
                assert_idg_mirrored(icd.tx_manager.all_transactions)

    @given(program_strategy)
    @settings(max_examples=40, deadline=None)
    def generated(case):
        method_specs, thread_scripts, seed = case
        check(lambda: materialize(method_specs, thread_scripts), seed)

    @given(scripted_program_strategy)
    @settings(max_examples=40, deadline=None)
    def scripted(case):
        method_specs, thread_scripts, seed = case
        check(
            lambda: materialize_scripted(method_specs, thread_scripts), seed,
            instrument_arrays=True,
        )

    generated()
    scripted()
    # the property is vacuous unless some collection swept something
    assert any(checked)
