"""ICD's fused barrier against the event barrier, run for run.

The fused barrier (:meth:`ICD.access_barrier`) inlines two decisions
that have a reference form elsewhere: Octet's same-state check
(``OctetRuntime.observe``) and the regular and merged-unary paths of
:meth:`~repro.core.transactions.TransactionManager.transaction_for_fields`.
The event barrier, :meth:`ExecutionListener.access_barrier`, sends every
access through :meth:`ICD.on_access` and so takes the reference forms.
On the same program and schedule the two must leave every record,
counter and log identical; only ``OctetStats.fast_path_fused`` tells
them apart.  A change to unary demarcation must change both copies.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.runtime.executor import Executor
from repro.runtime.listeners import ExecutionListener
from repro.runtime.scheduler import RandomScheduler
from repro.spec.specification import AtomicitySpecification

from tests.integration.test_soundness_properties import (
    materialize_scripted,
    scripted_program_strategy,
    scripted_op_strategy,
)

#: a worker step that is a bare access three times in four: long runs
#: of unary accesses that merge into one unary transaction
_bare_access = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
unary_heavy_program_strategy = st.tuples(
    st.lists(
        st.lists(scripted_op_strategy, min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.lists(
            st.one_of(_bare_access, _bare_access, _bare_access, st.integers(0, 3)),
            min_size=2,
            max_size=10,
        ),
        min_size=2,
        max_size=3,
    ),
    st.integers(0, 10_000),
)

#: ICD configurations, as keyword arguments: single-run mode, the
#: first run, a second run that skips unary accesses and half the
#: methods, a unary-site filter, and unary merging off.  Method ``m1``,
#: where there is one, is never atomic (see :func:`run`): its accesses
#: join the unary transaction of the worker that calls it, and the site
#: filter skips them while it keeps the worker's own bare accesses
MODES = {
    "single": dict(logging_enabled=True),
    "first": dict(logging_enabled=False),
    "second": dict(
        logging_enabled=True,
        monitor_regular=lambda method: method in ("m0", "m2"),
        monitor_unary=False,
    ),
    "unary-site": dict(
        logging_enabled=True,
        monitor_unary_site=lambda method: method != "m1",
    ),
    "unmerged": dict(logging_enabled=True, merge_unary=False),
}


def run(case, mode, instrument_arrays, fused):
    method_specs, thread_scripts, seed = case
    program = materialize_scripted(method_specs, thread_scripts)
    records = []
    components = []

    def on_scc(component):
        components.append(sorted(tx.tx_id for tx in component))
        if MODES[mode]["logging_enabled"]:
            records.extend(pcd.process(component))

    spec = AtomicitySpecification.initial(program)
    icd = ICD(
        spec.exclude(m for m in ("m1",) if m in spec.all_methods),
        on_scc=on_scc,
        gc_interval=None,
        instrument_arrays=instrument_arrays,
        **MODES[mode],
    )
    pcd = PCD(icd.octet.conflicted)
    if fused:
        assert icd.access_barrier().__code__.co_kwonlyargcount == 0
    else:
        icd.access_barrier = lambda: ExecutionListener.access_barrier(icd)
    result = Executor(
        program, RandomScheduler(seed=seed, switch_prob=0.7), [icd]
    ).run()
    octet = dataclasses.asdict(icd.octet.stats)
    fast_path_fused = octet.pop("fast_path_fused")
    assert fast_path_fused == (octet["fast_path"] if fused else 0)
    return {
        "steps": result.steps,
        "records": records,
        "components": components,
        "icd": dataclasses.asdict(icd.stats),
        "transactions": dataclasses.asdict(icd.tx_manager.stats),
        "octet": octet,
        "protocol": icd.octet.protocol.stats(),
        "elision": dataclasses.asdict(icd._elision.stats),
        "logs": [
            (tx.tx_id, tx.method, tx.log, tx.anchors)
            for tx in icd.tx_manager.all_transactions
        ],
    }


def assert_barriers_agree(case, mode, instrument_arrays):
    fused = run(case, mode, instrument_arrays, fused=True)
    event = run(case, mode, instrument_arrays, fused=False)
    assert fused == event
    return fused


@pytest.mark.parametrize("mode", sorted(MODES))
def test_fused_barrier_matches_the_event_barrier_on_unary_heavy_programs(mode):
    merged = []

    @given(unary_heavy_program_strategy, st.booleans())
    @settings(max_examples=60, deadline=None)
    def agree(case, instrument_arrays):
        outcome = assert_barriers_agree(case, mode, instrument_arrays)
        merged.append(outcome["transactions"]["unary_accesses"]
                      - outcome["transactions"]["unary_transactions"])

    agree()
    # the property is vacuous unless unary accesses merged somewhere
    # (the second run monitors none, and merging can be off)
    if mode not in ("second", "unmerged"):
        assert any(merged)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_fused_barrier_matches_the_event_barrier_on_regular_programs(mode):
    @given(scripted_program_strategy, st.booleans())
    @settings(max_examples=60, deadline=None)
    def agree(case, instrument_arrays):
        assert_barriers_agree(case, mode, instrument_arrays)

    agree()
