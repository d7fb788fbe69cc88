"""Property-based soundness/precision tests on random programs.

These are executable versions of the paper's key claims:

* **Section 3.2.5 (ICD soundness):** for every precise dependence
  cycle, ICD detects an SCC whose transactions are a superset of the
  cycle's transactions.
* **Single-run mode is sound and precise:** on the same execution it
  reports a violation iff an independent whole-trace oracle finds a
  precise cycle — and agrees with our Velodrome implementation.

The oracle is deliberately independent of the production code paths:
it records the raw access trace and applies Figure 5's rules offline
over the *entire* execution in true order, then computes SCCs over
cross-thread plus program-order edges (``repro.oracle.serializability``).

Two program generators feed it: generator-bodied programs (driven one
``yield`` at a time) and scripted programs, whose bodies the executor
lowers into columns and runs through ICD's fused barrier — array
reads and writes included.  In both, worker scripts interleave their
calls with bare reads and writes, so unary transactions join the
cycles too.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.doublechecker import DoubleChecker
from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.core.reports import ViolationSummary
from repro.oracle.serializability import TraceRecorder, oracle_cyclic_sccs
from repro.runtime.executor import Executor
from repro.runtime.lowering import script_body
from repro.runtime.ops import Acquire, Compute, Invoke, Read, Release, Write
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler
from repro.spec.specification import AtomicitySpecification
from repro.vc.checker import VcChecker
from repro.velodrome.checker import VelodromeChecker

from tests.util import ALL_OBJECTS

# ----------------------------------------------------------------------
# random-program strategy
# ----------------------------------------------------------------------
# an op is (kind, object index, field index):
#   0 = read, 1 = write, 2 = locked read+write
op_strategy = st.tuples(
    st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)
)
method_strategy = st.lists(op_strategy, min_size=1, max_size=4)
# a worker step is a call (an int picking the method) or a bare access
# (kind 0 = read, 1 = write; object index; field index) that runs in a
# unary transaction, since the worker is an entry point and not atomic
step_strategy = st.one_of(
    st.integers(0, 3),
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
)
script_strategy = st.lists(                              # per-thread scripts
    st.lists(step_strategy, min_size=1, max_size=6),
    min_size=2,
    max_size=3,
)
program_strategy = st.tuples(
    st.lists(method_strategy, min_size=1, max_size=4),   # method bodies
    script_strategy,
    st.integers(0, 10_000),                              # scheduler seed
)


def materialize(method_specs, thread_scripts):
    program = Program("random")
    objects = program.add_global_objects("objs", 2)

    for index, ops in enumerate(method_specs):
        def make_body(ops=ops):
            def body(ctx):
                for kind, obj_index, field_index in ops:
                    obj = objects[obj_index]
                    fieldname = f"f{field_index}"
                    if kind == 0:
                        yield Read(obj, fieldname)
                    elif kind == 1:
                        yield Write(obj, fieldname, 1)
                    else:
                        yield Acquire(obj)
                        value = yield Read(obj, fieldname)
                        yield Write(obj, fieldname, (value or 0) + 1)
                        yield Release(obj)

            return body

        program.method(make_body(), name=f"m{index}")

    method_count = len(method_specs)
    for tid, script in enumerate(thread_scripts):
        def make_worker(script=script):
            def worker(ctx):
                for step in script:
                    if isinstance(step, int):
                        yield Invoke(f"m{step % method_count}")
                        continue
                    kind, obj_index, field_index = step
                    obj = objects[obj_index]
                    if kind == 0:
                        yield Read(obj, f"f{field_index}")
                    else:
                        yield Write(obj, f"f{field_index}", 1)

            return worker

        name = f"worker{tid}"
        program.method(make_worker(), name=name)
        program.mark_entry(name)
        program.add_thread(f"T{tid}", name)
    return program


def calls_only(thread_scripts):
    """Whether every worker step is a call, so that every access runs
    in an atomic method's transaction.  Method entry and exit demarcate
    those alike for every checker, so each checker's verdict must then
    equal the oracle's over ICD's transactions as well as over its own:
    a referee that also catches a checker driving the shared
    :class:`~repro.core.transactions.TransactionManager` wrongly."""
    return all(
        isinstance(step, int) for script in thread_scripts for step in script
    )


#: the oracle properties run each case with collection off and at its
#: most aggressive cadence (a collection at every transaction end), so
#: a verdict is checked while the collector runs too
GC_INTERVALS = (None, 1)


def run_checked(checker, program, seed, sync_edges=True):
    """Run ``checker`` with the oracle's recorder beside it, and return
    the oracle's cyclic SCCs over the transactions the checker formed.

    Each checker is refereed over its own transactions, and over ICD's
    too where :func:`calls_only` holds.  A unary transaction absorbs
    accesses until a cross-thread edge touches it, and the checkers see
    different edges (ICD's come from Octet's transitions), so they can
    demarcate the same schedule's unary accesses differently (see
    :data:`_SPLIT_UNARY`).
    """
    recorder = TraceRecorder(checker)
    Executor(
        program, RandomScheduler(seed=seed, switch_prob=0.7),
        [checker, recorder],
    ).run()
    return oracle_cyclic_sccs(recorder.trace, sync_edges)


def run_all(method_specs, thread_scripts, seed, sync_edges=True,
            gc_interval=None, **icd_kwargs):
    """Run DC single-run and Velodrome on one schedule, each beside the
    oracle's recorder.

    Returns ``(violations, components, oracle, velodrome,
    velodrome_oracle, pcd)``: the oracles judge ICD's and Velodrome's
    transactions.  ``sync_edges`` is passed to the oracles only (see
    :func:`oracle_cyclic_sccs`); ``gc_interval`` to ICD and Velodrome;
    the other keyword arguments to ICD.  PCD replays with ICD's Octet
    conflict set, as in single-run mode."""
    program = materialize(method_specs, thread_scripts)
    spec = AtomicitySpecification.initial(program)

    violations = ViolationSummary()
    components = []

    def on_scc(component):
        components.append({tx.tx_id for tx in component})
        violations.extend(pcd.process(component))

    icd = ICD(spec, on_scc=on_scc, gc_interval=gc_interval, **icd_kwargs)
    pcd = PCD(icd.octet.conflicted)
    oracle = run_checked(icd, program, seed, sync_edges)

    program_v = materialize(method_specs, thread_scripts)
    velodrome = VelodromeChecker(
        AtomicitySpecification.initial(program_v), gc_interval=gc_interval
    )
    velodrome_oracle = run_checked(velodrome, program_v, seed, sync_edges)

    return violations, components, oracle, velodrome, velodrome_oracle, pcd


@given(program_strategy)
@settings(max_examples=60, deadline=None)
def test_icd_sccs_are_supersets_of_precise_cycles(case):
    for gc_interval in GC_INTERVALS:
        _, components, oracle, _, _, _ = run_all(
            *case, gc_interval=gc_interval
        )
        for cycle in oracle:
            assert any(cycle <= component for component in components), (
                f"precise cycle {cycle} not covered by any ICD SCC "
                f"{components} (gc_interval={gc_interval})"
            )


#: regression examples for the PCD log-merge ordering bug: edge marks
#: created after the source transaction ended (or attributed by ICD to
#: a thread's *next* transaction) used to enter the merge heap at their
#: creation seq, letting later accesses overtake parked earlier ones
#: and deriving a phantom backwards dependence edge — a false positive
#: on a lock-protected read-modify-write program with no precise cycle
_MERGE_REGRESSION_1 = (
    [[(2, 0, 1), (0, 0, 0), (0, 0, 0), (0, 1, 0)]],
    [[0, 0, 0], [0, 0, 0], [0]],
    1050,
)
_MERGE_REGRESSION_2 = (
    [[(2, 0, 0), (0, 0, 0), (0, 0, 0), (0, 1, 0)]],
    [[0, 0, 0], [0, 0, 0], [0]],
    1050,
)


#: a cycle with a unary member: m0 reads a field twice while another
#: thread's bare write lands between the reads
_UNARY_MEMBER = ([[(0, 1, 1), (0, 1, 1)]], [[0], [(1, 1, 1)]], 1179)


def test_unary_member_example_closes_through_a_unary_transaction():
    violations, _, oracle, velodrome, velodrome_oracle, _ = run_all(
        *_UNARY_MEMBER
    )
    assert oracle and velodrome_oracle
    for records in (violations.records, velodrome.violations.records):
        assert any("<unary>" in r.cycle_methods for r in records)


#: ICD and Velodrome demarcate this schedule's unary accesses
#: differently: T1's m2 reads f1, T0 writes f0 and then f1 outside any
#: atomic method, and m2 reads f0.  Octet's transition on m2's read
#: ends T0's unary transaction before the write of f1, so ICD puts the
#: two writes in two transactions; Velodrome sees no edge until the
#: write of f1 itself, which it has already merged into the first.
_SPLIT_UNARY = (
    [[(0, 0, 0)], [(0, 0, 0)], [(0, 0, 1), (0, 0, 0)]],
    [[0, 0, (1, 0, 0), (1, 0, 1)], [2]],
    999,
)


def test_split_unary_is_serializable_over_icd_transactions():
    """T0's write of f0, then m2, then T0's write of f1 is a serial
    order, and DoubleChecker reports nothing: the execution has no
    precise cycle, which the strict xfail below relies on."""
    for gc_interval in GC_INTERVALS:
        violations, _, oracle, _, _, _ = run_all(
            *_SPLIT_UNARY, gc_interval=gc_interval
        )
        assert not oracle and not violations, gc_interval


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "TransactionManager.transaction_for_fields merges an access into "
        "the current unary transaction before the access's own edges are "
        "known: Velodrome and vc merge T0's two writes, and m2 closes a "
        "cycle with the merged transaction that the split writes do not "
        "(ROADMAP item 1, 'Unary demarcation')"
    ),
)
def test_velodrome_and_vc_are_clean_where_the_icd_oracle_is():
    """The execution has no precise cycle, so no sound and precise
    checker may report one, whichever way it cuts T0's unary writes."""
    method_specs, thread_scripts, seed = _SPLIT_UNARY
    for gc_interval in GC_INTERVALS:
        for checker_class in (VelodromeChecker, VcChecker):
            program = materialize(method_specs, thread_scripts)
            checker = checker_class(
                AtomicitySpecification.initial(program),
                gc_interval=gc_interval,
            )
            checker.run(program, RandomScheduler(seed=seed, switch_prob=0.7))
            assert not checker.violations, (checker_class, gc_interval)


#: ICD settings the single-run verdict is refereed under: the defaults,
#: and each setting that changes which accesses PCD reads
ICD_SETTINGS = ({}, {"elide_duplicates": False}, {"merge_unary": False})


@given(program_strategy)
@example(_MERGE_REGRESSION_1)
@example(_MERGE_REGRESSION_2)
@example(_UNARY_MEMBER)
@settings(max_examples=60, deadline=None)
def test_single_run_sound_and_precise_vs_oracle(case):
    for icd_kwargs in ICD_SETTINGS:
        for gc_interval in GC_INTERVALS:
            violations, _, oracle, _, _, _ = run_all(
                *case, gc_interval=gc_interval, **icd_kwargs
            )
            assert bool(violations) == bool(oracle), (gc_interval, icd_kwargs)


@given(program_strategy)
@example(_MERGE_REGRESSION_1)
@example(_MERGE_REGRESSION_2)
@example(_UNARY_MEMBER)
@settings(max_examples=60, deadline=None)
def test_single_run_agrees_with_velodrome(case):
    """Both sound+precise checkers agree with the oracle's verdict over
    their own transactions.

    Exact cycle *witnesses* can legitimately differ between the two
    checkers on the same schedule: each reports one cycle per closing
    edge (the first DFS path found), PCD computes conflict edges within
    an SCC's restricted access set (where a transitive ``W→...→R``
    chain may appear as one direct conflict edge), and blame compares
    checker-local edge-creation orders.  What must hold: the verdicts
    agree with the oracle, every reported witness lies inside an oracle
    SCC transaction-for-transaction (same transaction numbering), and
    every oracle SCC over ICD's transactions holds one of DC's precise
    cycles.  Where every worker step is a call (:func:`calls_only`),
    Velodrome's verdict must equal the oracle's over ICD's transactions
    too.
    """
    for gc_interval in GC_INTERVALS:
        violations, _, oracle, velodrome, velodrome_oracle, _ = run_all(
            *case, gc_interval=gc_interval
        )
        assert bool(violations) == bool(oracle), gc_interval
        assert bool(velodrome.violations) == bool(velodrome_oracle), \
            gc_interval
        if calls_only(case[1]):
            assert bool(velodrome.violations) == bool(oracle), gc_interval
        for record in velodrome.violations.records:
            assert any(
                set(record.cycle_tx_ids) <= scc for scc in velodrome_oracle
            ), (record.cycle_tx_ids, velodrome_oracle, gc_interval)

        for record in violations.records:
            # each precise cycle sits inside one oracle SCC (same tx ids)
            assert any(
                set(record.cycle_tx_ids) <= scc for scc in oracle
            ), (record.cycle_tx_ids, oracle, gc_interval)

        # every oracle SCC is witnessed by at least one DC cycle
        for scc in oracle:
            assert any(
                set(record.cycle_tx_ids) <= scc
                for record in violations.records
            ), (scc, [r.cycle_tx_ids for r in violations.records], gc_interval)


#: a cycle closed only by a lock release -> acquire edge: the
#: data-only oracle and the default vc arm see none, Velodrome and the
#: sync arm report it
_RELEASE_ACQUIRE_ONLY = ([[(2, 0, 1), (0, 0, 1), (2, 0, 0)]], [[0], [0]], 73)


@given(program_strategy)
@example(_RELEASE_ACQUIRE_ONLY)
@example(_UNARY_MEMBER)
@example(_SPLIT_UNARY)
@settings(max_examples=40, deadline=None)
def test_vector_clock_agrees_with_oracle_and_velodrome(case):
    """The vc backend's two arms each track an existing referee: the
    default arm shares the data-only oracle's design point (data-
    conflict edges only, no synchronization edges), and the
    ``sync_edges`` arm builds Velodrome's exact graph — so each must
    reproduce its referee's boolean verdict (the oracle's over vc's own
    transactions, and over ICD's where :func:`calls_only` holds), and
    the sync arm must perform exactly Velodrome's per-edge cycle
    checks."""
    method_specs, thread_scripts, seed = case

    for gc_interval in GC_INTERVALS:
        _, _, oracle, velodrome, _, _ = run_all(
            *case, sync_edges=False, gc_interval=gc_interval
        )
        arms = {}
        for sync_edges in (False, True):
            program = materialize(method_specs, thread_scripts)
            vc = VcChecker(
                AtomicitySpecification.initial(program),
                sync_edges=sync_edges,
                gc_interval=gc_interval,
            )
            arms[sync_edges] = vc, run_checked(vc, program, seed, sync_edges)
        vc, vc_oracle = arms[False]
        vc_sync, _ = arms[True]
        assert bool(vc.violations) == bool(vc_oracle), gc_interval
        if calls_only(thread_scripts):
            assert bool(vc.violations) == bool(oracle), gc_interval
        assert bool(vc_sync.violations) == bool(velodrome.violations), \
            gc_interval
        assert vc_sync.stats.cycle_checks == velodrome.stats.cycle_checks, \
            gc_interval


# ----------------------------------------------------------------------
# scripted programs: the lowered path against the oracle
# ----------------------------------------------------------------------
# an op is (kind, object index, slot):
#   0 = field read, 1 = field write, 2 = locked read+increment,
#   3 = array read, 4 = array write
# slot % 2 picks the field for kinds 0-2; slot picks the array index
# for kinds 3-4
scripted_op_strategy = st.tuples(
    st.integers(0, 4), st.integers(0, 1), st.integers(0, 3)
)
scripted_program_strategy = st.tuples(
    st.lists(                                            # method bodies
        st.lists(scripted_op_strategy, min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
    script_strategy,
    st.integers(0, 10_000),                              # scheduler seed
)


def materialize_scripted(method_specs, thread_scripts):
    """Build the random program entirely from script-IR bodies."""
    program = Program("random-scripted")
    objects = program.add_global_objects("objs", 2)
    arr = program.add_global_array("arr", 4)

    for index, ops in enumerate(method_specs):
        def make_script(ops=ops):
            def script(ctx):
                out = []
                for kind, obj_index, slot in ops:
                    obj = objects[obj_index]
                    fieldname = f"f{slot % 2}"
                    if kind == 0:
                        out.append(("read", obj, fieldname, None))
                    elif kind == 1:
                        out.append(("write", obj, fieldname, ("const", 1)))
                    elif kind == 2:
                        out.append(("acquire", obj))
                        out.append(("read", obj, fieldname, "v"))
                        out.append(("write", obj, fieldname, ("inc", "v", 1)))
                        out.append(("release", obj))
                    elif kind == 3:
                        out.append(("aread", arr, slot, None))
                    else:
                        out.append(("awrite", arr, slot, ("const", 1)))
                return out

            return script

        program.method(script_body(make_script()), name=f"m{index}")

    method_count = len(method_specs)
    for tid, script in enumerate(thread_scripts):
        def make_worker(script=script):
            def worker(ctx):
                out = []
                for step in script:
                    if isinstance(step, int):
                        out.append(("invoke", f"m{step % method_count}", ()))
                        continue
                    kind, obj_index, field_index = step
                    obj = objects[obj_index]
                    if kind == 0:
                        out.append(("read", obj, f"f{field_index}", None))
                    else:
                        out.append(
                            ("write", obj, f"f{field_index}", ("const", 1))
                        )
                return out

            return worker

        name = f"worker{tid}"
        program.method(script_body(make_worker()), name=name)
        program.mark_entry(name)
        program.add_thread(f"T{tid}", name)
    return program


def run_scripted(method_specs, thread_scripts, seed):
    """Single-run ICD+PCD on a scripted program, plus its referees.

    ICD (arrays instrumented) is the executor's only listener, so its
    fused barrier handles every lowered access.  The oracle trace
    comes from a second run of the same program and seed with
    :class:`TraceRecorder` attached (its ICD has the same
    configuration, so it assigns the same transactions); Velodrome
    checks a third, beside a recorder of its own (see
    :func:`run_checked`).
    """

    def schedule():
        return RandomScheduler(seed=seed, switch_prob=0.7)

    program = materialize_scripted(method_specs, thread_scripts)
    violations = ViolationSummary()
    icd = ICD(
        AtomicitySpecification.initial(program),
        on_scc=lambda component: violations.extend(pcd.process(component)),
        gc_interval=None,
        instrument_arrays=True,
    )
    pcd = PCD(icd.octet.conflicted)
    executor = Executor(program, schedule(), [icd])
    result = executor.run()

    program_o = materialize_scripted(method_specs, thread_scripts)
    icd_o = ICD(
        AtomicitySpecification.initial(program_o),
        gc_interval=None,
        instrument_arrays=True,
    )
    recorder = TraceRecorder(icd_o)
    result_o = Executor(program_o, schedule(), [icd_o, recorder]).run()
    assert result_o.steps == result.steps
    oracle = oracle_cyclic_sccs(recorder.trace)

    program_v = materialize_scripted(method_specs, thread_scripts)
    velodrome = VelodromeChecker(
        AtomicitySpecification.initial(program_v),
        gc_interval=None,
        instrument_arrays=True,
    )
    velodrome_oracle = run_checked(velodrome, program_v, seed)
    return violations, executor, icd, oracle, velodrome, velodrome_oracle


#: two threads writing then re-reading a field and an array element
#: they own: the fused barrier's fast path must run
_FUSED_EXAMPLE = (
    [[(1, 0, 0), (0, 0, 0), (4, 0, 1), (3, 0, 1)]],
    [[0, 0], [0]],
    7,
)


@given(scripted_program_strategy)
@example(_FUSED_EXAMPLE)
@settings(max_examples=60, deadline=None)
def test_lowered_single_run_sound_and_precise_vs_oracle(case):
    method_specs, thread_scripts, seed = case
    violations, executor, icd, oracle, velodrome, velodrome_oracle = (
        run_scripted(method_specs, thread_scripts, seed)
    )
    assert bool(violations) == bool(oracle)
    for record in violations.records:
        assert any(
            set(record.cycle_tx_ids) <= scc for scc in oracle
        ), (record.cycle_tx_ids, oracle)
    assert bool(velodrome.violations) == bool(velodrome_oracle)
    if calls_only(thread_scripts):
        assert bool(velodrome.violations) == bool(oracle)

    # every body ran lowered, and with ICD the only listener every
    # same-state barrier was resolved by a fused barrier
    octet_stats = icd.octet.stats
    assert executor._batch_frames_lowered > 0
    assert executor._batch_frames_generator == 0
    assert octet_stats.fast_path_fused == octet_stats.fast_path
    if case == _FUSED_EXAMPLE:
        assert octet_stats.fast_path_fused > 0


# ----------------------------------------------------------------------
# resumable, filtered PCD: every replay against a from-scratch replay
# of every access
# ----------------------------------------------------------------------
def _schedule(seed):
    return RandomScheduler(seed=seed, switch_prob=0.7)


def _filtered(members, conflicted):
    """The accesses PCD replays for ``members`` from scratch, with
    their transactions, in seq order: each member's accesses to objects
    in ``conflicted`` and its first access (see repro.core.pcd)."""
    pairs = [
        (entry, tx) for tx in members for i, entry in enumerate(tx.log)
        if i == 0 or entry[1][0] in conflicted
    ]
    return sorted(pairs, key=lambda pair: pair[0][0])


#: objs[0] becomes conflicted late, through T0's and T2's closing bare
#: accesses: the conflict set grows between two components that share
#: their first members, so the second, which the kept replay could
#: otherwise resume, starts fresh
_GROWN_SET = (
    [[(2, 1, 0), (0, 1, 0)]],
    [[0, 0, 0, (0, 0, 0)], [0, 0], [0, 0, (1, 0, 0)]],
    328,
)


def _run_examples(max_examples):
    """Single-run mode on generated and scripted programs, with
    collection off and at every transaction end."""

    @given(program_strategy)
    @example(_GROWN_SET)
    @settings(max_examples=max_examples, deadline=None)
    def generated(case):
        method_specs, thread_scripts, seed = case
        for gc_interval in GC_INTERVALS:
            program = materialize(method_specs, thread_scripts)
            DoubleChecker(
                AtomicitySpecification.initial(program),
                gc_interval=gc_interval,
            ).run_single(program, _schedule(seed))

    @given(scripted_program_strategy)
    @settings(max_examples=max_examples, deadline=None)
    def scripted(case):
        method_specs, thread_scripts, seed = case
        for gc_interval in GC_INTERVALS:
            program = materialize_scripted(method_specs, thread_scripts)
            DoubleChecker(
                AtomicitySpecification.initial(program),
                gc_interval=gc_interval,
                instrument_arrays=True,
            ).run_single(program, _schedule(seed))

    generated()
    scripted()


def test_resumed_replay_equals_from_scratch_replay(monkeypatch):
    """PCD resumes each component from the kept replay of the one
    before and skips accesses to objects Octet never saw conflict
    (:mod:`repro.core.pcd`).  Inside single-run mode, every call must
    return exactly the records that a reference PCD returns on the same
    component from scratch, replaying every access, and must count each
    access the filter keeps as replayed or resumed.  Some call across
    the examples must resume, some must skip accesses, and some must
    start fresh because the conflict set grew, or the property checked
    nothing."""
    process = PCD.process
    references = {}
    resumed_calls, skipping_calls, grown_calls = [], [], []

    def checked_process(pcd, component):
        reference = references.get(pcd)
        if reference is None:
            reference = references[pcd] = PCD(ALL_OBJECTS, pcd.memory_budget)
        reference._kept = None
        members = [tx for tx in component if tx.log is not None]
        kept = pcd._kept
        grown = kept is not None and kept.conflicts != len(pcd.conflicted)
        stats = pcd.stats
        replayed, resumed = stats.entries_replayed, stats.entries_resumed
        records = process(pcd, component)
        assert records == process(reference, component)
        if len(members) < 2:
            return records
        kept_accesses = len(_filtered(members, pcd.conflicted))
        every_access = sum(len(tx.log) for tx in members)
        resumed = stats.entries_resumed - resumed
        assert stats.entries_replayed - replayed + resumed == kept_accesses
        if resumed:
            resumed_calls.append(len(members))
        if kept_accesses < every_access:
            skipping_calls.append(every_access - kept_accesses)
        if grown:
            assert not resumed
            grown_calls.append(len(members))
        return records

    monkeypatch.setattr(PCD, "process", checked_process)
    _run_examples(60)
    assert resumed_calls and skipping_calls and grown_calls


def test_replay_order_is_seq_order_and_satisfies_every_anchor(monkeypatch):
    """Every replay PCD runs in single-run mode, the kept trail's
    accesses followed by the replay order, is exactly its component's
    filtered accesses in seq order, each with the transaction that
    logged it; and for every edge between members, every access the
    source logged before the edge's anchor (its creation seq) replays
    before every access the sink logged from it on."""
    process, replay = PCD.process, PCD._replay
    components, orders = [], []

    def recording_process(pcd, component):
        components.append(component)
        return process(pcd, component)

    def checked_replay(pcd, state, order, accesses, owners):
        assert sorted(order) == list(range(len(accesses)))
        assert len(owners) == len(accesses)
        members = [tx for tx in components[-1] if tx.log is not None]
        trail = state.trail
        pairs = list(zip(trail[0::5], trail[1::5]))
        pairs += [(accesses[i], owners[i]) for i in order]
        expected = _filtered(members, pcd.conflicted)
        assert len(pairs) == len(expected)
        for (entry, tx), (want, owner) in zip(pairs, expected):
            assert entry is want and tx is owner
        position = {entry[0]: i for i, (entry, _) in enumerate(pairs)}
        ids = {tx.tx_id for tx in members}

        def replayed(tx, keep):
            return [
                position[e[0]] for e in tx.log
                if e[0] in position and keep(e[0])
            ]

        for tx in members:
            for edge in tx.out_edges:
                if edge.dst.tx_id not in ids:
                    continue
                before = replayed(tx, lambda seq: seq < edge.seq)
                after = replayed(edge.dst, lambda seq: seq >= edge.seq)
                if before and after:
                    assert max(before) < min(after), edge
        orders.append(len(order))
        return replay(pcd, state, order, accesses, owners)

    monkeypatch.setattr(PCD, "process", recording_process)
    monkeypatch.setattr(PCD, "_replay", checked_replay)
    _run_examples(40)
    assert any(orders)


def _assert_logs_nondecreasing(icd):
    for tx in icd.tx_manager.all_transactions:
        if tx.log is not None:
            seqs = [entry[0] for entry in tx.log]
            assert seqs == sorted(seqs), (tx, tx.log)
            assert not seqs or seqs[0] > 0, (tx, tx.log)


@given(program_strategy)
@settings(max_examples=40, deadline=None)
def test_every_log_is_nondecreasing_in_seq(case):
    """PCD takes a member's first logged access as its first access
    and resumes a replay at a seq cut (:mod:`repro.core.rwlog`): no
    entry may step back, and none may carry seq 0."""
    method_specs, thread_scripts, seed = case
    program = materialize(method_specs, thread_scripts)
    icd = ICD(AtomicitySpecification.initial(program), gc_interval=None)
    Executor(program, _schedule(seed), [icd]).run()
    _assert_logs_nondecreasing(icd)


@given(scripted_program_strategy)
@settings(max_examples=40, deadline=None)
def test_every_lowered_log_is_nondecreasing_in_seq(case):
    """The same for scripted programs, whose accesses are logged by
    ICD's fused barrier."""
    method_specs, thread_scripts, seed = case
    program = materialize_scripted(method_specs, thread_scripts)
    icd = ICD(
        AtomicitySpecification.initial(program),
        gc_interval=None,
        instrument_arrays=True,
    )
    Executor(program, _schedule(seed), [icd]).run()
    _assert_logs_nondecreasing(icd)
