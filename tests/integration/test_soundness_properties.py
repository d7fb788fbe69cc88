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
over the *entire* execution in true order, then runs an off-the-shelf
SCC computation (networkx) over cross-thread plus program-order edges.

Two program generators feed it: generator-bodied programs (driven one
``yield`` at a time) and scripted programs, whose bodies the executor
lowers into columns and runs through ICD's fused barrier — array
reads and writes included.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
import networkx as nx

from repro.core.doublechecker import DoubleChecker
from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.core.reports import ViolationSummary
from repro.runtime.events import AccessKind
from repro.runtime.executor import Executor
from repro.runtime.listeners import ExecutionListener
from repro.runtime.lowering import script_body
from repro.runtime.ops import Acquire, Compute, Invoke, Read, Release, Write
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler
from repro.spec.specification import AtomicitySpecification
from repro.vc.checker import VcChecker
from repro.velodrome.checker import VelodromeChecker

# ----------------------------------------------------------------------
# random-program strategy
# ----------------------------------------------------------------------
# an op is (kind, object index, field index):
#   0 = read, 1 = write, 2 = locked read+write
op_strategy = st.tuples(
    st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)
)
method_strategy = st.lists(op_strategy, min_size=1, max_size=4)
program_strategy = st.tuples(
    st.lists(method_strategy, min_size=1, max_size=4),   # method bodies
    st.lists(                                            # per-thread call scripts
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
        min_size=2,
        max_size=3,
    ),
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
                for call in script:
                    yield Invoke(f"m{call % method_count}")

            return worker

        name = f"worker{tid}"
        program.method(make_worker(), name=name)
        program.mark_entry(name)
        program.add_thread(f"T{tid}", name)
    return program


# ----------------------------------------------------------------------
# the independent oracle
# ----------------------------------------------------------------------
class TraceRecorder(ExecutionListener):
    """Records (tx, address, kind, is_sync) in execution order.

    Registered *after* ICD in the pipeline so it can read ICD's
    transaction assignment for each access (the same assignment PCD
    analyzes), while remaining independent of ICD's graph machinery.
    """

    def __init__(self, icd: ICD) -> None:
        self.icd = icd
        self.trace = []

    def on_access(self, event):
        tx = self.icd.tx_manager.current_or_latest(event.thread_name)
        if tx is not None:
            self.trace.append((tx, event.address, event.kind, event.is_sync))


def oracle_cyclic_sccs(trace, sync_edges=True):
    """Whole-trace Figure 5 + program order, SCCs via networkx.

    ``sync_edges=False`` drops synchronization pseudo-accesses, so only
    data conflicts order transactions (the vc backend's default).
    """
    graph = nx.DiGraph()
    last_write = {}
    last_reads = {}
    chains = {}
    for tx, address, kind, is_sync in trace:
        if is_sync and not sync_edges:
            continue
        graph.add_node(tx.tx_id)
        prev = chains.get(tx.thread_name)
        if prev is not None and prev is not tx:
            graph.add_edge(prev.tx_id, tx.tx_id)
        chains[tx.thread_name] = tx

        writer = last_write.get(address)
        if writer is not None and writer.thread_name != tx.thread_name:
            graph.add_edge(writer.tx_id, tx.tx_id)
        if kind is AccessKind.READ:
            last_reads.setdefault(address, {})[tx.thread_name] = tx
        else:
            for thread_name, reader in last_reads.get(address, {}).items():
                if thread_name != tx.thread_name:
                    graph.add_edge(reader.tx_id, tx.tx_id)
            last_reads[address] = {}
            last_write[address] = tx
    return [set(scc) for scc in nx.strongly_connected_components(graph) if len(scc) > 1]


#: the oracle properties run each case with collection off and at its
#: most aggressive cadence (a collection at every transaction end), so
#: a verdict is checked while the collector runs too
GC_INTERVALS = (None, 1)


def run_all(method_specs, thread_scripts, seed, sync_edges=True,
            gc_interval=None):
    """Run DC single-run + oracle on one schedule; Velodrome on the same.

    ``sync_edges`` is passed to the oracle only (see
    :func:`oracle_cyclic_sccs`); ``gc_interval`` to ICD and Velodrome."""
    program = materialize(method_specs, thread_scripts)
    spec = AtomicitySpecification.initial(program)

    pcd = PCD()
    violations = ViolationSummary()
    components = []

    def on_scc(component):
        components.append({tx.tx_id for tx in component})
        violations.extend(pcd.process(component))

    icd = ICD(spec, on_scc=on_scc, gc_interval=gc_interval)
    recorder = TraceRecorder(icd)
    Executor(
        program, RandomScheduler(seed=seed, switch_prob=0.7), [icd, recorder]
    ).run()
    oracle = oracle_cyclic_sccs(recorder.trace, sync_edges)

    program_v = materialize(method_specs, thread_scripts)
    velodrome = VelodromeChecker(
        AtomicitySpecification.initial(program_v), gc_interval=gc_interval
    ).run(program_v, RandomScheduler(seed=seed, switch_prob=0.7))

    return violations, components, oracle, velodrome, pcd


@given(program_strategy)
@settings(max_examples=60, deadline=None)
def test_icd_sccs_are_supersets_of_precise_cycles(case):
    for gc_interval in GC_INTERVALS:
        _, components, oracle, _, _ = run_all(*case, gc_interval=gc_interval)
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


@given(program_strategy)
@example(_MERGE_REGRESSION_1)
@example(_MERGE_REGRESSION_2)
@settings(max_examples=60, deadline=None)
def test_single_run_sound_and_precise_vs_oracle(case):
    for gc_interval in GC_INTERVALS:
        violations, _, oracle, _, _ = run_all(*case, gc_interval=gc_interval)
        assert bool(violations) == bool(oracle), gc_interval


@given(program_strategy)
@example(_MERGE_REGRESSION_1)
@example(_MERGE_REGRESSION_2)
@settings(max_examples=60, deadline=None)
def test_single_run_agrees_with_velodrome(case):
    """Both sound+precise checkers agree with the oracle's verdict.

    Exact cycle *witnesses* can legitimately differ between the two
    checkers on the same schedule: each reports one cycle per closing
    edge (the first DFS path found), PCD computes conflict edges within
    an SCC's restricted access set (where a transitive ``W→...→R``
    chain may appear as one direct conflict edge), and blame compares
    checker-local edge-creation orders.  What must hold: the verdicts
    agree, every reported witness lies inside an oracle SCC, and DC's
    precise cycles lie inside the oracle's SCCs transaction-for-
    transaction (same transaction numbering).
    """
    for gc_interval in GC_INTERVALS:
        violations, _, oracle, velodrome, _ = run_all(
            *case, gc_interval=gc_interval
        )
        assert bool(violations) == bool(oracle), gc_interval
        assert bool(velodrome.violations) == bool(oracle), gc_interval

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
@settings(max_examples=40, deadline=None)
def test_vector_clock_agrees_with_oracle_and_velodrome(case):
    """The vc backend's two arms each track an existing referee: the
    default arm shares the data-only oracle's design point (data-
    conflict edges only, no synchronization edges), and the
    ``sync_edges`` arm builds Velodrome's exact graph — so each must
    reproduce its referee's boolean verdict, and the sync arm must
    perform exactly Velodrome's per-edge cycle checks."""
    method_specs, thread_scripts, seed = case

    def run_vc(sync_edges, gc_interval):
        program = materialize(method_specs, thread_scripts)
        checker = VcChecker(
            AtomicitySpecification.initial(program),
            sync_edges=sync_edges,
            gc_interval=gc_interval,
        )
        return checker.run(
            program, RandomScheduler(seed=seed, switch_prob=0.7)
        )

    for gc_interval in GC_INTERVALS:
        _, _, oracle, velodrome, _ = run_all(
            *case, sync_edges=False, gc_interval=gc_interval
        )
        vc = run_vc(False, gc_interval)
        vc_sync = run_vc(True, gc_interval)
        assert bool(vc.violations) == bool(oracle), gc_interval
        assert bool(vc_sync.violations) == bool(velodrome.violations), \
            gc_interval
        assert vc_sync.stats.cycle_checks == velodrome.stats.cycle_checks, \
            gc_interval


@given(program_strategy)
@settings(max_examples=40, deadline=None)
def test_replay_never_falls_back(case):
    """PCD's topological merge must always be consistent (the edge
    anchors are sufficient; the seq tie-break never contradicts them)."""
    for gc_interval in GC_INTERVALS:
        _, _, _, _, pcd = run_all(*case, gc_interval=gc_interval)
        assert pcd.stats.order_fallbacks == 0, gc_interval


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
    st.lists(                                            # per-thread call scripts
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
        min_size=2,
        max_size=3,
    ),
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
                return [
                    ("invoke", f"m{call % method_count}", ())
                    for call in script
                ]

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
    checks a third.
    """

    def schedule():
        return RandomScheduler(seed=seed, switch_prob=0.7)

    program = materialize_scripted(method_specs, thread_scripts)
    pcd = PCD()
    violations = ViolationSummary()
    icd = ICD(
        AtomicitySpecification.initial(program),
        on_scc=lambda component: violations.extend(pcd.process(component)),
        gc_interval=None,
        instrument_arrays=True,
    )
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
    ).run(program_v, schedule())
    return violations, executor, icd, oracle, velodrome


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
    violations, executor, icd, oracle, velodrome = run_scripted(
        method_specs, thread_scripts, seed
    )
    assert bool(violations) == bool(oracle)
    for record in violations.records:
        assert any(
            set(record.cycle_tx_ids) <= scc for scc in oracle
        ), (record.cycle_tx_ids, oracle)
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
# resumable PCD: every resumed replay against a from-scratch replay
# ----------------------------------------------------------------------
def _schedule(seed):
    return RandomScheduler(seed=seed, switch_prob=0.7)


def test_resumed_replay_equals_from_scratch_replay(monkeypatch):
    """PCD resumes each component from the kept replay of the one
    before (:mod:`repro.core.pcd`).  Inside single-run mode, every call
    must return exactly the records that a reference PCD returns on the
    same component after its kept state is cleared, and must count
    each of the component's log entries as replayed or resumed.  Some
    call across the examples must resume, or the property checked
    nothing."""
    process = PCD.process
    references = {}
    resumed_calls = []

    def checked_process(pcd, component):
        reference = references.get(pcd)
        if reference is None:
            reference = references[pcd] = PCD(pcd.memory_budget)
        reference._kept = None
        stats = pcd.stats
        replayed, resumed = stats.entries_replayed, stats.entries_resumed
        records = process(pcd, component)
        assert records == process(reference, component)
        members = [tx for tx in component if tx.log is not None]
        total = sum(len(tx.log) for tx in members) if len(members) > 1 else 0
        resumed = stats.entries_resumed - resumed
        assert stats.entries_replayed - replayed + resumed == total
        if resumed:
            resumed_calls.append(len(members))
        return records

    monkeypatch.setattr(PCD, "process", checked_process)

    @given(program_strategy)
    @settings(max_examples=60, deadline=None)
    def generated(case):
        method_specs, thread_scripts, seed = case
        for gc_interval in GC_INTERVALS:
            references.clear()
            program = materialize(method_specs, thread_scripts)
            DoubleChecker(
                AtomicitySpecification.initial(program),
                gc_interval=gc_interval,
            ).run_single(program, _schedule(seed))

    @given(scripted_program_strategy)
    @settings(max_examples=60, deadline=None)
    def scripted(case):
        method_specs, thread_scripts, seed = case
        for gc_interval in GC_INTERVALS:
            references.clear()
            program = materialize_scripted(method_specs, thread_scripts)
            DoubleChecker(
                AtomicitySpecification.initial(program),
                gc_interval=gc_interval,
                instrument_arrays=True,
            ).run_single(program, _schedule(seed))

    generated()
    scripted()
    assert resumed_calls


def _assert_logs_nondecreasing(icd):
    for tx in icd.tx_manager.all_transactions:
        if tx.log is not None:
            seqs = [entry.seq for entry in tx.log.entries]
            assert seqs == sorted(seqs), (tx, tx.log.entries)
            assert not seqs or seqs[0] > 0, (tx, tx.log.entries)


@given(program_strategy)
@settings(max_examples=40, deadline=None)
def test_every_log_is_nondecreasing_in_seq(case):
    """PCD finds a resumed replay's entries by bisecting each log on
    seq (:mod:`repro.core.rwlog`); edge marks included, no entry may
    step back, and none may carry seq 0."""
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
