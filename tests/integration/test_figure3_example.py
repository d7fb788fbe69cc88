"""A Figure 3-style scenario under a scripted scheduler.

Reconstructs the paper's running example: seven threads whose accesses
to two objects drive every ICD edge-creation procedure — conflicting
transitions, upgrades to RdSh (with the ``lastRdEx`` and ``gLastRdSh``
edges), the gLastRdSh ordering chain, fence transitions, and the
no-fence fast path — ending with an imprecise SCC of size four whose
precise cycle (extracted by PCD) has exactly two transactions, blamed
on the transaction that completed it.

Exact interleaving (one scheduler slot per runtime step):

====  ======================================================================
step  action
====  ======================================================================
T1    wr o.f            → o: WrEx(T1); Tx1 stays open
T2    rd o.g            → conflicting; o: RdEx(T2); edge Tx1→Tx2; Tx2 ends
T6    rd p.r            → initial; p: RdEx(T6); Tx6 ends
T5    rd p.q            → upgrading; p: RdSh(1); edge Tx6→Tx5 (lastRdEx);
                          gLastRdSh := Tx5; Tx5 ends
T3    rd o.f            → upgrading; o: RdSh(2); edges Tx2→Tx3 (lastRdEx),
                          Tx5→Tx3 (gLastRdSh chain); gLastRdSh := Tx3
T4    rd o.h            → fence (T4.rdShCnt 0 < 2); edge Tx3→Tx4; Tx4 ends
T7    rd o.h            → fence (counter → 2); edge Tx3→Tx7
T7    rd p.q            → NO fence (2 ≥ 1): the transitive-capture case
T3    wr o.g            → conflicting RdSh→WrEx; responders = every
                          other thread that ever ran (readers of a RdSh
                          object are not tracked, and finished threads
                          respond via the implicit protocol): edges from
                          each thread's current-or-latest transaction
                          into Tx3; Tx3 ends
T7    (ends)
T1    rd o.g            → conflicting WrEx(T3)→RdEx(T1); edge Tx3→Tx1;
                          Tx1 ends → an SCC containing
                          {Tx1,Tx2,Tx3,Tx7} (plus further transactions
                          the all-thread edges drag in — pure
                          imprecision); PCD extracts the precise cycle
                          {Tx1,Tx3}
====  ======================================================================
"""

import pytest

from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.octet.states import StateKind
from repro.runtime.executor import Executor
from repro.runtime.ops import Compute, Invoke, Read, Write
from repro.runtime.program import Program
from repro.runtime.scheduler import ScriptedScheduler
from repro.spec.specification import AtomicitySpecification


def build_scenario():
    program = Program("figure3")
    o = program.add_global_object("o")
    p = program.add_global_object("p")

    def tx1(ctx):
        yield Write(o, "f", 1)
        yield Compute(1)          # Tx1 stays open while others run
        yield Read(o, "g")        # reads T3's write: closes the cycle

    def tx2(ctx):
        yield Read(o, "g")

    def tx3(ctx):
        yield Read(o, "f")        # upgrading: lastRdEx + gLastRdSh edges
        yield Write(o, "g", 3)    # conflicting: o RdSh -> WrEx(T3)

    def tx4(ctx):
        yield Read(o, "h")        # fence on a different field: imprecise

    def tx5(ctx):
        yield Read(p, "q")        # upgrades p to RdSh(1)

    def tx6(ctx):
        yield Read(p, "r")        # initial RdEx(T6)

    def tx7(ctx):
        yield Read(o, "h")        # fence brings T7's counter to 2
        yield Read(p, "q")        # 2 >= 1: no fence (transitive capture)

    bodies = {1: tx1, 2: tx2, 3: tx3, 4: tx4, 5: tx5, 6: tx6, 7: tx7}
    for i, body in bodies.items():
        program.method(body, name=f"tx{i}")

        def entry(ctx, index=i):
            yield Invoke(f"tx{index}")

        program.method(entry, name=f"t{i}")
        program.mark_entry(f"t{i}")
        program.add_thread(f"T{i}", f"t{i}")
    return program, o, p


SCRIPT = (
    ["T1"] * 3        # start, invoke, wr o.f
    + ["T2"] * 5      # start, invoke, rd o.g, end tx2, end t2
    + ["T6"] * 5      # start, invoke, rd p.r, end, end
    + ["T5"] * 5      # start, invoke, rd p.q (upgrade), end, end
    + ["T3"] * 3      # start, invoke, rd o.f (upgrade)
    + ["T4"] * 5      # start, invoke, rd o.h (fence), end, end
    + ["T7"] * 4      # start, invoke, rd o.h (fence), rd p.q (no fence)
    + ["T3"] * 2      # wr o.g (conflicting), end tx3
    + ["T7"] * 1      # end tx7 (T7 stays alive: its thread-end is later)
    + ["T1"] * 4      # compute, rd o.g (conflicting), end tx1 -> SCC, end t1
    + ["T3"] * 1      # end t3
    + ["T7"] * 1      # end t7
)


@pytest.fixture(scope="module")
def run():
    program, o, p = build_scenario()
    spec = AtomicitySpecification.initial(program)
    assert all(spec.is_atomic(f"tx{i}") for i in range(1, 8))

    components = []
    violations = []

    def on_scc(component):
        components.append(list(component))
        violations.extend(pcd.process(component))

    icd = ICD(spec, on_scc=on_scc)
    pcd = PCD(icd.octet.conflicted)
    Executor(program, ScriptedScheduler(SCRIPT), [icd]).run()
    return {
        "icd": icd,
        "components": components,
        "violations": violations,
        "o": o,
        "p": p,
    }


def test_octet_states_follow_the_figure(run):
    icd, o, p = run["icd"], run["o"], run["p"]
    o_state = icd.octet.state_of(o.oid)
    # T1's final read moved o from WrEx(T3) to RdEx(T1)
    assert o_state.kind is StateKind.RD_EX
    assert o_state.owner == "T1"
    p_state = icd.octet.state_of(p.oid)
    assert p_state.kind is StateKind.RD_SH
    assert p_state.counter == 1


def test_transitions_cover_every_icd_procedure(run):
    stats = run["icd"].octet.stats
    assert stats.conflicting == 3        # T2's read, T3's write, T1's read
    assert stats.upgrading_rd_sh == 2    # p -> RdSh(1), o -> RdSh(2)
    assert stats.fences == 2             # T4's and T7's stale reads
    assert stats.fast_path > 0           # T7's no-fence read among them


def test_thread_counters_after_fences(run):
    octet = run["icd"].octet
    assert octet.g_rdsh_counter == 2
    assert octet.thread_counter("T3") == 2   # set by its own upgrade
    assert octet.thread_counter("T4") == 2   # fenced
    assert octet.thread_counter("T7") == 2   # fenced once, then fast path
    assert octet.thread_counter("T6") == 0   # never read a RdSh object


def test_icd_detects_a_superset_scc(run):
    components = run["components"]
    assert components
    largest = max(components, key=len)
    methods = {tx.method for tx in largest}
    # the figure's four cycle-forming transactions are all present...
    assert {"tx1", "tx2", "tx3", "tx7"} <= methods
    # ...inside a strictly larger imprecise component (the RdSh→WrEx
    # all-thread edges drag in bystanders — ICD's documented imprecision)
    assert len(largest) >= 4


def test_pcd_extracts_the_precise_two_cycle(run):
    violations = run["violations"]
    assert len(violations) == 1
    assert set(violations[0].cycle_methods) == {"tx1", "tx3"}


def test_blame_falls_on_tx1(run):
    """Tx1's outgoing edge existed before its incoming edge: it kept
    running after its effects escaped and completed the cycle."""
    assert run["violations"][0].blamed_method == "tx1"


def test_imprecise_members_fully_filtered(run):
    """Tx2 and Tx7 are in the imprecise SCC but in no precise cycle."""
    for violation in run["violations"]:
        assert "tx2" not in violation.cycle_methods
        assert "tx7" not in violation.cycle_methods
