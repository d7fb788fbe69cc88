"""The paper's §3.2.3 example and other in-text scenarios as tests."""

import pytest

from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.octet.transitions import TransitionKind
from repro.runtime.executor import Executor
from repro.runtime.ops import Compute, Invoke, Read, Write
from repro.runtime.program import Program
from repro.runtime.scheduler import ScriptedScheduler
from repro.spec.specification import AtomicitySpecification


def build_section_323_example():
    """Section 3.2.3's two-thread example:

        T1: wr o.f; rd p.q          T2: wr p.q; rd o.g; rd o.f

    Even if cycle detection ran at each cross-thread edge, no precise
    cycle exists until T2's final ``rd o.f`` executes — which takes the
    read barrier's *fast path* (T2 already owns o as RdEx), creating no
    new edge.  Deferring detection to transaction end guarantees the
    cycle is still found.
    """
    program = Program("sec323")
    o = program.add_global_object("o")
    p = program.add_global_object("p")

    def tx_a(ctx):
        yield Write(o, "f", 1)
        yield Compute(1)
        yield Read(p, "q")

    def tx_b(ctx):
        yield Write(p, "q", 2)
        yield Read(o, "g")
        yield Read(o, "f")     # fast path: closes the precise cycle

    for name, body in (("tx_a", tx_a), ("tx_b", tx_b)):
        program.method(body, name=name)

        def entry(ctx, m=name):
            yield Invoke(m)

        program.method(entry, name=f"run_{name}")
        program.mark_entry(f"run_{name}")
    program.add_thread("T1", "run_tx_a")
    program.add_thread("T2", "run_tx_b")
    return program, o, p


# interleaving: T1 wr o.f | T2 wr p.q, rd o.g | T1 rd p.q, end | T2 rd o.f, end
SCRIPT = (
    ["T1"] * 3    # start, invoke, wr o.f
    + ["T2"] * 4  # start, invoke, wr p.q, rd o.g
    + ["T1"] * 4  # compute, rd p.q, end tx_a, end
    + ["T2"] * 4  # rd o.f (fast path), end tx_b, end, -
)


@pytest.fixture(scope="module")
def run():
    program, o, p = build_section_323_example()
    spec = AtomicitySpecification.initial(program)
    assert spec.is_atomic("tx_a") and spec.is_atomic("tx_b")
    violations = []
    components = []

    def on_scc(component):
        components.append(component)
        violations.extend(pcd.process(component))

    icd = ICD(spec, on_scc=on_scc)
    pcd = PCD(icd.octet.conflicted)
    Executor(program, ScriptedScheduler(SCRIPT), [icd]).run()
    return icd, components, violations


def test_final_read_takes_the_fast_path(run):
    icd, _, _ = run
    # T2's rd o.f hits RdEx(T2): at least one same-state read occurred
    assert icd.octet.stats.fast_path > 0


def test_cycle_found_despite_fast_path_close(run):
    """The precise cycle's closing access creates no Octet transition,
    yet end-of-transaction detection still reports the violation."""
    _, components, violations = run
    assert components, "ICD must detect the imprecise cycle"
    assert violations, "PCD must confirm the precise cycle"
    methods = {m for v in violations for m in v.cycle_methods}
    assert methods == {"tx_a", "tx_b"}


def test_detection_happened_at_transaction_end(run):
    icd, _, _ = run
    # with delayed detection, the number of SCC computations is bounded
    # by the number of transaction ends, not by the number of edges
    assert icd.stats.scc_computations <= icd.stats.cycle_detection_calls
