"""Micro-benchmarks of the analysis building blocks.

Not a paper artefact — these time the Python implementations of the
hot paths (barriers, per-access analysis bodies, SCC detection, PCD
replay) so regressions in the library itself are visible.
"""

import pytest

from repro.core.doublechecker import DoubleChecker
from repro.core.pcd import PCD
from repro.core.scc import scc_containing
from repro.core.transactions import IdgEdge, Transaction
from repro.runtime.executor import Executor
from repro.runtime.scheduler import RandomScheduler
from repro.velodrome.checker import VelodromeChecker

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from tests.util import counter_program, spec_for  # noqa: E402


def test_executor_throughput(benchmark):
    """Uninstrumented interpretation speed (the 1.0 baseline)."""

    def run():
        program = counter_program(threads=2, iterations=40)
        Executor(program, RandomScheduler(seed=1, switch_prob=0.5)).run()

    benchmark(run)


def test_velodrome_full_run(benchmark):
    def run():
        program = counter_program(threads=2, iterations=40)
        VelodromeChecker(spec_for(program)).run(
            program, RandomScheduler(seed=1, switch_prob=0.5)
        )

    benchmark(run)


def test_doublechecker_single_full_run(benchmark):
    def run():
        program = counter_program(threads=2, iterations=40)
        DoubleChecker(spec_for(program)).run_single(
            program, RandomScheduler(seed=1, switch_prob=0.5)
        )

    benchmark(run)


def test_doublechecker_first_run(benchmark):
    def run():
        program = counter_program(threads=2, iterations=40)
        DoubleChecker(spec_for(program)).run_first(
            program, RandomScheduler(seed=1, switch_prob=0.5)
        )

    benchmark(run)


def test_scc_on_large_cycle(benchmark):
    txs = [Transaction(i + 1, f"T{i % 4}", "m", False) for i in range(600)]
    for tx in txs:
        tx.finished = True
    for i, tx in enumerate(txs):
        nxt = txs[(i + 1) % len(txs)]
        edge = IdgEdge(tx, nxt, "bench", i)
        tx.out_edges.append(edge)
        nxt.in_edges.append(edge)
    result = benchmark(scc_containing, txs[0])
    assert len(result) == 600


def test_pcd_replay_throughput(benchmark):
    def build_component():
        a = Transaction(1, "T1", "a", False)
        b = Transaction(2, "T2", "b", False)
        for tx in (a, b):
            tx.finished = True
            tx.log = []
        for i in range(400):
            a.log.append((2 * i, (1, f"f{i % 50}"), True, "s"))
            b.log.append((2 * i + 1, (1, f"f{i % 50}"), False, "s"))
        return [a, b]

    component = build_component()
    benchmark(lambda: PCD().process(component))
