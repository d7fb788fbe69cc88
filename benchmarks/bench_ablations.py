"""Ablations of DoubleChecker's design choices (DESIGN.md §4).

Not paper artefacts, but each corresponds to a design decision the
paper motivates; the ablation quantifies the decision on our
workloads:

* **unary-transaction merging** — consecutive unary transactions not
  interrupted by an edge are merged (Section 4); off = one transaction
  per non-transactional access.
* **read/write-log duplicate elision** — logs skip same-window
  duplicates (Section 4); off = log every instrumented access.
* **first-run trials sensitivity** — multi-run mode unions static
  information across first runs (Section 5.1 uses 10); more trials
  buy detection coverage with more up-front cost.
"""

import pytest

from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.core.reports import ViolationSummary
from repro.core.static_info import StaticTransactionInfo
from repro.costs.model import CostModel
from repro.harness import runner
from repro.harness.rendering import render_table
from repro.runtime.executor import Executor
from repro.runtime.view import ExecutorView
from repro.stats.summary import geomean
from repro.workloads import build

NAMES = ["hsqldb6", "lusearch9", "montecarlo", "tsp"]


def run_icd_variant(name, spec, seed, **icd_kwargs):
    """One single-run-style execution with custom ICD knobs."""
    violations = ViolationSummary()
    icd = ICD(
        spec, on_scc=lambda c: violations.extend(pcd.process(c)), **icd_kwargs
    )
    pcd = PCD(icd.octet.conflicted)
    executor = Executor(build(name), runner.make_scheduler(seed), [icd])
    icd.bind_view(ExecutorView(executor))
    execution = executor.run()
    return icd, pcd, violations, execution


class TestUnaryMerging:
    @pytest.fixture(scope="class")
    def rows(self, write_result):
        out = []
        for name in NAMES:
            spec = runner.final_spec(name)
            merged_icd, _, merged_v, _ = run_icd_variant(
                name, spec, 7, merge_unary=True
            )
            split_icd, _, split_v, _ = run_icd_variant(
                name, spec, 7, merge_unary=False
            )
            out.append(
                [
                    name,
                    merged_icd.tx_manager.stats.unary_transactions,
                    split_icd.tx_manager.stats.unary_transactions,
                    len(merged_v.blamed_methods()),
                    len(split_v.blamed_methods()),
                ]
            )
        write_result(
            "ablation_unary_merging",
            render_table(
                ["benchmark", "merged unary-tx", "split unary-tx",
                 "violations(merged)", "violations(split)"],
                out,
                title="Ablation: unary-transaction merging",
            ),
        )
        return out

    def test_bench(self, benchmark, rows):
        spec = runner.final_spec("hsqldb6")
        benchmark.pedantic(
            lambda: run_icd_variant("hsqldb6", spec, 7, merge_unary=False),
            rounds=1,
            iterations=1,
        )

    def test_merging_shrinks_transaction_population(self, rows):
        for name, merged, split, _mv, _sv in rows:
            assert merged <= split, name

    def test_merging_preserves_detection(self, rows):
        for name, _m, _s, merged_violations, split_violations in rows:
            assert merged_violations == split_violations, name


class TestLogElision:
    @pytest.fixture(scope="class")
    def rows(self, write_result):
        out = []
        for name in NAMES:
            spec = runner.final_spec(name)
            elided_icd, _, elided_v, _ = run_icd_variant(
                name, spec, 7, elide_duplicates=True
            )
            full_icd, _, full_v, _ = run_icd_variant(
                name, spec, 7, elide_duplicates=False
            )
            out.append(
                [
                    name,
                    elided_icd.stats.log_entries,
                    full_icd.stats.log_entries,
                    len(elided_v.blamed_methods()),
                    len(full_v.blamed_methods()),
                ]
            )
        write_result(
            "ablation_log_elision",
            render_table(
                ["benchmark", "elided log", "full log",
                 "violations(elided)", "violations(full)"],
                out,
                title="Ablation: read/write-log duplicate elision",
            ),
        )
        return out

    def test_bench(self, benchmark, rows):
        spec = runner.final_spec("hsqldb6")
        benchmark.pedantic(
            lambda: run_icd_variant("hsqldb6", spec, 7, elide_duplicates=False),
            rounds=1,
            iterations=1,
        )

    def test_elision_reduces_log_volume(self, rows):
        for name, elided, full, _ev, _fv in rows:
            assert elided <= full, name

    def test_elision_preserves_detection(self, rows):
        for name, _e, _f, elided_violations, full_violations in rows:
            assert elided_violations == full_violations, name


class TestFirstTrialsSensitivity:
    @pytest.fixture(scope="class")
    def rows(self, write_result):
        out = []
        for name in ["eclipse6", "xalan9"]:
            spec = runner.final_spec(name)
            # with final specs there are no violations left; sensitivity
            # is measured on the initial spec where bugs are live
            spec = runner.initial_spec(name)
            sizes = []
            for trials in (1, 3, 5):
                info = StaticTransactionInfo.union_all(
                    runner.run_first(name, spec, 300 + i).static_info
                    for i in range(trials)
                )
                sizes.append(len(info.methods))
            out.append([name, *sizes])
        write_result(
            "ablation_first_trials",
            render_table(
                ["benchmark", "1 trial", "3 trials", "5 trials"],
                out,
                title="Sensitivity: methods implicated vs number of first runs",
            ),
        )
        return out

    def test_bench(self, benchmark, rows):
        spec = runner.initial_spec("xalan9")
        benchmark.pedantic(
            lambda: runner.run_first("xalan9", spec, 300),
            rounds=1,
            iterations=1,
        )

    def test_more_trials_never_shrink_coverage(self, rows):
        for name, one, three, five in rows:
            assert one <= three <= five, name
