"""The ``check`` and ``crosscheck`` experiments: backend selection and
the multi-backend violation shootout.

``check`` runs one analysis backend — ``icd`` (DoubleChecker's
single-run ICD+PCD pipeline), ``velodrome``, or ``vc`` (the
vector-clock checker) — over the workload catalog and tabulates its
verdicts.

``crosscheck`` runs all of them, plus the vc backend with
synchronization edges enabled, and three columns independent of the
online run: the whole-trace oracle (:mod:`repro.oracle.serializability`,
recorded beside an ICD on the same schedule and judging ICD's
transactions) with and without synchronization edges, and vc over a
replay of that recording.  It validates the agreement contract
between the arms:

* ``velodrome`` and ``single-run ICD+PCD`` are both sound and precise
  over the same dependence rules, so their boolean verdicts must be
  equal;
* ``vc`` with ``sync_edges=True`` builds Velodrome's exact graph, so
  its verdict must equal Velodrome's;
* ``vc`` (default) skips synchronization pseudo-accesses, so its
  violations are a subset of the sync-tracking arm's — a verdict it
  reports must also be reported there;
* the oracle with synchronization edges must equal Velodrome, and the
  data-only oracle (``oracle-data``) must equal ``vc`` — while those
  cut unary accesses as ICD does, since the oracle judges ICD's
  transactions (ROADMAP item 1, "Unary demarcation");
* ``replay``, vc over the replayed trace, must equal live ``vc``.

Violated contracts are rendered in the table *and* returned as
mismatches, which the CLI turns into a nonzero exit — the agreement
matrix is a correctness gate, not a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.icd import ICD
from repro.harness import runner
from repro.harness.rendering import render_table
from repro.obs.spans import phase
from repro.oracle.serializability import TraceRecorder, oracle_cyclic_sccs
from repro.trace.recorder import record_execution
from repro.trace.replay import replay_trace
from repro.vc.checker import VcChecker
from repro.workloads import all_names, build

#: selectable online backends (``--backend``)
BACKENDS = ("icd", "velodrome", "vc")


def _blamed(backend: str, name: str, spec, seed: int) -> set:
    if backend == "icd":
        return runner.run_single(name, spec, seed).blamed_methods
    if backend == "velodrome":
        return runner.run_velodrome(name, spec, seed).blamed_methods
    if backend == "vc":
        return runner.run_vc(name, spec, seed).blamed_methods
    raise ValueError(f"unknown backend: {backend!r}")


# ----------------------------------------------------------------------
# check: one backend, tabulated verdicts
# ----------------------------------------------------------------------
@dataclass
class CheckRow:
    name: str
    violations: int
    blamed: set


@dataclass
class CheckResult:
    backend: str
    rows: List[CheckRow]

    def render(self) -> str:
        return render_table(
            ("benchmark", "violations", "blamed methods"),
            [
                (
                    row.name,
                    row.violations,
                    ", ".join(sorted(row.blamed)) or "-",
                )
                for row in self.rows
            ],
            title=f"Violations under the {self.backend} backend (seed 0)",
        )


def generate_check(
    backend: str, names: Optional[Sequence[str]] = None, *, seed: int = 0
) -> CheckResult:
    """Run ``backend`` over the catalog and tabulate its verdicts."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend: {backend!r}")
    rows = []
    for name in names or all_names():
        with phase("cell.check", backend=backend, workload=name):
            spec = runner.initial_spec(name)
            blamed = _blamed(backend, name, spec, seed)
            rows.append(CheckRow(name, len(blamed), blamed))
    return CheckResult(backend, rows)


# ----------------------------------------------------------------------
# crosscheck: every backend against every other
# ----------------------------------------------------------------------
@dataclass
class CrosscheckRow:
    name: str
    icd: bool
    velodrome: bool
    vc: bool
    vc_sync: bool
    oracle: bool
    oracle_data: bool
    replay: bool
    mismatches: List[str] = field(default_factory=list)

    @property
    def agreement(self) -> str:
        return "ok" if not self.mismatches else "; ".join(self.mismatches)


@dataclass
class CrosscheckResult:
    rows: List[CrosscheckRow]

    @property
    def mismatches(self) -> List[str]:
        return [
            f"{row.name}: {m}" for row in self.rows for m in row.mismatches
        ]

    def render(self) -> str:
        def verdict(flag: bool) -> str:
            return "viol" if flag else "clean"

        table = render_table(
            (
                "benchmark",
                "icd+pcd",
                "velodrome",
                "vc",
                "vc+sync",
                "oracle",
                "oracle-data",
                "replay",
                "agreement",
            ),
            [
                (
                    row.name,
                    verdict(row.icd),
                    verdict(row.velodrome),
                    verdict(row.vc),
                    verdict(row.vc_sync),
                    verdict(row.oracle),
                    verdict(row.oracle_data),
                    verdict(row.replay),
                    row.agreement,
                )
                for row in self.rows
            ],
            title="Backend cross-validation (boolean verdicts, seed 0)",
        )
        summary = (
            f"\n{len(self.mismatches)} contract violation(s)"
            if self.mismatches
            else "\nall backends agree"
        )
        return table + summary


def _contract(row: CrosscheckRow) -> List[str]:
    mismatches = []
    if row.velodrome != row.icd:
        mismatches.append("velodrome verdict differs from icd+pcd")
    if row.vc_sync != row.velodrome:
        mismatches.append("vc+sync verdict differs from velodrome")
    if row.vc and not row.vc_sync:
        mismatches.append("vc reported a violation vc+sync did not")
    if row.oracle != row.velodrome:
        mismatches.append("oracle verdict differs from velodrome")
    if row.oracle_data != row.vc:
        mismatches.append("data-only oracle verdict differs from vc")
    if row.replay != row.vc:
        mismatches.append("replayed vc verdict differs from live vc")
    return mismatches


def recorded_verdicts(name: str, spec, seed: int):
    """The oracle's two verdicts and vc's verdict over a replay, all
    from one recorded run of the schedule the online arms ran."""
    icd = ICD(spec, on_scc=None)
    accesses = TraceRecorder(icd)
    trace = record_execution(
        build(name), runner.make_scheduler(seed), [icd, accesses]
    )
    replayed = VcChecker(spec)
    replay_trace(trace, [replayed])
    return (
        bool(oracle_cyclic_sccs(accesses.trace)),
        bool(oracle_cyclic_sccs(accesses.trace, sync_edges=False)),
        bool(replayed.violations),
    )


def generate_crosscheck(
    names: Optional[Sequence[str]] = None, *, seed: int = 0
) -> CrosscheckResult:
    """Run the full agreement matrix over the catalog."""
    rows = []
    for name in names or all_names():
        with phase("cell.crosscheck", workload=name):
            spec = runner.initial_spec(name)
            icd = bool(_blamed("icd", name, spec, seed))
            velodrome = bool(_blamed("velodrome", name, spec, seed))
            vc = bool(_blamed("vc", name, spec, seed))
            vc_sync = bool(
                runner.run_vc(name, spec, seed, sync_edges=True).violations
            )
            row = CrosscheckRow(
                name, icd, velodrome, vc, vc_sync,
                *recorded_verdicts(name, spec, seed),
            )
            row.mismatches.extend(_contract(row))
            rows.append(row)
    return CrosscheckResult(rows)
