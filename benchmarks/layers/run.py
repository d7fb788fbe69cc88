#!/usr/bin/env python3
"""Layer ledger: time per check, split across the paper's layers.

Times whole checks through the public entry points — the uninstrumented
``Executor.run`` (``base``), ``DoubleChecker.run_first`` (``first``),
``DoubleChecker.run_single`` (``single``), ``VelodromeChecker.run`` and
``VcChecker.run`` — on the workloads of ``workloads.py``, checks every
verdict, and splits single-run time across the ``repro`` layers two
independent ways: arm differences (``instr.*``) and a separately traced
run whose spans wrap the layers' public functions (``trace.*``).

Run from the repository root::

    python3 benchmarks/layers/run.py --seed 0
    python3 benchmarks/layers/run.py --workload pcdheavy --seed 3 \\
        --seconds 15 --trace 1

Without ``--workload`` every workload is measured and the ledger goes
to ``BENCH_layers.json`` beside this file.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones, and no ``--trace``
both.  Each workload's report ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).

Protocol per workload.  A run checks a fixed list of (program,
scheduler seed) pairs, derived from ``--seed`` (``Workload.checks``).
One untimed warm-up round runs every arm on every check; the verdict
contract, the goldens and the per-layer counters are read from it.
Then a fixed number of timed rounds: ``--reps``, or ``--seconds``
divided by the workload's ``round_s``, at least three.  A timed round
takes ``SETUP_SAMPLES`` set-up samples, then runs every timed arm once
per check, each on a freshly built program and a fresh scheduler with
``gc.collect()`` just before it; the arm order reverses every round.
Every timed run must repeat its warm-up run's steps and verdict.
Every timed run and set-up sample sits between two readings of the
calibration kernel in ``speed.py``, which scale its wall-clock seconds
to the reference machine's speed.  A timing is the median over rounds
of the per-round sum over checks of those scaled seconds; set-up
reports the median of its scaled samples.  The ledger keeps the raw
wall-clock figures beside them.
The process exits 1 if any run raised or broke the verdict contract.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import operator
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import repro.core.icd as icd_module  # noqa: E402
from repro.core.doublechecker import DoubleChecker  # noqa: E402
from repro.core.gc import TransactionCollector  # noqa: E402
from repro.core.icd import ICD  # noqa: E402
from repro.core.pcd import PCD  # noqa: E402
from repro.core.transactions import UNARY_METHOD  # noqa: E402
from repro.harness.runner import make_scheduler  # noqa: E402
from repro.obs import (  # noqa: E402
    MODE_FULL,
    MetricsRegistry,
    Span,
    chrome_trace_document,
    write_chrome_trace,
)
from repro.obs.analyze import critical_path_report  # noqa: E402
from repro.runtime.executor import Executor  # noqa: E402
from repro.runtime.view import ExecutorView  # noqa: E402
from repro.spec.specification import AtomicitySpecification  # noqa: E402
from repro.vc.checker import VcChecker  # noqa: E402
from repro.velodrome.checker import VelodromeChecker  # noqa: E402
from repro.workloads.builder import WorkloadSpec, build_program  # noqa: E402

from speed import REFERENCE_S, Speedometer, scaled  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

GOLDENS_PATH = os.path.join(HERE, "goldens.json")
REPORT_PATH = os.path.join(HERE, "BENCH_layers.json")

#: timed rounds a run makes at the least
MIN_ROUNDS = 3
#: set-up samples per timed round; each lasts at least SETUP_SAMPLE_S
SETUP_SAMPLES = 3
SETUP_SAMPLE_S = 0.05


# ----------------------------------------------------------------------
# arms
# ----------------------------------------------------------------------
def _base(spec, program, scheduler):
    return Executor(program, scheduler).run()


def _first(spec, program, scheduler):
    return DoubleChecker(spec).run_first(program, scheduler)


def _nopcd(spec, program, scheduler):
    # single-run mode minus PCD: logging on, cyclic SCCs dropped
    icd = ICD(spec, logging_enabled=True, on_scc=None)
    executor = Executor(program, scheduler, [icd])
    icd.bind_view(ExecutorView(executor))
    return executor.run()


def _single(spec, program, scheduler):
    return DoubleChecker(spec).run_single(program, scheduler)


def _velodrome(spec, program, scheduler):
    return VelodromeChecker(spec).run(program, scheduler)


def _vc(spec, program, scheduler):
    return VcChecker(spec).run(program, scheduler)


ARMS: Dict[str, Callable] = {
    "base": _base,
    "first": _first,
    "nopcd": _nopcd,
    "single": _single,
    "velodrome": _velodrome,
    "vc": _vc,
}
#: arms the end-to-end metrics time
E2E_ARMS = ("base", "first", "single", "velodrome", "vc")
#: arms whose timings the ``instr.*`` differences need
LAYER_ARMS = ("base", "first", "nopcd", "single")
#: arms whose verdicts the goldens pin
VERDICT_ARMS = ("single", "velodrome", "vc")

# ----------------------------------------------------------------------
# metric catalogue (BENCHMARK.json names the same metrics)
# ----------------------------------------------------------------------
#: end-to-end timing metric -> the arm (or "setup") it times
TIMED: Dict[str, str] = {
    "single_s": "single",
    "first_s": "first",
    "velodrome_s": "velodrome",
    "vc_s": "vc",
    "base_s": "base",
    "setup_s": "setup",
}
END_TO_END: Dict[str, str] = {
    **{name: "s" for name in TIMED},
    "peak_rss_mb": "MB",
}
_COUNT, _RATIO, _SECONDS = "count", "ratio", "s"
PER_LAYER: Dict[str, str] = {
    "runtime.steps": _COUNT,
    "runtime.steps_per_s": "1/s",
    "trace.executor_self_s": _SECONDS,
    "octet.barriers": _COUNT,
    "octet.slow_path": _COUNT,
    "octet.fast_path_rate": _RATIO,
    "octet.conflicting": _COUNT,
    "octet.upgrading_rd_sh": _COUNT,
    "octet.fences": _COUNT,
    "trace.octet_slow_s": _SECONDS,
    "trace.octet_slow_calls": _COUNT,
    "tx.regular": _COUNT,
    "tx.unary": _COUNT,
    "tx.unary_access_rate": _RATIO,
    "icd.idg_edges": _COUNT,
    "icd.edges_deduplicated": _COUNT,
    "trace.idg_edge_s": _SECONDS,
    "trace.idg_edge_calls": _COUNT,
    "icd.scc_computations": _COUNT,
    "icd.scc_skip_rate": _RATIO,
    "icd.scc_visits": _COUNT,
    "icd.sccs": _COUNT,
    "trace.scc_s": _SECONDS,
    "rwlog.log_entries": _COUNT,
    "rwlog.elision_rate": _RATIO,
    "instr.logging_s": _SECONDS,
    "gc.collections": _COUNT,
    "gc.peak_live_log_entries": _COUNT,
    "gc.peak_live_transactions": _COUNT,
    "trace.gc_s": _SECONDS,
    "pcd.components": _COUNT,
    "pcd.entries_replayed": _COUNT,
    "pcd.yield": _RATIO,
    "pcd.violations": _COUNT,
    "trace.pcd_s": _SECONDS,
    "instr.pcd_s": _SECONDS,
    "velodrome.cycle_checks": _COUNT,
    "velodrome.cycle_check_visits": _COUNT,
    "velodrome.certified_rate": _RATIO,
    "vc.edges": _COUNT,
    "vc.clock_joins": _COUNT,
    "vc.propagations": _COUNT,
    "vc.fastpath_hits": _COUNT,
    "instr.octet_icd_s": _SECONDS,
    "share.octet_icd": _RATIO,
    "share.logging": _RATIO,
    "share.pcd": _RATIO,
    "split.pcd_gap": _RATIO,
    "trace.overhead_s": _SECONDS,
}

#: the traced run's span targets: public functions of each layer,
#: (owner, attribute, span name).  They are installed before the ICD is
#: built, because its fused barriers bind ``self.on_access`` when the
#: executor is constructed.
TRACE_TARGETS = (
    (Executor, "run", "executor"),
    (ICD, "on_access", "octet_slow"),
    (ICD, "on_conflicting", "idg_edge"),
    (ICD, "on_upgrading_rd_sh", "idg_edge"),
    (ICD, "on_fence", "idg_edge"),
    (icd_module, "scc_containing_counted", "scc"),
    (TransactionCollector, "collect", "gc"),
    (PCD, "process", "pcd"),
)

#: Section 5.3's split of single-run overhead, as the cost model's
#: docstring (src/repro/costs/model.py) records it: (text, holds)
PAPER_ANCHORS: Dict[str, Tuple[str, Callable[[Dict[str, float]], bool]]] = {
    "share.octet_icd": (
        "about 2/5", lambda m: 0.3 <= m["share.octet_icd"] <= 0.5
    ),
    "share.logging": (
        "most of the rest",
        lambda m: m["share.logging"] > (1 - m["share.octet_icd"]) / 2,
    ),
    "share.pcd": ("under 1/10", lambda m: m["share.pcd"] < 0.1),
}

#: one check: a program and the scheduler seed it runs under
Check = Tuple[WorkloadSpec, int]


def check_name(check: Check) -> str:
    program_spec, schedule = check
    return f"{program_spec.name}@{schedule}"


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class WorkloadReport:
    name: str
    checks: List[Check]
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: arm (or "setup") -> summary of its scaled seconds, and of its
    #: raw wall-clock seconds
    timings: Dict[str, dict] = field(default_factory=dict)
    wall: Dict[str, dict] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: traced span name -> (self seconds, calls)
    self_times: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: summed wall-clock duration of the traced checks
    traced_s: float = 0.0
    #: scaled over wall-clock seconds of the traced checks; the trace.*
    #: metrics are self times multiplied by it
    traced_scale: float = 1.0
    #: per check, arm -> result of the warm-up round (None where it raised)
    warm: List[Dict[str, object]] = field(default_factory=list)

    def check_contract(self, goldens: dict) -> None:
        """Count the warm-up runs and check their verdicts."""
        for check, runs in zip(self.checks, self.warm):
            self.attempted += len(runs)
            program_spec, schedule = check
            golden = goldens.get(program_spec.name, {}).get(str(schedule), {})
            error = verdict_error(runs, golden)
            if error:
                self.fail(len(runs), f"{check_name(check)}: {error}")

    def check_repeat(self, results: List[Dict[str, object]]) -> None:
        """Count one timed round's runs; each must repeat its warm-up run."""
        for check, runs, warm in zip(self.checks, results, self.warm):
            for arm, result in runs.items():
                self.attempted += 1
                if result is None or outcome(result) != outcome(warm[arm]):
                    self.fail(1, f"{check_name(check)}: {arm} did not "
                                 "repeat its warm-up run")

    def fail(self, runs: int, message: str) -> None:
        self.failed += runs
        if message not in self.errors:
            self.errors.append(message)


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and minimum of ``values``."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "n": len(values)}


def round_count(seconds: float, workload: Workload) -> int:
    """Timed rounds of a ``seconds`` run.  It depends on the arguments
    only, so a faster build checks the same work, not more of it."""
    return max(MIN_ROUNDS, round(seconds / workload.round_s))


def initial_spec(program_spec: WorkloadSpec, program) -> AtomicitySpecification:
    """The initial specification as ``repro.harness.runner.initial_spec``
    builds it, for any program: the catalog's ``spec_adjustments`` (the
    long-running methods the paper excludes) are left out."""
    spec = AtomicitySpecification.initial(program)
    return spec.exclude(
        m for m in program_spec.spec_adjustments if m in spec.all_methods
    )


def set_up(programs: Sequence[WorkloadSpec]) -> Dict[str, AtomicitySpecification]:
    return {p.name: initial_spec(p, build_program(p)) for p in programs}


def setup_batch(programs) -> int:
    """Back-to-back set-ups per sample for a sample of SETUP_SAMPLE_S."""
    set_up(programs)
    start = time.perf_counter()
    set_up(programs)
    return math.ceil(SETUP_SAMPLE_S / (time.perf_counter() - start))


def setup_sample(programs, batch: int,
                 meter: Speedometer) -> Tuple[float, float]:
    """Scaled and wall-clock seconds of one set-up, averaged over
    ``batch`` back-to-back ones."""
    gc.collect()
    before = meter.reading()
    start = time.perf_counter()
    for _ in range(batch):
        set_up(programs)
    wall = (time.perf_counter() - start) / batch
    return scaled(wall, before, meter.reading()), wall


def timed_run(arm: str, spec, check: Check, meter: Speedometer):
    """Scaled seconds, wall-clock seconds and result of one check on a
    fresh program and scheduler."""
    program_spec, schedule = check
    program = build_program(program_spec)
    scheduler = make_scheduler(schedule)
    gc.collect()
    before = meter.reading()
    start = time.perf_counter()
    result = ARMS[arm](spec, program, scheduler)
    wall = time.perf_counter() - start
    return scaled(wall, before, meter.reading()), wall, result


def run_round(checks: Sequence[Check], specs, arms, meter: Speedometer):
    """Every arm once per check, in ``arms`` order.  Returns arm ->
    scaled seconds summed over checks, the same for wall-clock seconds,
    and per check arm -> result (None where the check raised)."""
    seconds = dict.fromkeys(arms, 0.0)
    wall = dict.fromkeys(arms, 0.0)
    results = []
    for check in checks:
        spec = specs[check[0].name]
        runs: Dict[str, object] = {}
        for arm in arms:
            try:
                elapsed, raw, runs[arm] = timed_run(arm, spec, check, meter)
            except Exception:
                traceback.print_exc()
                runs[arm] = None
                continue
            seconds[arm] += elapsed
            wall[arm] += raw
        results.append(runs)
    return seconds, wall, results


def _steps(result) -> int:
    return getattr(result, "execution", result).steps


def verdict(result) -> dict:
    return {
        "violations": result.violations.dynamic_count(),
        "blamed": sorted(result.blamed_methods),
    }


def outcome(result) -> Optional[dict]:
    """What a repeat of one check must reproduce: its steps, and the
    verdict of the arms that give one."""
    if result is None:
        return None
    if hasattr(result, "violations"):
        return {"steps": _steps(result), **verdict(result)}
    return {"steps": _steps(result)}


def verdict_error(runs: Dict[str, object], golden: dict) -> Optional[str]:
    """The first breach of the verdict contract by one check's runs."""
    raised = sorted(arm for arm, result in runs.items() if result is None)
    if raised:
        return f"raised: {', '.join(raised)}"
    if len({_steps(r) for r in runs.values()}) != 1:
        return "arms executed different step counts"
    single, velodrome = runs["single"], runs["velodrome"]
    if single.blamed_methods != velodrome.blamed_methods:
        return "run_single and Velodrome blame different methods"
    # vc blames each cycle's closing edge and Velodrome its own pick, so
    # on cycles longer than two their blamed sets can differ; only the
    # verdict is implied (vc sees a subset of Velodrome's edges)
    if runs["vc"].blamed_methods and not velodrome.blamed_methods:
        return "vc reports a violation Velodrome does not"
    info = runs["first"].static_info
    if not all(
        info.any_unary if m == UNARY_METHOD else info.monitors_method(m)
        for m in single.blamed_methods
    ):
        return "a blamed method lies outside the first run's SCCs"
    for arm, expected in sorted(golden.items()):
        if verdict(runs[arm]) != expected:
            return f"{arm} verdict differs from goldens.json"
    return None


def measure(name: str, workload: Workload, seed: int, seconds: float,
            reps: Optional[int], trace: Optional[int], goldens: dict,
            registry: MetricsRegistry) -> WorkloadReport:
    """Measure one workload; ``trace`` None reports both metric sets."""
    programs = workload.programs
    report = WorkloadReport(name, workload.checks(seed))
    meter = Speedometer()
    specs = set_up(programs)
    warm_arms = E2E_ARMS if trace == 0 else tuple(ARMS)
    timed_arms = {0: E2E_ARMS, 1: LAYER_ARMS}.get(trace, tuple(ARMS))

    _, _, report.warm = run_round(report.checks, specs, warm_arms, meter)
    report.check_contract(goldens)

    batch = setup_batch(programs)
    arms = (*timed_arms, "setup")
    samples: Dict[str, List[float]] = {arm: [] for arm in arms}
    walls: Dict[str, List[float]] = {arm: [] for arm in arms}
    report.rounds = reps if reps is not None else round_count(seconds, workload)
    for index in range(report.rounds):
        for _ in range(SETUP_SAMPLES):
            sample, wall = setup_sample(programs, batch, meter)
            samples["setup"].append(sample)
            walls["setup"].append(wall)
        order = timed_arms if index % 2 == 0 else timed_arms[::-1]
        times, wall_times, results = run_round(
            report.checks, specs, order, meter
        )
        for arm in order:
            samples[arm].append(times[arm])
            walls[arm].append(wall_times[arm])
        report.check_repeat(results)
    report.timings = {arm: summary(values) for arm, values in samples.items()}
    report.wall = {arm: summary(values) for arm, values in walls.items()}
    medians = {arm: timing["median"] for arm, timing in report.timings.items()}

    if trace != 1:
        report.metrics.update({m: medians[arm] for m, arm in TIMED.items()})
        report.metrics["peak_rss_mb"] = peak_rss_mb(
            programs, report.checks[0][1]
        )
    if trace != 0:
        traced_run(specs, report, registry, meter)
        report.metrics.update(layer_metrics(report, medians))
    return report


def _rss_probe(programs, schedule) -> float:
    """Build and run_single each program; peak RSS of this process in MB.

    Reads the address space's high-water mark (``VmHWM``), not
    ``ru_maxrss``: Linux carries the forking parent's peak into the
    child's ``ru_maxrss`` across exec.
    """
    specs = set_up(programs)
    for program_spec in programs:
        _single(specs[program_spec.name], build_program(program_spec),
                make_scheduler(schedule))
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


#: the child of :func:`peak_rss_mb`: argv[1] is this directory, stdin
#: the pickled ``(programs, schedule)``
_RSS_CHILD = (
    "import pickle, sys; sys.path.insert(0, sys.argv[1]); import run; "
    "print(run._rss_probe(*pickle.load(sys.stdin.buffer)))"
)


def peak_rss_mb(programs, schedule: int) -> float:
    """Peak RSS of one fresh child process running :func:`_rss_probe`."""
    child = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, HERE],
        input=pickle.dumps((programs, schedule)),
        capture_output=True, check=True, timeout=120,
    )
    return float(child.stdout.split()[-1])


def _spanned(registry: MetricsRegistry, name: str, args: dict,
             fn: Callable) -> Callable:
    """``fn`` with a span named ``name`` around every call."""

    def traced(*call_args, **call_kwargs):
        with Span(registry, name, "layer", args):
            return fn(*call_args, **call_kwargs)

    return traced


@contextmanager
def patched(registry: MetricsRegistry, args: dict) -> Iterator[None]:
    """Wrap every ``TRACE_TARGETS`` attribute in a span recorded into
    ``registry`` with ``args``; put the originals back on exit."""
    originals = []
    try:
        for owner, attr, name in TRACE_TARGETS:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, _spanned(registry, name, args, original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def traced_run(specs, report: WorkloadReport, registry: MetricsRegistry,
               meter: Speedometer) -> None:
    """One run_single per check under the layer spans, inside a root
    span ``check`` that carries the run id."""
    wall = scaled_wall = 0.0
    for check, warm in zip(report.checks, report.warm):
        program_spec, schedule = check
        program = build_program(program_spec)
        scheduler = make_scheduler(schedule)
        args = {"run": f"{report.name}/{check_name(check)}"}
        gc.collect()
        report.attempted += 1
        before = meter.reading()
        start = time.perf_counter()
        try:
            with patched(registry, args), Span(registry, "check", "layer",
                                               args):
                result = _single(specs[program_spec.name], program, scheduler)
        except Exception:
            traceback.print_exc()
            report.fail(1, f"{check_name(check)}: traced run raised")
            continue
        elapsed = time.perf_counter() - start
        wall += elapsed
        scaled_wall += scaled(elapsed, before, meter.reading())
        if outcome(result) != outcome(warm.get("single")):
            report.fail(1, f"{check_name(check)}: traced run did not repeat "
                           "its warm-up run")
    stages = critical_path_report(chrome_trace_document(registry))["stages"]
    report.self_times = {
        stage["name"]: (stage["self_seconds"],
                        registry.counters[f"phase.{stage['name']}.count"])
        for stage in stages
    }
    report.traced_s = registry.histograms["phase.check.seconds"].total
    report.traced_scale = scaled_wall / wall if wall else 1.0


def layer_metrics(report: WorkloadReport,
                  medians: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics: counters of the warm-up round, arm differences
    of the timed rounds' medians, and self times of the traced run — all
    of the same checks, and all seconds scaled to the reference machine."""
    by_arm = {
        arm: [runs[arm] for runs in report.warm if runs.get(arm) is not None]
        for arm in ("single", "first", "velodrome", "vc")
    }

    def total(arm: str, path: str) -> int:
        get = operator.attrgetter(path)
        return sum(get(result) for result in by_arm[arm])

    def peak(path: str) -> int:
        get = operator.attrgetter(path)
        return max((get(result) for result in by_arm["single"]), default=0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def traced(name: str) -> Tuple[float, int]:
        seconds, calls = report.self_times.get(name, (0.0, 0))
        return seconds * report.traced_scale, calls

    barriers = total("single", "octet_stats.barriers")
    fast = total("single", "octet_stats.fast_path")
    regular_acc = total("single", "tx_stats.regular_accesses")
    unary_acc = total("single", "tx_stats.unary_accesses")
    logged = total("single", "elision_stats.logged")
    elided = total("single", "elision_stats.elided")
    components = total("single", "pcd_stats.components_processed")
    checks = total("velodrome", "stats.cycle_checks")
    calls = total("single", "icd_stats.cycle_detection_calls")
    computations = total("single", "icd_stats.scc_computations")

    octet_icd = medians["first"] - medians["base"]
    logging = medians["nopcd"] - medians["first"]
    pcd = medians["single"] - medians["nopcd"]
    overhead = medians["single"] - medians["base"]
    trace_pcd = traced("pcd")[0]
    return {
        "runtime.steps": total("single", "execution.steps"),
        "runtime.steps_per_s": ratio(
            total("single", "execution.steps"), medians["base"]
        ),
        "trace.executor_self_s": traced("executor")[0],
        "octet.barriers": barriers,
        "octet.slow_path": barriers - fast,
        "octet.fast_path_rate": ratio(fast, barriers),
        "octet.conflicting": total("single", "octet_stats.conflicting"),
        "octet.upgrading_rd_sh": total("single", "octet_stats.upgrading_rd_sh"),
        "octet.fences": total("single", "octet_stats.fences"),
        "trace.octet_slow_s": traced("octet_slow")[0],
        "trace.octet_slow_calls": traced("octet_slow")[1],
        "tx.regular": total("single", "tx_stats.regular_transactions"),
        "tx.unary": total("single", "tx_stats.unary_transactions"),
        "tx.unary_access_rate": ratio(unary_acc, unary_acc + regular_acc),
        "icd.idg_edges": total("single", "icd_stats.idg_edges"),
        # only the no-logging first run deduplicates edges
        "icd.edges_deduplicated": total("first", "icd_stats.edges_deduplicated"),
        "trace.idg_edge_s": traced("idg_edge")[0],
        "trace.idg_edge_calls": traced("idg_edge")[1],
        "icd.scc_computations": computations,
        "icd.scc_skip_rate": ratio(calls - computations, calls),
        "icd.scc_visits": total("single", "icd_stats.scc_visits"),
        "icd.sccs": total("single", "icd_stats.sccs"),
        "trace.scc_s": traced("scc")[0],
        "rwlog.log_entries": total("single", "icd_stats.log_entries"),
        "rwlog.elision_rate": ratio(elided, logged + elided),
        "instr.logging_s": logging,
        "gc.collections": total("single", "gc_stats.collections"),
        "gc.peak_live_log_entries": peak("gc_stats.peak_live_log_entries"),
        "gc.peak_live_transactions": peak("gc_stats.peak_live_transactions"),
        "trace.gc_s": traced("gc")[0],
        "pcd.components": components,
        "pcd.entries_replayed": total("single", "pcd_stats.entries_replayed"),
        "pcd.yield": ratio(total("single", "pcd_stats.cycles_found"), components),
        "pcd.violations": sum(
            r.violations.dynamic_count() for r in by_arm["single"]
        ),
        "trace.pcd_s": trace_pcd,
        "instr.pcd_s": pcd,
        "velodrome.cycle_checks": checks,
        "velodrome.cycle_check_visits": total(
            "velodrome", "stats.cycle_check_visits"
        ),
        "velodrome.certified_rate": ratio(
            total("velodrome", "stats.cycle_checks_certified"), checks
        ),
        "vc.edges": total("vc", "stats.edges"),
        "vc.clock_joins": total("vc", "stats.clock_joins"),
        "vc.propagations": total("vc", "stats.propagations"),
        "vc.fastpath_hits": total("vc", "stats.fastpath_hits"),
        "instr.octet_icd_s": octet_icd,
        "share.octet_icd": ratio(octet_icd, overhead),
        "share.logging": ratio(logging, overhead),
        "share.pcd": ratio(pcd, overhead),
        # relative to the larger estimate, so the gap stays finite where
        # PCD is too small for the arm difference to resolve
        "split.pcd_gap": ratio(abs(trace_pcd - pcd), max(trace_pcd, pcd)),
        "trace.overhead_s": (
            report.traced_s * report.traced_scale - medians["single"]
        ),
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def print_report(report: WorkloadReport, seed: int) -> None:
    print(f"== {report.name}: seed {seed}, {len(report.checks)} check(s), "
          f"{report.rounds} timed round(s)")
    metrics = report.metrics
    if "single_s" in metrics:
        print("end-to-end (scaled median over rounds; then its q1-q3; n;"
              " wall-clock median)")
        for name, unit in END_TO_END.items():
            line = f"  {name:<22} {_fmt(metrics[name]):>12} {unit}"
            if name in TIMED:
                t = report.timings[TIMED[name]]
                line += (f"   {_fmt(t['q1'])}-{_fmt(t['q3'])}; {t['n']}; "
                         f"wall {_fmt(report.wall[TIMED[name]]['median'])}")
            print(line)
        base = metrics["base_s"]
        print("  slowdown vs base_s: " + ", ".join(
            f"{arm} {metrics[m] / base:.2f}x"
            for m, arm in TIMED.items() if arm not in ("base", "setup")
        ))
    if "runtime.steps" in metrics:
        print("per-layer")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<28} {_fmt(metrics[name]):>12} {unit}")
        print("paper anchors (Section 5.3, share of single_s - base_s)")
        for name, (text, holds) in PAPER_ANCHORS.items():
            verdict_text = "matches" if holds(metrics) else "differs"
            print(f"  {name:<18} {metrics[name]:>7.3f}  paper: {text:<18}"
                  f"{verdict_text}")
        print(f"traced run_single self time, wall-clock ({report.traced_s:.3f}"
              f" s; x {report.traced_scale:.3f} to scale)")
        for name, (secs, calls) in sorted(
            report.self_times.items(), key=lambda item: -item[1][0]
        ):
            print(f"  {name:<12} {secs:>9.4f} s {calls:>8} calls")
    print(f"verdict contract: {report.attempted} runs, {report.failed} failed"
          f" (failed_frac {report.failed / max(report.attempted, 1):.3g})")
    for error in report.errors:
        print(f"  FAILED {error}")


def result_line(report: WorkloadReport, trace: Optional[int]) -> str:
    names = {0: END_TO_END, 1: PER_LAYER}.get(trace, {**END_TO_END, **PER_LAYER})
    return json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit}
            for name, unit in names.items()
        },
    })


def write_json(path: str, document: dict) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def ledger_document(reports: List[WorkloadReport], args, elapsed: float) -> dict:
    return {
        "benchmark": "benchmarks/layers/run.py",
        "seed": args.seed,
        "seconds_per_workload": args.seconds,
        "total_seconds": elapsed,
        "reference_s": REFERENCE_S,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": {
            r.name: {
                "checks": [check_name(c) for c in r.checks],
                "rounds": r.rounds,
                "attempted": r.attempted,
                "failed": r.failed,
                "failed_frac": r.failed / max(r.attempted, 1),
                "errors": r.errors,
                "timings": r.timings,
                "wall_timings": r.wall,
                "traced_scale": r.traced_scale,
                "metrics": {
                    name: {"value": r.metrics[name], "unit": unit}
                    for name, unit in {**END_TO_END, **PER_LAYER}.items()
                    if name in r.metrics
                },
                "trace_self_s": {
                    name: {"seconds": s, "calls": c}
                    for name, (s, c) in r.self_times.items()
                },
            }
            for r in reports
        },
    }


def write_goldens(workloads: Dict[str, Workload], path: str) -> None:
    """Record the verdicts of every workload's checks at seed 0."""
    goldens: Dict[str, dict] = {}
    meter = Speedometer()
    for name, workload in workloads.items():
        report = WorkloadReport(name, workload.checks(0))
        _, _, report.warm = run_round(
            report.checks, set_up(workload.programs), E2E_ARMS, meter
        )
        report.check_contract({})
        if report.failed:
            raise SystemExit(f"{name}: {report.errors}")
        entry = goldens[name] = {}
        for (program_spec, schedule), runs in zip(report.checks, report.warm):
            entry.setdefault(program_spec.name, {})[str(schedule)] = {
                arm: verdict(runs[arm]) for arm in VERDICT_ARMS
            }
    write_json(path, goldens)


def main(argv: Optional[Sequence[str]] = None, *,
         workloads: Dict[str, Workload] = WORKLOADS,
         goldens: Optional[dict] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads),
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the scheduler seeds (goldens are "
                             "checked at 0)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="sets the timed rounds per workload: seconds "
                             "/ the workload's round_s, at least 3")
    parser.add_argument("--reps", type=int,
                        help="exactly this many timed rounds (overrides "
                             "--seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both)")
    parser.add_argument("--out", help="write the JSON ledger here (default "
                        "without --workload: BENCH_layers.json)")
    parser.add_argument("--trace-out", help="write the traced run's spans "
                        "here as a Chrome trace")
    parser.add_argument("--write-goldens", action="store_true",
                        help="record the seed-0 verdicts in goldens.json")
    args = parser.parse_args(argv)

    if args.write_goldens:
        write_goldens(workloads, GOLDENS_PATH)
        return 0
    if goldens is None:
        with open(GOLDENS_PATH) as handle:
            goldens = json.load(handle)
    if args.seed != 0:
        goldens = {}
    names = [args.workload] if args.workload else list(workloads)
    out = args.out or (None if args.workload else REPORT_PATH)

    started = time.perf_counter()
    reports, registries = [], []
    for name in names:
        # one epoch for every workload, so their spans share a timeline
        registry = MetricsRegistry(MODE_FULL, epoch=started,
                                   label=f"layers/{name}")
        report = measure(name, workloads[name], args.seed, args.seconds,
                         args.reps, args.trace, goldens.get(name, {}),
                         registry)
        reports.append(report)
        registries.append(registry)
        print_report(report, args.seed)
        print(result_line(report, args.trace), flush=True)
    if out:
        write_json(out, ledger_document(
            reports, args, time.perf_counter() - started
        ))
    if args.trace_out:
        merged = MetricsRegistry(MODE_FULL, epoch=started,
                                 label="benchmarks/layers")
        for registry in registries:
            merged.merge(registry.snapshot())
        write_chrome_trace(args.trace_out, merged)
    return 1 if any(r.failed for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
