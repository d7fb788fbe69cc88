"""Smoke tests for the layer ledger on shrunken workloads.

Run from the repository root::

    python -m pytest benchmarks/layers -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import run
import speed
from workloads import WORKLOADS

from repro.obs import MODE_FULL, MetricsRegistry
from repro.obs.analyze import validate_trace
from repro.workloads import compute_bound_names, get_spec
from repro.workloads.builder import build_program

ROOT = os.path.dirname(os.path.dirname(run.HERE))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

#: the traced layer functions as they are before any traced run
ORIGINALS = [
    (owner, attr, owner.__dict__[attr]) for owner, attr, _ in run.TRACE_TARGETS
]


def _tiny(spec):
    return replace(
        spec,
        iterations=min(spec.iterations, 6),
        hub_rounds=min(spec.hub_rounds, 1),
        hub_scan_iters=min(spec.hub_scan_iters, 40),
        long_transaction_iters=min(spec.long_transaction_iters, 20),
    )


TINY = {
    name: replace(workload, programs=tuple(map(_tiny, workload.programs)))
    for name, workload in WORKLOADS.items()
}


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """One pass over every shrunken workload with both metric sets."""
    out = tmp_path_factory.mktemp("ledger")
    code = run.main(
        ["--reps", "1", "--out", str(out / "ledger.json"),
         "--trace-out", str(out / "trace.json")],
        workloads=TINY, goldens={},
    )
    with open(out / "ledger.json") as handle:
        document = json.load(handle)
    with open(out / "trace.json") as handle:
        trace = json.load(handle)
    return code, document, trace


def test_every_benchmark_metric_is_emitted_with_its_unit(ledger):
    code, document, _ = ledger
    assert code == 0
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(document["workloads"]) == set(WORKLOADS)
    for name, entry in document["workloads"].items():
        assert entry["failed_frac"] == 0, (name, entry["errors"])
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            emitted = entry["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], (name, metric)
        for metric in BENCHMARK["end_to_end"]:
            assert entry["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_one_metric_set(capsys, trace, key):
    code = run.main(
        ["--workload", "unary", "--reps", "1", "--trace", str(trace)],
        workloads=TINY, goldens={},
    )
    line = _result_line(capsys)
    assert code == 0
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK[key]}


def test_tampered_golden_fails_the_run(capsys):
    program = TINY["unary"].programs[0]
    goldens = {"unary": {program.name: {
        "0": {"single": {"violations": -1, "blamed": []}}
    }}}
    code = run.main(
        ["--workload", "unary", "--seed", "0", "--reps", "1", "--trace", "1"],
        workloads=TINY, goldens=goldens,
    )
    line = _result_line(capsys)
    assert code != 0
    assert not line["correct"]
    assert line["failed"] / line["attempted"] > 0


def test_a_timed_run_must_repeat_its_warm_up_run():
    check = (TINY["unary"].programs[0], 0)
    report = run.WorkloadReport("unary", [check])
    report.warm = [{"base": SimpleNamespace(steps=10)}]
    report.check_repeat([{"base": SimpleNamespace(steps=10)}])
    assert report.failed == 0
    report.check_repeat([{"base": SimpleNamespace(steps=11)}])
    assert (report.attempted, report.failed) == (2, 1)


def test_goldens_cover_every_check_at_seed_0():
    with open(run.GOLDENS_PATH) as handle:
        goldens = json.load(handle)
    expected = {}
    for name, workload in WORKLOADS.items():
        for program, schedule in workload.checks(0):
            expected.setdefault(name, {}).setdefault(program.name, []).append(
                str(schedule)
            )
    assert {
        name: {program: sorted(entry) for program, entry in programs.items()}
        for name, programs in goldens.items()
    } == {
        name: {program: sorted(s) for program, s in programs.items()}
        for name, programs in expected.items()
    }


def test_work_per_run_depends_on_the_arguments_only():
    pcdheavy = WORKLOADS["pcdheavy"]
    assert [s for _, s in pcdheavy.checks(2)] == [8, 9, 10, 11]
    assert [s for _, s in WORKLOADS["unary"].checks(5)] == [5]
    assert run.round_count(15, pcdheavy) == run.round_count(15, pcdheavy)
    assert run.round_count(0, pcdheavy) == run.MIN_ROUNDS


def test_scaling_divides_out_the_machine_speed():
    reference = speed.REFERENCE_S
    assert speed.scaled(1.0, reference, reference) == pytest.approx(1.0)
    # a machine running at half speed takes twice as long for both
    assert speed.scaled(2.0, 2 * reference, 2 * reference) == pytest.approx(1.0)
    assert speed.scaled(1.0, reference, 3 * reference) == pytest.approx(0.5)
    assert speed.Speedometer().reading() > 0


def test_catalog_specs_leave_out_the_spec_adjustments():
    catalog = map(get_spec, compute_bound_names())
    adjusted = [p for p in catalog if p.spec_adjustments]
    assert {p.name for p in adjusted} == {"raytracer", "sunflow9"}
    for program_spec in adjusted:
        spec = run.initial_spec(program_spec, build_program(program_spec))
        assert not spec.is_atomic("render_scene"), program_spec.name


def test_traced_run_restores_the_patched_attributes(ledger):
    for owner, attr, original in ORIGINALS:
        assert owner.__dict__[attr] is original, attr


def test_patched_restores_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with run.patched(MetricsRegistry(MODE_FULL), {}):
            raise RuntimeError("check failed")
    for owner, attr, original in ORIGINALS:
        assert owner.__dict__[attr] is original, attr


def test_self_times_partition_the_traced_wall_time():
    report = run.measure(
        "pcdheavy", TINY["pcdheavy"], 0, 0.0, 1, 1, {},
        MetricsRegistry(MODE_FULL),
    )
    assert report.failed == 0
    times = report.self_times
    assert {"check", "executor", "octet_slow", "pcd"} <= set(times)
    assert all(seconds >= 0 for seconds, _ in times.values())
    total = sum(seconds for seconds, _ in times.values())
    # the exported trace rounds each timestamp to the nanosecond
    slack = 1e-9 * sum(calls for _, calls in times.values()) * 2
    assert total <= report.traced_s + slack
    assert total == pytest.approx(report.traced_s, abs=slack)


def test_slow_path_spans_match_octet_slow_path_count(ledger):
    # single-run mode skips no access, so every access that misses the
    # fused fast path enters ICD.on_access exactly once
    _, document, _ = ledger
    for name, entry in document["workloads"].items():
        metrics = entry["metrics"]
        assert (
            metrics["trace.octet_slow_calls"]["value"]
            == metrics["octet.slow_path"]["value"]
        ), name


def test_trace_export_passes_the_repo_validator(ledger):
    _, _, trace = ledger
    assert validate_trace(trace) == []
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {"check", "executor", "octet_slow", "scc", "gc", "pcd"} <= names
    runs = {e["args"]["run"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {"pcdheavy/pcdheavy@0", "pcdheavy/pcdheavy@3"} <= runs


def test_fails_without_the_repository_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "benchmarks" / "layers",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/layers/run.py", "--workload", "unary",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
