"""Trace recording and serialization."""

import json
import os

import pytest

from repro.errors import TraceFormatError
from repro.runtime.scheduler import RandomScheduler
from repro.trace.recorder import ACCESS, Trace, record_execution

from tests.util import counter_program


def test_records_all_event_kinds():
    trace = record_execution(
        counter_program(threads=2, iterations=3),
        RandomScheduler(seed=1),
    )
    kinds = {r[0] for r in trace.records}
    assert kinds == {"a", "m+", "m-", "t+", "t-"}


def test_access_count_matches_execution():
    from repro.runtime.executor import Executor
    from repro.trace.recorder import TraceRecorder

    program = counter_program(threads=2, iterations=3)
    recorder = TraceRecorder()
    result = Executor(program, RandomScheduler(seed=1), [recorder]).run()
    assert recorder.trace.access_count() == result.access_count


def test_jsonl_round_trip():
    trace = record_execution(
        counter_program(threads=2, iterations=3), RandomScheduler(seed=2)
    )
    restored = Trace.from_jsonl(trace.to_jsonl())
    assert restored.records == trace.records


def test_save_and_load(tmp_path):
    trace = record_execution(
        counter_program(threads=2, iterations=2), RandomScheduler(seed=3)
    )
    path = tmp_path / "run.trace.jsonl"
    trace.save(str(path))
    assert Trace.load(str(path)).records == trace.records


def test_access_records_carry_field_identity():
    trace = record_execution(
        counter_program(threads=1, iterations=1), RandomScheduler(seed=1)
    )
    accesses = [r for r in trace.records if r[0] == ACCESS]
    fields = {r[5] for r in accesses}
    assert "value" in fields


def test_catalog_round_trip():
    """Save/load identity over recorded catalog runs (real workloads
    exercise sync pseudo-accesses and fork/join records too)."""
    from repro.workloads.catalog import build

    for name in ("hedc", "philo"):
        trace = record_execution(build(name), RandomScheduler(seed=7))
        restored = Trace.from_jsonl(trace.to_jsonl())
        assert restored.records == trace.records


class TestCorruptLineRejection:
    def test_invalid_json(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            Trace.from_jsonl('["t+", "A"]\n{not json')

    def test_non_array_record(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            Trace.from_jsonl('{"kind": "a"}')

    def test_unknown_kind(self):
        with pytest.raises(TraceFormatError, match="unknown record kind"):
            Trace.from_jsonl('["zz", 1, 2]')

    def test_unhashable_kind(self):
        with pytest.raises(TraceFormatError, match="unknown record kind"):
            Trace.from_jsonl('[["a"], 1]')

    def test_truncated_access_record(self):
        trace = record_execution(
            counter_program(threads=2, iterations=2), RandomScheduler(seed=4)
        )
        lines = trace.to_jsonl().splitlines()
        index = next(i for i, l in enumerate(lines) if l.startswith('["a"'))
        lines[index] = lines[index].rsplit(",", 1)[0] + "]"
        with pytest.raises(TraceFormatError, match=f"line {index + 1}"):
            Trace.from_jsonl("\n".join(lines))

    def test_wrong_method_record_arity(self):
        with pytest.raises(TraceFormatError, match="expected 4"):
            Trace.from_jsonl('["m+", "A", "worker"]')

    #: a well-formed record of each kind, and for each of its fields a
    #: value of the wrong type (bools are not ints)
    WELL_FORMED = {
        "a": [
            "a", 7, "A", 3, "x", "f", "read", False, False, "worker", 2
        ],
        "m+": ["m+", "A", "worker", 1],
        "m-": ["m-", "A", "worker", 1],
        "t+": ["t+", "A"],
        "t-": ["t-", "A"],
    }
    WRONG_TYPED = [
        ("a", 1, "seven"),
        ("a", 1, True),
        ("a", 2, 4),
        ("a", 3, "3"),
        ("a", 3, None),
        ("a", 4, 5),
        ("a", 5, ["f"]),
        ("a", 6, "update"),
        ("a", 6, 1),
        ("a", 7, 0),
        ("a", 8, "no"),
        ("a", 9, 12),
        ("a", 10, 2.0),
        ("a", 10, False),
        ("m+", 1, None),
        ("m+", 2, 7),
        ("m-", 3, "1"),
        ("m-", 3, True),
        ("t+", 1, 1),
        ("t-", 1, ["A"]),
    ]

    def test_well_formed_records_load(self):
        lines = [json.dumps(r) for r in self.WELL_FORMED.values()]
        trace = Trace.from_jsonl("\n".join(lines))
        assert trace.records == [tuple(r) for r in self.WELL_FORMED.values()]

    @pytest.mark.parametrize("kind,index,value", WRONG_TYPED)
    def test_wrong_typed_field(self, kind, index, value):
        record = list(self.WELL_FORMED[kind])
        record[index] = value
        text = '["t+", "A"]\n' + json.dumps(record)
        with pytest.raises(TraceFormatError, match="expected") as excinfo:
            Trace.from_jsonl(text)
        assert excinfo.value.line_number == 2

    def test_load_names_line_number(self, tmp_path):
        path = tmp_path / "bad.trace.jsonl"
        path.write_text('["t+", "A"]\n["a", 1]\n')
        with pytest.raises(TraceFormatError) as excinfo:
            Trace.load(str(path))
        assert excinfo.value.line_number == 2


class TestAtomicSave:
    def test_failed_save_preserves_existing_file(self, tmp_path, monkeypatch):
        trace = record_execution(
            counter_program(threads=2, iterations=2), RandomScheduler(seed=5)
        )
        path = tmp_path / "run.trace.jsonl"
        trace.save(str(path))
        original = path.read_text()

        def boom(self):
            raise OSError("disk full")

        monkeypatch.setattr(Trace, "to_jsonl", boom)
        with pytest.raises(OSError):
            trace.save(str(path))
        assert path.read_text() == original

    def test_no_temp_file_left_behind(self, tmp_path):
        trace = record_execution(
            counter_program(threads=1, iterations=1), RandomScheduler(seed=6)
        )
        path = tmp_path / "run.trace.jsonl"
        trace.save(str(path))
        assert os.listdir(tmp_path) == ["run.trace.jsonl"]
