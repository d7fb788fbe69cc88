"""Recording executions as serializable traces."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import TraceFormatError
from repro.runtime.events import AccessEvent, AccessKind
from repro.runtime.executor import Executor
from repro.runtime.listeners import ExecutionListener
from repro.runtime.program import Program
from repro.runtime.scheduler import Scheduler

#: trace record kinds
ACCESS, ENTER, EXIT, START, END = "a", "m+", "m-", "t+", "t-"

#: a field's expected type, as (description, predicate)
_Type = Tuple[str, Callable[[Any], bool]]

_INT: _Type = (
    "an int", lambda v: isinstance(v, int) and not isinstance(v, bool)
)
_STR: _Type = ("a string", lambda v: isinstance(v, str))
_BOOL: _Type = ("a bool", lambda v: isinstance(v, bool))
_ACCESS_KINDS = [k.value for k in AccessKind]
_KIND: _Type = (f"one of {_ACCESS_KINDS}", lambda v: v in _ACCESS_KINDS)
_METHOD_FIELDS = (("thread", _STR), ("method", _STR), ("depth", _INT))
_THREAD_FIELDS = (("thread", _STR),)

#: the fields after the kind, per record kind (see :class:`Trace`)
_RECORD_FIELDS = {
    ACCESS: (
        ("seq", _INT),
        ("thread", _STR),
        ("oid", _INT),
        ("label", _STR),
        ("field", _STR),
        ("kind", _KIND),
        ("is_sync", _BOOL),
        ("is_array", _BOOL),
        ("site_method", _STR),
        ("site_index", _INT),
    ),
    ENTER: _METHOD_FIELDS,
    EXIT: _METHOD_FIELDS,
    START: _THREAD_FIELDS,
    END: _THREAD_FIELDS,
}


@dataclass
class Trace:
    """A recorded execution: an ordered list of event tuples.

    Access records: ``(ACCESS, seq, thread, oid, label, field, kind,
    is_sync, is_array, site_method, site_index)``.
    Method records: ``(ENTER/EXIT, thread, method, depth)``.
    Thread records: ``(START/END, thread)``.
    """

    records: List[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def access_count(self) -> int:
        return sum(1 for r in self.records if r[0] == ACCESS)

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialize, one JSON array per line."""
        return "\n".join(json.dumps(list(r)) for r in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse and validate, raising :class:`TraceFormatError` (with
        the 1-based line number) on the first corrupt line."""
        records = []
        for line_number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TraceFormatError(line_number, f"not valid JSON ({exc})")
            if not isinstance(record, list) or not record:
                raise TraceFormatError(
                    line_number, "record is not a non-empty JSON array"
                )
            kind = record[0]
            fields = _RECORD_FIELDS.get(kind) if isinstance(kind, str) else None
            if fields is None:
                raise TraceFormatError(
                    line_number,
                    f"unknown record kind {kind!r} (expected one of "
                    f"{sorted(_RECORD_FIELDS)})",
                )
            if len(record) != len(fields) + 1:
                raise TraceFormatError(
                    line_number,
                    f"{kind!r} record has {len(record)} fields, expected "
                    f"{len(fields) + 1}",
                )
            for (name, (expected, valid)), value in zip(fields, record[1:]):
                if not valid(value):
                    raise TraceFormatError(
                        line_number,
                        f"{kind!r} record field {name} is {value!r}, "
                        f"expected {expected}",
                    )
            records.append(tuple(record))
        return cls(records)

    def save(self, path: str) -> None:
        """Atomic write-then-rename: a failed save can never truncate
        an existing trace file (same pattern as the obs exporters)."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".trace-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.to_jsonl() + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path) as handle:
            return cls.from_jsonl(handle.read())


class TraceRecorder(ExecutionListener):
    """Listener that captures the full event stream."""

    def __init__(self) -> None:
        self.trace = Trace()

    def on_thread_start(self, thread_name: str) -> None:
        self.trace.records.append((START, thread_name))

    def on_thread_end(self, thread_name: str) -> None:
        self.trace.records.append((END, thread_name))

    def on_method_enter(self, thread_name: str, method: str, depth: int) -> None:
        self.trace.records.append((ENTER, thread_name, method, depth))

    def on_method_exit(self, thread_name: str, method: str, depth: int) -> None:
        self.trace.records.append((EXIT, thread_name, method, depth))

    def on_access(self, event: AccessEvent) -> None:
        self.trace.records.append(
            (
                ACCESS,
                event.seq,
                event.thread_name,
                event.obj.oid,
                getattr(event.obj, "label", ""),
                event.fieldname,
                event.kind.value,
                event.is_sync,
                event.is_array,
                event.site.method,
                event.site.index,
            )
        )


def record_execution(
    program: Program,
    scheduler: Optional[Scheduler] = None,
    extra_listeners: Iterable[ExecutionListener] = (),
) -> Trace:
    """Run ``program`` once and return its trace."""
    recorder = TraceRecorder()
    Executor(program, scheduler, [*extra_listeners, recorder]).run()
    return recorder.trace
