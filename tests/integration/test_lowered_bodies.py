"""Every compiled body of the catalog, pinned column by column.

The run loop, the barriers and every analysis read nothing of a
scripted body but its :class:`~repro.runtime.lowering.LoweredBody`, so
a change to the compiler must hand them exactly the same columns.
``fixtures/lowered_body_digests.json`` records, for every catalog
program run uninstrumented at scheduler seed 0, one SHA-256 digest over
every body :func:`~repro.runtime.lowering.lower_script` returns, in
compile order.  A body's digest covers its method, ``length`` and
``nregs`` and every column; heap objects and addresses are encoded by
``oid``, sites by ``(method, index)`` and control ops by type and
fields.

Regenerate (only when a compiled body is meant to change)::

    PYTHONPATH=src python tests/integration/test_lowered_bodies.py
"""

import dataclasses
import hashlib
import json
import os

from repro.harness.runner import make_scheduler
from repro.runtime import executor as executor_module
from repro.runtime.events import Site
from repro.runtime.executor import Executor
from repro.runtime.heap import SharedArray, SharedObject
from repro.workloads import all_names, build

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "lowered_body_digests.json"
)
SEED = 0

COLUMNS = (
    "codes", "array_indices", "dst_regs", "val_modes", "val_regs", "objs",
    "fields", "sites", "site_strs", "addresses", "val_consts", "control_ops",
)


def _encode(value):
    """A JSON-able, process-independent rendering of one column entry."""
    if isinstance(value, (SharedObject, SharedArray)):
        return ["oid", value.oid]
    if isinstance(value, Site):
        return ["site", value.method, value.index]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            _encode(getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    if isinstance(value, (list, tuple)):
        return [type(value).__name__] + [_encode(item) for item in value]
    return repr(value)


def body_record(body):
    """Everything the run loop can read of one compiled body."""
    return [body.method, body.length, body.nregs] + [
        [_encode(entry) for entry in getattr(body, column)]
        for column in COLUMNS
    ]


def compiled_bodies(program, seed=SEED):
    """Every body ``lower_script`` returns during one uninstrumented
    run of ``program``, in compile order."""
    bodies = []
    lower = executor_module.lower_script

    def recording(*args, **kwargs):
        body = lower(*args, **kwargs)
        bodies.append(body)
        return body

    executor_module.lower_script = recording
    try:
        Executor(program, make_scheduler(seed)).run()
    finally:
        executor_module.lower_script = lower
    return bodies


def digest(bodies):
    sha = hashlib.sha256()
    for body in bodies:
        sha.update(json.dumps(body_record(body)).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def record():
    """Each catalog program's body count and digest."""
    document = {}
    for name in all_names():
        bodies = compiled_bodies(build(name))
        document[name] = {"bodies": len(bodies), "sha256": digest(bodies)}
    return document


def test_compiled_bodies_match_recording():
    with open(FIXTURE) as handle:
        expected = json.load(handle)
    assert record() == expected


if __name__ == "__main__":
    with open(FIXTURE, "w") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
