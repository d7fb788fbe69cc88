"""Unit tests for the script-lowering pass (repro.runtime.lowering).

``lower_script`` compiles a script op list into the columnar
:class:`LoweredBody`; ``script_body`` tags a script function as a
method body for the executor to lower.  These tests pin the column
layout, the interning contracts (sites via ``intern_site``, addresses
via the executor-wide intern table), and that a scripted body runs
only lowered.
"""

import pytest

from repro.errors import ProgramError
from repro.runtime.events import intern_site
from repro.runtime.executor import Executor
from repro.runtime.lowering import (
    OP_AREAD,
    OP_AWRITE,
    OP_COMPUTE,
    OP_CONTROL,
    OP_READ,
    OP_WRITE,
    VAL_CONST,
    VAL_INC,
    lower_script,
    script_body,
)
from repro.runtime.ops import Acquire, Invoke, Release
from repro.runtime.program import Program


@pytest.fixture()
def heap():
    program = Program("lowering-test")
    objects = program.add_global_objects("o", 2)
    arr = program.add_global_array("a", 3)
    return objects, arr


def _script(objects, arr):
    o0, o1 = objects
    return [
        ("read", o0, "f0", "v"),
        ("write", o0, "f0", ("inc", "v", 2)),
        ("aread", arr, 1, None),
        ("awrite", arr, 2, ("const", 9)),
        ("compute", 3),
        ("acquire", o1),
        ("release", o1),
        ("invoke", "m0", ()),
    ]


def test_lower_script_columns(heap):
    objects, arr = heap
    o0, o1 = objects
    script = _script(objects, arr)
    body = lower_script(script, "m", {})

    assert body.length == len(script)
    assert list(body.codes) == [
        OP_READ, OP_WRITE, OP_AREAD, OP_AWRITE,
        OP_COMPUTE, OP_CONTROL, OP_CONTROL, OP_CONTROL,
    ]
    assert body.objs == [o0, o0, arr, arr, None, None, None, None]
    # array accesses synthesize "[i]" field names, like ArrayRead does
    assert body.fields[:4] == ["f0", "f0", "[1]", "[2]"]
    assert list(body.array_indices[:4]) == [-1, -1, 1, 2]
    assert body.addresses[:4] == [
        (o0.oid, "f0"), (o0.oid, "f0"), (arr.oid, "[1]"), (arr.oid, "[2]"),
    ]
    # register allocation: "v" is register 0, read into and inc'd from
    assert body.dst_regs[0] == 0
    assert body.val_modes[1] == VAL_INC
    assert body.val_regs[1] == 0
    assert body.val_consts[1] == 2
    # discarded read destination
    assert body.dst_regs[2] == -1
    assert body.val_modes[3] == VAL_CONST
    assert body.val_consts[3] == 9
    assert body.nregs == 1
    # compute cost rides in val_consts
    assert body.val_consts[4] == 3
    # control ops are prebuilt frozen instances carrying their monitor
    assert body.control_ops[:5] == [None] * 5
    assert body.control_ops[5] == Acquire(o1)
    assert body.control_ops[6] == Release(o1)
    assert body.control_ops[7] == Invoke("m0", ())


def test_lower_script_interns_sites_and_addresses(heap):
    objects, arr = heap
    script = _script(objects, arr)
    addr_intern = {}
    one = lower_script(script, "m", addr_intern)
    two = lower_script(script, "m", addr_intern)

    # sites come from the process-wide intern table shared with the
    # reference interpreter's event construction
    for pc in range(one.length):
        assert one.sites[pc] is intern_site("m", pc)
        assert one.sites[pc] is two.sites[pc]
        assert one.site_strs[pc] == f"m@{pc}"
    # addresses are interned executor-wide: both bodies share tuples
    for pc in range(4):
        assert one.addresses[pc] is two.addresses[pc]
    # one tuple per field: the two f0 accesses share theirs, and the
    # intern table holds exactly the three fields accessed
    assert one.addresses[0] is one.addresses[1]
    assert one.fields[:4] == ["f0", "f0", "[1]", "[2]"]
    fields = [(objects[0].oid, "f0"), (arr.oid, "[1]"), (arr.oid, "[2]")]
    assert list(addr_intern) == fields
    assert all(addr_intern[a] is one.addresses[pc]
               for a, pc in zip(fields, (0, 2, 3)))
    # compute and control ops access nothing
    assert one.fields[4:] == one.addresses[4:] == [None] * 4


def test_lower_script_rejects_unknown_ops(heap):
    objects, _ = heap
    with pytest.raises(ProgramError):
        lower_script([("jump", 3)], "m", {})
    with pytest.raises(ProgramError):
        lower_script(
            [("write", objects[0], "f0", ("mul", "v", 2))], "m", {}
        )


def test_script_body_runs_only_lowered(heap):
    objects, _ = heap

    def script(ctx):
        return [("read", objects[0], "f0", None)]

    body = script_body(script)
    assert body._dc_script_fn is script
    with pytest.raises(ProgramError, match="only under the executor"):
        body(None)


def test_unhashable_args_are_lowered_without_caching():
    """An activation whose args cannot key the lowering cache still
    runs lowered; it is compiled afresh on every call."""
    program = Program("unhashable")
    obj = program.add_global_object("o")

    def bump(ctx, fields):
        return [
            op
            for name in fields
            for op in (("read", obj, name, "v"),
                       ("write", obj, name, ("inc", "v", 1)))
        ]

    def worker(ctx):
        return [("invoke", "bump", (["a", "b"],))] * 2

    program.method(script_body(bump), name="bump")
    program.method(script_body(worker), name="worker")
    program.add_thread("T0", "worker")
    executor = Executor(program)
    result = executor.run()

    assert obj.fields == {"a": 2, "b": 2}
    assert result.program_access_count == 8
    assert executor._batch_frames_lowered == 3
    assert executor._batch_frames_generator == 0
    # only the worker's (hashable) activation is cached
    assert list(executor._lowered) == [("worker", ())]
