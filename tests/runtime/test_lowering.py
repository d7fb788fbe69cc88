"""Unit tests for the script-lowering pass (repro.runtime.lowering).

``lower_script`` compiles a script op list into the columnar
:class:`LoweredBody`; ``script_body`` tags a script function as a
method body for the executor to lower.  These tests pin the column
layout, the interning contracts (sites via ``intern_site``, addresses
and control ops via the executor-wide tables), and that a scripted
body runs only lowered.  A property test checks every column of random
scripts over the whole vocabulary against a per-op reading of the
module docstring's IR table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    VAL_REG,
    lower_script,
    script_body,
)
from repro.runtime.ops import Acquire, Fork, Invoke, Join, Notify, Release
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
    body = lower_script(script, "m", {}, {})

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
    one = lower_script(script, "m", addr_intern, {})
    two = lower_script(script, "m", addr_intern, {})

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
        lower_script([("jump", 3)], "m", {}, {})
    with pytest.raises(ProgramError):
        lower_script(
            [("write", objects[0], "f0", ("mul", "v", 2))], "m", {}, {}
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


# ----------------------------------------------------------------------
# lower_script against the IR's definition
# ----------------------------------------------------------------------
_PROGRAM = Program("lowering-properties")
OBJECTS = _PROGRAM.add_global_objects("p", 3)
ARRAYS = [_PROGRAM.add_global_array(f"arr{i}", 4) for i in range(2)]

REGS = st.sampled_from(["r0", "r1", "r2"])
VEXPRS = st.one_of(
    st.tuples(st.just("const"), st.integers(-3, 3)),
    st.tuples(st.just("inc"), REGS, st.integers(-3, 3)),
    st.tuples(st.just("reg"), REGS),
)
DESTS = st.none() | REGS
FIELDS = st.sampled_from(["f0", "f1", "g"])
INDICES = st.integers(0, 3)
OBJS = st.sampled_from(OBJECTS)
METHODS = st.sampled_from(["m0", "m1"])
THREADS = st.sampled_from(["T1", "T2"])
# a hashable args tuple, an args list (an unhashable control tuple whose
# op is hashable) and a tuple holding a list (both unhashable)
ARGS = st.one_of(
    st.tuples(st.integers(0, 2)),
    st.lists(st.integers(0, 2), max_size=2),
    st.tuples(st.lists(st.integers(0, 2), max_size=1)),
)
OPS = st.one_of(
    st.tuples(st.just("read"), OBJS, FIELDS, DESTS),
    st.tuples(st.just("write"), OBJS, FIELDS, VEXPRS),
    st.tuples(st.just("aread"), st.sampled_from(ARRAYS), INDICES, DESTS),
    st.tuples(st.just("awrite"), st.sampled_from(ARRAYS), INDICES, VEXPRS),
    st.tuples(st.just("compute"), st.integers(1, 4)),
    st.tuples(st.just("acquire"), OBJS),
    st.tuples(st.just("release"), OBJS),
    st.tuples(st.just("notify"), OBJS, st.booleans()),
    st.tuples(st.just("invoke"), METHODS, ARGS),
    st.tuples(st.just("fork"), THREADS, METHODS, ARGS),
    st.tuples(st.just("join"), THREADS),
)
SCRIPTS = st.lists(OPS, max_size=30)

_ACCESS = {"read": OP_READ, "write": OP_WRITE, "aread": OP_AREAD,
           "awrite": OP_AWRITE}
_CONTROL = {
    "acquire": lambda op: Acquire(op[1]),
    "release": lambda op: Release(op[1]),
    "notify": lambda op: Notify(op[1], op[2]),
    "invoke": lambda op: Invoke(op[1], tuple(op[2])),
    "fork": lambda op: Fork(op[1], op[2], tuple(op[3])),
    "join": lambda op: Join(op[1]),
}


def reference_rows(script):
    """One row per op, read off the IR table: (code, array index,
    destination register, value mode, value register, object, field,
    address, value constant, control op)."""
    regs = {}

    def reg(name):
        return regs.setdefault(name, len(regs))

    rows = []
    for op in script:
        name = op[0]
        index = dst = val_reg = -1
        mode = VAL_CONST
        obj = fieldname = address = const = control = None
        if name in _ACCESS:
            obj = op[1]
            if name in ("read", "write"):
                fieldname = op[2]
            else:
                index = op[2]
                fieldname = f"[{index}]"
            address = (obj.oid, fieldname)
            if name in ("read", "aread"):
                dst = -1 if op[3] is None else reg(op[3])
            elif op[3][0] == "const":
                const = op[3][1]
            elif op[3][0] == "inc":
                mode, val_reg, const = VAL_INC, reg(op[3][1]), op[3][2]
            else:
                mode, val_reg = VAL_REG, reg(op[3][1])
            code = _ACCESS[name]
        elif name == "compute":
            code, const = OP_COMPUTE, op[1]
        else:
            code, control = OP_CONTROL, _CONTROL[name](op)
        rows.append((code, index, dst, mode, val_reg, obj, fieldname,
                     address, const, control))
    return rows, len(regs)


def body_rows(body):
    return list(zip(
        body.codes, body.array_indices, body.dst_regs, body.val_modes,
        body.val_regs, body.objs, body.fields, body.addresses,
        body.val_consts, body.control_ops,
    ))


def _hashable(op):
    try:
        hash(op)
    except TypeError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(script=SCRIPTS, method=METHODS)
def test_lower_script_matches_the_ir_definition(script, method):
    addr_intern, control_intern = {}, {}
    bodies = [lower_script(script, method, addr_intern, control_intern)
              for _ in range(2)]
    rows, nregs = reference_rows(script)

    shared = {}
    fresh = []
    for body in bodies:
        assert (body.method, body.length, body.nregs) == (
            method, len(script), nregs
        )
        assert body_rows(body) == rows
        assert len(body.sites) == len(body.site_strs) == len(script)
        for pc, op in enumerate(script):
            assert body.sites[pc] is intern_site(method, pc)
            assert body.site_strs[pc] == str(body.sites[pc])
            address = body.addresses[pc]
            if address is not None:
                assert addr_intern[address] is address
            if body.codes[pc] != OP_CONTROL:
                continue
            control = body.control_ops[pc]
            if _hashable(op):
                # equal control tuples share one op, across bodies too
                assert shared.setdefault(op, control) is control
            else:
                fresh.append(control)
    # an unhashable control tuple gets an op of its own every time
    ids = [id(op) for op in fresh] + [id(op) for op in shared.values()]
    assert len(set(ids)) == len(ids)


@settings(max_examples=50, deadline=None)
@given(
    script=SCRIPTS,
    bad=st.one_of(
        st.tuples(st.sampled_from(["jump", "wait", "new"]), OBJS),
        st.tuples(
            st.sampled_from(["write", "awrite"]), OBJS, st.just(0),
            st.tuples(st.sampled_from(["mul", "neg"]), REGS),
        ),
    ),
    data=st.data(),
)
def test_lower_script_rejects_what_the_ir_lacks(script, bad, data):
    at = data.draw(st.integers(0, len(script)))
    with pytest.raises(ProgramError):
        lower_script(script[:at] + [bad] + script[at:], "m0", {}, {})
