"""Lowering scriptable method bodies into flat columnar op arrays.

Driving a generator-function method body one ``yield`` at a time
costs, per simulated instruction, a ``gen.send``, a frozen
op-dataclass allocation, a handler-dict dispatch, a
:class:`~repro.runtime.events.Site` construction, and an
:class:`~repro.runtime.events.AccessEvent` allocation.  For bodies
whose op stream is *statically known* — no data-dependent control flow
— all of that can be precomputed once.

**Script IR.**  A scriptable body is declared as a *script function*
``script_fn(ctx, *args) -> list`` returning a flat list of op tuples:

======================================  =================================
``("read", obj, field, dst)``           field read; ``dst`` names the
                                        register receiving the value
                                        (``None`` discards it)
``("write", obj, field, vexpr)``        field write
``("aread", arr, index, dst)``          array-element read
``("awrite", arr, index, vexpr)``       array-element write
``("acquire", obj)``                    monitor acquire
``("release", obj)``                    monitor release
``("notify", obj, wake_all)``           notify / notify-all
``("compute", cost)``                   local compute steps
``("invoke", method, args)``            synchronous call
``("fork", name, method, args)``        thread fork
``("join", name)``                      thread join
======================================  =================================

Value expressions ``vexpr`` are ``("const", v)``, ``("inc", reg,
delta)`` — evaluating ``(reg_value or 0) + delta``, the idiomatic
read-modify-write increment — or ``("reg", reg)``.  Registers are
arbitrary strings scoped to one body activation.

The executor lowers every :func:`script_body` activation via
:func:`lower_script` into a :class:`LoweredBody` and runs it on its
batch loop; nothing interprets the script tuples op by op.  Bodies
with data-dependent control flow (branch on a read value,
value-derived field names) stay plain generators, which the executor
drives one ``yield`` at a time.

**Column layout.**  A :class:`LoweredBody` stores one entry per op in
parallel columns, each holding exactly what the executor's run loop
reads at that pc: ``array('b')`` op-codes and value modes,
``array('i')`` array indices and destination/value registers, and
per-pc lists of the live heap object, the field name, the canonical
:class:`~repro.runtime.events.Site`, its string, the interned
``(oid, field)`` address, the value constant, and the prebuilt
control op.

**Shared entries.**  Compiling is one pass that builds nothing per op
an earlier body already built.  The site and site-string columns are
slices of a process-wide table per method (entry ``pc`` is
:func:`~repro.runtime.events.intern_site` ``(method, pc)``, shared with
the executor's generator path, and its string), bounded by the program
text like the intern table.  Addresses come from the executor's
``(oid, field)`` intern table, and control ops from its control table:
equal hashable control tuples share one frozen op, and a tuple with
unhashable args gets a fresh one.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ProgramError
from repro.runtime.events import Site, intern_site
from repro.runtime.ops import Acquire, Fork, Invoke, Join, Notify, Release


# ----------------------------------------------------------------------
# declaring a scripted body
# ----------------------------------------------------------------------
def script_body(script_fn: Callable[..., List[tuple]]) -> Callable[..., Any]:
    """Wrap a script function into a method body the executor lowers.

    The returned body only carries the ``_dc_script_fn`` tag: the
    executor reads the script through it and never calls the body, so
    driving the body directly is a :class:`ProgramError`.
    """

    name = getattr(script_fn, "__name__", "script_body")

    # closes over the name, not over ``body`` itself: a self-referencing
    # closure would make every scripted method a reference cycle
    def body(ctx, *args):
        raise ProgramError(
            f"scripted body {name!r} runs only under the executor"
        )

    body._dc_script_fn = script_fn
    body.__name__ = name
    return body


# ----------------------------------------------------------------------
# the lowered columnar form
# ----------------------------------------------------------------------
OP_READ = 0
OP_WRITE = 1
OP_AREAD = 2
OP_AWRITE = 3
OP_COMPUTE = 4
OP_CONTROL = 5

VAL_CONST = 0
VAL_INC = 1
VAL_REG = 2

#: control op name -> its frozen op, built from the script tuple
_CONTROL_OPS: Dict[str, Callable[[tuple], Any]] = {
    "acquire": lambda op: Acquire(op[1]),
    "release": lambda op: Release(op[1]),
    "notify": lambda op: Notify(op[1], op[2]),
    "invoke": lambda op: Invoke(op[1], tuple(op[2])),
    "fork": lambda op: Fork(op[1], op[2], tuple(op[3])),
    "join": lambda op: Join(op[1]),
}

#: script op name -> op-code (the access codes of writes are odd)
_OPCODES = dict(
    read=OP_READ, write=OP_WRITE, aread=OP_AREAD, awrite=OP_AWRITE,
    compute=OP_COMPUTE, **dict.fromkeys(_CONTROL_OPS, OP_CONTROL),
)

#: process-wide, bounded by the program text: method -> its sites and
#: site strings by pc, and array index -> its "[i]" field name
_SITE_TABLES: Dict[str, Tuple[List[Site], List[str]]] = {}
_ARRAY_FIELDS: Dict[int, str] = {}


def _site_columns(method: str, length: int) -> Tuple[List[Site], List[str]]:
    """Site and site-string columns of a ``length``-op body of
    ``method``: fresh slices of the method's table, grown on demand."""
    sites, strs = _SITE_TABLES.setdefault(method, ([], []))
    for pc in range(len(sites), length):
        site = intern_site(method, pc)
        sites.append(site)
        strs.append(str(site))
    return sites[:length], strs[:length]


class LoweredBody:
    """One scriptable body activation, compiled to parallel columns
    (one entry per op) the batch interpreter reads by pc."""

    __slots__ = (
        "method",
        "length",
        "codes",          # array('b'): OP_* op-codes
        "array_indices",  # array('i'): array element index (-1 n/a)
        "dst_regs",       # array('i'): destination register (-1 discards)
        "val_modes",      # array('b'): VAL_* for write/awrite values
        "val_regs",       # array('i'): source register for INC/REG
        "objs",           # heap object (or None for compute/control)
        "fields",         # fieldname str (array ops: "[i]")
        "sites",          # Site per pc
        "site_strs",      # str(site) per pc
        "addresses",      # interned (oid, field) per pc
        "val_consts",     # const value / INC delta / compute cost
        "control_ops",    # prebuilt frozen op instance for OP_CONTROL
        "nregs",
    )

    def __init__(self, method: str, length: int) -> None:
        self.method = method
        self.length = length
        self.codes = array("b", bytes(length))
        self.array_indices = array("i", [-1]) * length
        self.dst_regs = array("i", [-1]) * length
        self.val_modes = array("b", bytes(length))
        self.val_regs = array("i", [-1]) * length
        self.objs: List[Any] = [None] * length
        self.fields: List[Optional[str]] = [None] * length
        self.sites, self.site_strs = _site_columns(method, length)
        self.addresses: List[Optional[Tuple[int, str]]] = [None] * length
        self.val_consts: List[Any] = [None] * length
        self.control_ops: List[Any] = [None] * length
        self.nregs = 0


def lower_script(
    script: List[tuple],
    method: str,
    addr_intern: Dict[Tuple[int, str], Tuple[int, str]],
    control_intern: Dict[tuple, Any],
) -> LoweredBody:
    """Compile one script activation into a :class:`LoweredBody`.

    ``addr_intern`` is the executor-wide ``(oid, field)`` intern table:
    every lowered body of one executor, and every access the executor
    emits from a generator body or a synchronization operation, shares
    one address tuple per field.  ``control_intern`` is the
    executor-wide control table: one frozen op per distinct hashable
    control tuple.
    """
    body = LoweredBody(method, len(script))
    regs: Dict[str, int] = {}
    # hot compile loop: worker bodies run to tens of thousands of ops,
    # so the per-op column stores all go through locals
    b_codes = body.codes
    b_objs = body.objs
    b_fields = body.fields
    b_array_indices = body.array_indices
    b_addresses = body.addresses
    b_dst_regs = body.dst_regs
    b_val_modes = body.val_modes
    b_val_regs = body.val_regs
    b_val_consts = body.val_consts
    opcodes = _OPCODES
    array_fields = _ARRAY_FIELDS
    intern_addr = addr_intern.setdefault
    control_get = control_intern.get
    for pc, op in enumerate(script):
        opcode = opcodes.get(op[0], -1)
        if 0 <= opcode <= OP_AWRITE:
            b_codes[pc] = opcode
            obj = op[1]
            b_objs[pc] = obj
            if opcode < OP_AREAD:
                fieldname = op[2]
            else:
                index = op[2]
                b_array_indices[pc] = index
                fieldname = array_fields.get(index)
                if fieldname is None:
                    fieldname = array_fields[index] = f"[{index}]"
            b_fields[pc] = fieldname
            address = (obj.oid, fieldname)
            b_addresses[pc] = intern_addr(address, address)
            if not opcode & 1:  # a read: its destination register
                name = op[3]
                if name is not None:
                    rid = regs.get(name)
                    if rid is None:
                        rid = regs[name] = len(regs)
                    b_dst_regs[pc] = rid
                continue
            vexpr = op[3]
            kind = vexpr[0]
            if kind == "const":  # VAL_CONST is the mode column's zero
                b_val_consts[pc] = vexpr[1]
                continue
            if kind == "inc":
                b_val_modes[pc] = VAL_INC
                b_val_consts[pc] = vexpr[2]
            elif kind == "reg":
                b_val_modes[pc] = VAL_REG
            else:
                raise ProgramError(
                    f"unknown script value expression {vexpr!r} in {method}"
                )
            name = vexpr[1]
            rid = regs.get(name)
            if rid is None:
                rid = regs[name] = len(regs)
            b_val_regs[pc] = rid
        elif opcode == OP_COMPUTE:
            b_codes[pc] = OP_COMPUTE
            b_val_consts[pc] = op[1]
        elif opcode == OP_CONTROL:
            b_codes[pc] = OP_CONTROL
            build = _CONTROL_OPS[op[0]]
            try:
                control = control_get(op)
            except TypeError:  # unhashable args: a fresh op, unshared
                control = build(op)
            if control is None:
                control = control_intern[op] = build(op)
            body.control_ops[pc] = control
        else:
            raise ProgramError(f"unknown script op {op!r} in {method}")

    body.nregs = len(regs)
    return body


__all__ = [
    "LoweredBody",
    "OP_AREAD",
    "OP_AWRITE",
    "OP_COMPUTE",
    "OP_CONTROL",
    "OP_READ",
    "OP_WRITE",
    "VAL_CONST",
    "VAL_INC",
    "VAL_REG",
    "lower_script",
    "script_body",
]
