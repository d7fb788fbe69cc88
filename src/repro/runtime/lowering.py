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
:class:`~repro.runtime.events.Site` (shared with the executor's
generator path via :func:`~repro.runtime.events.intern_site`), its
string, the interned ``(oid, field)`` address, the value constant, and
the prebuilt control op.
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

_ACCESS_CODES = {
    "read": OP_READ,
    "write": OP_WRITE,
    "aread": OP_AREAD,
    "awrite": OP_AWRITE,
}


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
        self.array_indices = array("i", [-1] * length)
        self.dst_regs = array("i", [-1] * length)
        self.val_modes = array("b", bytes(length))
        self.val_regs = array("i", [-1] * length)
        self.objs: List[Any] = [None] * length
        self.fields: List[Optional[str]] = [None] * length
        self.sites: List[Site] = [None] * length  # type: ignore[list-item]
        self.site_strs: List[str] = [None] * length  # type: ignore[list-item]
        self.addresses: List[Optional[Tuple[int, str]]] = [None] * length
        self.val_consts: List[Any] = [None] * length
        self.control_ops: List[Any] = [None] * length
        self.nregs = 0


def lower_script(
    script: List[tuple],
    method: str,
    addr_intern: Dict[Tuple[int, str], Tuple[int, str]],
) -> LoweredBody:
    """Compile one script activation into a :class:`LoweredBody`.

    ``addr_intern`` is the executor-wide ``(oid, field)`` intern table:
    every lowered body of one executor, and every access the executor
    emits from a generator body or a synchronization operation, shares
    one address tuple per field.
    """
    body = LoweredBody(method, len(script))
    regs: Dict[str, int] = {}

    def reg_id(name: str) -> int:
        rid = regs.get(name)
        if rid is None:
            rid = regs[name] = len(regs)
        return rid

    def set_value(pc: int, vexpr: tuple) -> None:
        kind = vexpr[0]
        if kind == "const":
            body.val_modes[pc] = VAL_CONST
            body.val_consts[pc] = vexpr[1]
        elif kind == "inc":
            body.val_modes[pc] = VAL_INC
            body.val_regs[pc] = reg_id(vexpr[1])
            body.val_consts[pc] = vexpr[2]
        elif kind == "reg":
            body.val_modes[pc] = VAL_REG
            body.val_regs[pc] = reg_id(vexpr[1])
        else:
            raise ProgramError(
                f"unknown script value expression {vexpr!r} in {method}"
            )

    # hot compile loop: worker bodies run to tens of thousands of ops,
    # so the per-op column stores all go through locals
    b_codes = body.codes
    b_objs = body.objs
    b_fields = body.fields
    b_array_indices = body.array_indices
    b_addresses = body.addresses
    b_dst_regs = body.dst_regs
    b_sites = body.sites
    b_site_strs = body.site_strs
    intern_addr = addr_intern.setdefault
    access_codes = _ACCESS_CODES
    for pc, op in enumerate(script):
        code = op[0]
        b_sites[pc] = intern_site(method, pc)
        b_site_strs[pc] = f"{method}@{pc}"

        opcode = access_codes.get(code)
        if opcode is not None:
            b_codes[pc] = opcode
            obj = op[1]
            b_objs[pc] = obj
            if opcode <= OP_WRITE:
                fieldname = op[2]
            else:
                index = op[2]
                b_array_indices[pc] = index
                fieldname = f"[{index}]"
            b_fields[pc] = fieldname
            address = (obj.oid, fieldname)
            b_addresses[pc] = intern_addr(address, address)
            if opcode == OP_READ or opcode == OP_AREAD:
                b_dst_regs[pc] = -1 if op[3] is None else reg_id(op[3])
            else:
                set_value(pc, op[3])
        elif code == "compute":
            body.codes[pc] = OP_COMPUTE
            body.val_consts[pc] = op[1]
        elif code == "acquire":
            body.codes[pc] = OP_CONTROL
            body.control_ops[pc] = Acquire(op[1])
        elif code == "release":
            body.codes[pc] = OP_CONTROL
            body.control_ops[pc] = Release(op[1])
        elif code == "notify":
            body.codes[pc] = OP_CONTROL
            body.control_ops[pc] = Notify(op[1], op[2])
        elif code == "invoke":
            body.codes[pc] = OP_CONTROL
            body.control_ops[pc] = Invoke(op[1], tuple(op[2]))
        elif code == "fork":
            body.codes[pc] = OP_CONTROL
            body.control_ops[pc] = Fork(op[1], op[2], tuple(op[3]))
        elif code == "join":
            body.codes[pc] = OP_CONTROL
            body.control_ops[pc] = Join(op[1])
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
