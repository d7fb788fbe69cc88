"""Lowering scriptable method bodies into flat columnar op arrays.

The executor's reference interpreter drives generator-function method
bodies one ``yield`` at a time: every simulated instruction costs a
``gen.send``, a frozen op-dataclass allocation, a handler-dict
dispatch, a :class:`~repro.runtime.events.Site` construction, and an
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

The same script is the **single source of truth for both executor
arms**: :func:`script_body` wraps it into an ordinary generator body
(interpreting the tuples op by op — what the reference arm runs) and
tags it with the script function, which the batch executor lowers via
:func:`lower_script` into a :class:`LoweredBody`.  Byte-identical op
streams across arms hold by construction.  Bodies with data-dependent
control flow (branch on a read value, value-derived field names) stay
plain generators and run on the reference path even in batch mode.

**Column layout.**  A :class:`LoweredBody` stores one entry per op in
parallel arrays — ``array('b')`` op-codes and ``array('i')`` columns
for oid, field id, array index, lock id, site id, destination/value
registers — plus interned side tables for field names,
:class:`~repro.runtime.events.Site` objects (shared with the reference
interpreter via :func:`~repro.runtime.events.intern_site`), site
strings, and ``(oid, field)`` address tuples.  The object-reference
caches (``objs``) exist only because a running executor needs the live
heap objects, not just their ids.

``DOUBLECHECKER_BATCH_EXECUTOR=0`` disables lowering entirely (same
escape-hatch pattern as ``DOUBLECHECKER_BARRIER_FASTPATH``), keeping
the reference interpreter as a permanently exercised arm.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ProgramError
from repro.runtime.events import Site, intern_site
from repro.runtime.ops import (
    Acquire,
    ArrayRead,
    ArrayWrite,
    Compute,
    Fork,
    Invoke,
    Join,
    Notify,
    Read,
    Release,
    Write,
)

#: escape hatch disabling the batch interpreter: the identity tests run
#: with it set to ``0`` to pin the lowered pipeline against the
#: reference generator-driven one
BATCH_ENV = "DOUBLECHECKER_BATCH_EXECUTOR"


def batch_executor_enabled() -> bool:
    """Whether the batch executor is enabled (default: yes)."""
    return os.environ.get(BATCH_ENV, "").strip().lower() not in (
        "0", "false", "off",
    )


# ----------------------------------------------------------------------
# the script-derived reference body
# ----------------------------------------------------------------------
def script_body(script_fn: Callable[..., List[tuple]]) -> Callable[..., Any]:
    """Wrap a script function into a generator method body.

    The returned body interprets the script tuples exactly like a
    hand-written generator would, so registering it with
    :meth:`~repro.runtime.program.Program.method` changes nothing
    observable.  The attached ``_dc_script_fn`` tag is what the batch
    executor lowers.
    """

    def body(ctx, *args):
        return _run_script(script_fn(ctx, *args))

    body._dc_script_fn = script_fn
    body.__name__ = getattr(script_fn, "__name__", "script_body")
    return body


def _eval_value(vexpr: tuple, regs: Dict[str, Any]) -> Any:
    kind = vexpr[0]
    if kind == "const":
        return vexpr[1]
    if kind == "inc":
        return (regs.get(vexpr[1]) or 0) + vexpr[2]
    if kind == "reg":
        return regs.get(vexpr[1])
    raise ProgramError(f"unknown script value expression {vexpr!r}")


def _run_script(script: List[tuple]):
    """Generator interpreting script tuples (the reference arm)."""
    regs: Dict[str, Any] = {}
    for op in script:
        code = op[0]
        if code == "read":
            value = yield Read(op[1], op[2])
            if op[3] is not None:
                regs[op[3]] = value
        elif code == "write":
            yield Write(op[1], op[2], _eval_value(op[3], regs))
        elif code == "aread":
            value = yield ArrayRead(op[1], op[2])
            if op[3] is not None:
                regs[op[3]] = value
        elif code == "awrite":
            yield ArrayWrite(op[1], op[2], _eval_value(op[3], regs))
        elif code == "compute":
            yield Compute(op[1])
        elif code == "invoke":
            yield Invoke(op[1], tuple(op[2]))
        elif code == "acquire":
            yield Acquire(op[1])
        elif code == "release":
            yield Release(op[1])
        elif code == "fork":
            yield Fork(op[1], op[2], tuple(op[3]))
        elif code == "join":
            yield Join(op[1])
        elif code == "notify":
            yield Notify(op[1], op[2])
        else:
            raise ProgramError(f"unknown script op {op!r}")


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
    """One scriptable body activation, compiled to parallel columns.

    The canonical columnar form (``codes`` .. ``site_ids`` plus the
    side tables) is self-contained given a heap; the remaining
    attributes are per-pc caches derived from it so the batch
    interpreter runs on direct references without per-step table
    indirection.
    """

    __slots__ = (
        "method",
        "length",
        # canonical int columns (one entry per op; -1 where n/a)
        "codes",          # array('b'): OP_* op-codes
        "oids",           # array('i'): accessed/locked object id
        "field_ids",      # array('i'): index into field_table
        "array_indices",  # array('i'): array element index
        "lock_ids",       # array('i'): monitor object id
        "site_ids",       # array('i'): index into site_table
        "dst_regs",       # array('i'): destination register (-1 discards)
        "val_modes",      # array('b'): VAL_* for write/awrite values
        "val_regs",       # array('i'): source register for INC/REG
        # interned side tables
        "field_table",    # list[str]
        "site_table",     # list[Site] (canonical intern_site instances)
        "site_str_table", # list[str] (str(site), pre-interned for logs)
        "address_table",  # list[(oid, field)] (one tuple per field)
        # derived per-pc execution caches
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
        self.oids = array("i", [-1] * length)
        self.field_ids = array("i", [-1] * length)
        self.array_indices = array("i", [-1] * length)
        self.lock_ids = array("i", [-1] * length)
        self.site_ids = array("i", [0] * length)
        self.dst_regs = array("i", [-1] * length)
        self.val_modes = array("b", bytes(length))
        self.val_regs = array("i", [-1] * length)
        self.field_table: List[str] = []
        self.site_table: List[Site] = []
        self.site_str_table: List[str] = []
        self.address_table: List[Tuple[int, str]] = []
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
    every lowered body of one executor shares address tuples, exactly
    like ICD's logging path interns the addresses it builds (identity
    differs across the two tables, but all comparisons are by value).
    """
    body = LoweredBody(method, len(script))
    regs: Dict[str, int] = {}
    field_ids: Dict[str, int] = {}
    table_addresses: set = set()

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
    b_oids = body.oids
    b_objs = body.objs
    b_field_ids = body.field_ids
    b_fields = body.fields
    b_array_indices = body.array_indices
    b_addresses = body.addresses
    b_dst_regs = body.dst_regs
    b_site_ids = body.site_ids
    b_sites = body.sites
    b_site_strs = body.site_strs
    site_table_append = body.site_table.append
    site_str_table_append = body.site_str_table.append
    field_table = body.field_table
    address_table_append = body.address_table.append
    intern_addr = addr_intern.setdefault
    access_codes = _ACCESS_CODES
    for pc, op in enumerate(script):
        code = op[0]
        # sites are (method, pc): unique per op, so the site table is
        # indexed by pc directly (no dedupe pass needed)
        site = intern_site(method, pc)
        site_str = f"{method}@{pc}"
        b_site_ids[pc] = pc
        site_table_append(site)
        site_str_table_append(site_str)
        b_sites[pc] = site
        b_site_strs[pc] = site_str

        opcode = access_codes.get(code)
        if opcode is not None:
            b_codes[pc] = opcode
            obj = op[1]
            b_objs[pc] = obj
            oid = obj.oid
            b_oids[pc] = oid
            if opcode <= OP_WRITE:
                fieldname = op[2]
            else:
                index = op[2]
                b_array_indices[pc] = index
                fieldname = f"[{index}]"
            fid = field_ids.get(fieldname)
            if fid is None:
                fid = field_ids[fieldname] = len(field_table)
                field_table.append(fieldname)
            b_field_ids[pc] = fid
            b_fields[pc] = fieldname
            address = (oid, fieldname)
            address = intern_addr(address, address)
            b_addresses[pc] = address
            if address not in table_addresses:
                table_addresses.add(address)
                address_table_append(address)
            if opcode == OP_READ or opcode == OP_AREAD:
                b_dst_regs[pc] = -1 if op[3] is None else reg_id(op[3])
            else:
                set_value(pc, op[3])
        elif code == "compute":
            body.codes[pc] = OP_COMPUTE
            body.val_consts[pc] = op[1]
        elif code == "acquire":
            body.codes[pc] = OP_CONTROL
            body.oids[pc] = body.lock_ids[pc] = op[1].oid
            body.control_ops[pc] = Acquire(op[1])
        elif code == "release":
            body.codes[pc] = OP_CONTROL
            body.oids[pc] = body.lock_ids[pc] = op[1].oid
            body.control_ops[pc] = Release(op[1])
        elif code == "notify":
            body.codes[pc] = OP_CONTROL
            body.oids[pc] = body.lock_ids[pc] = op[1].oid
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
    "BATCH_ENV",
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
    "batch_executor_enabled",
    "lower_script",
    "script_body",
]
