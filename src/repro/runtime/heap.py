"""Shared heap for simulated programs.

Objects correspond to the paper's unit of Octet state tracking ("we use
the term 'object' to refer to any unit of shared memory").  Every
object carries a monitor (for ``synchronized``-style locking) and a
dictionary of named fields.  Arrays are a separate type so the
array-instrumentation experiment (Section 5.4) can choose between
element-granularity accesses and array-granularity metadata.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional


class SharedObject:
    """A heap object with named fields and a monitor.

    Analyses never store metadata on the object itself; they keep side
    tables keyed by :attr:`oid` so several analyses can observe the same
    execution without interfering.
    """

    __slots__ = ("oid", "label", "fields")

    def __init__(self, oid: int, label: str) -> None:
        self.oid = oid
        self.label = label
        self.fields: Dict[str, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedObject #{self.oid} {self.label!r}>"

    def __hash__(self) -> int:
        return self.oid

    def __eq__(self, other: object) -> bool:
        return self is other


class SharedArray:
    """A heap array; elements are addressed by integer index.

    ``object_address`` is the array's one ``(oid, "*")`` address for
    analyses that conflate its elements (array-granularity metadata).
    """

    __slots__ = ("oid", "label", "elements", "object_address")

    def __init__(self, oid: int, label: str, length: int, fill: Any = 0) -> None:
        self.oid = oid
        self.label = label
        self.elements: List[Any] = [fill] * length
        self.object_address = (oid, "*")

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedArray #{self.oid} {self.label!r} len={len(self.elements)}>"

    def __hash__(self) -> int:
        return self.oid

    def __eq__(self, other: object) -> bool:
        return self is other


class Heap:
    """Allocator and root table for the simulated heap.

    Globals allocated before execution (via :meth:`alloc`) model static
    fields; objects allocated during execution (``yield New(...)``)
    model dynamic allocation.  Thread objects are allocated here too so
    fork/join synchronization can be expressed as accesses to them.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._objects: Dict[int, Any] = {}

    def alloc(self, label: str = "obj") -> SharedObject:
        """Allocate and register a new :class:`SharedObject`."""
        obj = SharedObject(next(self._ids), label)
        self._objects[obj.oid] = obj
        return obj

    def alloc_array(self, label: str, length: int, fill: Any = 0) -> SharedArray:
        """Allocate and register a new :class:`SharedArray`."""
        arr = SharedArray(next(self._ids), label, length, fill)
        self._objects[arr.oid] = arr
        return arr

    def get(self, oid: int) -> Optional[Any]:
        """Return the object with id ``oid`` or ``None``."""
        return self._objects.get(oid)

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._objects.values())

    def read_field(self, obj: SharedObject, fieldname: str) -> Any:
        """Read a field, defaulting to 0 for never-written fields."""
        return obj.fields.get(fieldname, 0)

    def write_field(self, obj: SharedObject, fieldname: str, value: Any) -> None:
        """Write a field."""
        obj.fields[fieldname] = value

    def read_element(self, arr: SharedArray, index: int) -> Any:
        """Read an array element (bounds-checked)."""
        return arr.elements[index]

    def write_element(self, arr: SharedArray, index: int, value: Any) -> None:
        """Write an array element (bounds-checked)."""
        arr.elements[index] = value
