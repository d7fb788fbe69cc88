"""Octet locality states.

Each object is in exactly one state at a time:

* ``WrExT`` — write-exclusive for thread T: T may read and write
  without synchronization.
* ``RdExT`` — read-exclusive for thread T: T may read without
  synchronization.
* ``RdShc`` — read-shared: any thread may read, provided its per-thread
  counter ``rdShCnt`` is at least ``c`` (otherwise a fence transition
  brings it up to date).
* ``RdExIntT`` / ``WrExIntT`` — intermediate states used by the
  coordination protocol so only one thread at a time changes an
  object's state.  The simulator passes through them within a single
  conflicting transition; they are modelled (and tested) because the
  protocol's correctness argument depends on them.

Objects with no recorded state are *untouched* (e.g., globals allocated
before execution); their first access installs an exclusive state for
the accessing thread without coordination, matching Octet's allocation
behaviour (new objects are born WrEx for the allocating thread).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional


class StateKind(enum.Enum):
    """The five Octet state kinds."""

    WR_EX = "WrEx"
    RD_EX = "RdEx"
    RD_SH = "RdSh"
    RD_EX_INT = "RdExInt"
    WR_EX_INT = "WrExInt"


@dataclass(frozen=True)
class OctetState:
    """An Octet state value.

    Attributes:
        kind: which of the five states.
        owner: owning thread name for exclusive/intermediate states.
        counter: the value of ``gRdShCnt`` at the transition to RdSh
            (``c`` in the paper); ``None`` for non-RdSh states.
    """

    kind: StateKind
    owner: Optional[str] = None
    counter: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is StateKind.RD_SH:
            if self.counter is None:
                raise ValueError("RdSh state requires a counter")
            if self.owner is not None:
                raise ValueError("RdSh state has no owner")
        else:
            if self.owner is None:
                raise ValueError(f"{self.kind.value} state requires an owner")
            if self.counter is not None:
                raise ValueError(f"{self.kind.value} state has no counter")

    def is_exclusive(self) -> bool:
        return self.kind in (StateKind.WR_EX, StateKind.RD_EX)

    def is_intermediate(self) -> bool:
        return self.kind in _INTERMEDIATE

    def __str__(self) -> str:
        if self.kind is StateKind.RD_SH:
            return f"RdSh({self.counter})"
        return f"{self.kind.value}({self.owner})"


#: built once: ``classify`` tests every transition's source state, and
#: each ``Enum`` class-attribute lookup goes through the metaclass
_INTERMEDIATE = (StateKind.RD_EX_INT, StateKind.WR_EX_INT)

#: process-wide intern tables of the per-thread states, owner -> state:
#: the exclusive and intermediate states are value types, and the set
#: of distinct owners is bounded by the program's threads, so a
#: transition reuses one canonical instance (validated once, by
#: ``__post_init__``) instead of building a frozen dataclass.
#: Interning changes object identity only; comparisons stay by value.
#: RdSh states carry an unbounded counter and are not interned.
_WR_EX_OF: Dict[str, OctetState] = {}
_RD_EX_OF: Dict[str, OctetState] = {}
_RD_EX_INT_OF: Dict[str, OctetState] = {}
_WR_EX_INT_OF: Dict[str, OctetState] = {}


def _interned(
    table: Dict[str, OctetState], kind: StateKind, owner: str
) -> OctetState:
    state = table.get(owner)
    if state is None:
        state = table[owner] = OctetState(kind, owner=owner)
    return state


def wr_ex(owner: str) -> OctetState:
    """The WrExT state."""
    return _interned(_WR_EX_OF, StateKind.WR_EX, owner)


def rd_ex(owner: str) -> OctetState:
    """The RdExT state."""
    return _interned(_RD_EX_OF, StateKind.RD_EX, owner)


def rd_sh(counter: int) -> OctetState:
    """Construct a RdShc state."""
    return OctetState(StateKind.RD_SH, counter=counter)


def rd_ex_int(owner: str) -> OctetState:
    """The intermediate state entered while acquiring RdEx."""
    return _interned(_RD_EX_INT_OF, StateKind.RD_EX_INT, owner)


def wr_ex_int(owner: str) -> OctetState:
    """The intermediate state entered while acquiring WrEx."""
    return _interned(_WR_EX_INT_OF, StateKind.WR_EX_INT, owner)
