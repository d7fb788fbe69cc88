"""Velodrome's per-field last-access metadata.

The paper's implementation "adds two words for each object and static
field: one references the transaction to write the field, and the
other references the last transaction(s) (up to one per thread) to
read the field since the last write", plus an extra header word for
the last transaction to release each object's lock.  Synchronization
operations reach this table through the same read/write mapping the
rest of the reproduction uses (acquire = read of the monitor
pseudo-field, release = write), so the release metadata word is simply
the write slot of that pseudo-field.

Metadata references are *weak* in the original (collected transactions
drop out).  :meth:`MetadataTable.purge_collected` reproduces that
behaviour after each transaction-graph collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.transactions import Transaction

Address = Tuple[int, str]


@dataclass(slots=True)
class FieldMetadata:
    """The two metadata words of one field."""

    last_writer: Optional[Transaction] = None
    #: thread name -> last transaction of that thread to read the field
    #: since the last write
    last_readers: Dict[str, Transaction] = field(default_factory=dict)

    def would_change_on_read(self, tx: Transaction) -> bool:
        """Does a read by ``tx`` need a metadata update?"""
        return self.last_readers.get(tx.thread_name) is not tx

    def would_change_on_write(self, tx: Transaction) -> bool:
        """Does a write by ``tx`` need a metadata update?

        A reader entry for ``tx`` itself is subsumed by making ``tx``
        the writer, so it does not force a synchronized update — this
        is the "current transaction is already the last writer or
        reader" case the unsound variant skips synchronization for.
        """
        if self.last_writer is not tx:
            return True
        return any(reader is not tx for reader in self.last_readers.values())


class MetadataTable:
    """Side table mapping field addresses to their metadata words."""

    def __init__(self) -> None:
        self._fields: Dict[Address, FieldMetadata] = {}

    def lookup(self, address: Address) -> FieldMetadata:
        meta = self._fields.get(address)
        if meta is None:
            meta = FieldMetadata()
            self._fields[address] = meta
        return meta

    def peek(self, address: Address) -> Optional[FieldMetadata]:
        return self._fields.get(address)

    def __len__(self) -> int:
        return len(self._fields)

    def purge_collected(self) -> int:
        """Clear weak references to collected transactions."""
        cleared = 0
        for meta in self._fields.values():
            if meta.last_writer is not None and meta.last_writer.collected:
                meta.last_writer = None
                cleared += 1
            dead = [
                t for t, tx in meta.last_readers.items() if tx.collected
            ]
            for thread_name in dead:
                del meta.last_readers[thread_name]
            cleared += len(dead)
        return cleared

    def live_reference_count(self) -> int:
        """How many metadata words currently hold references."""
        count = 0
        for meta in self._fields.values():
            if meta.last_writer is not None:
                count += 1
            count += len(meta.last_readers)
        return count
