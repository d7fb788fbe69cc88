"""PCD on rare input shapes: empty logs, single-thread components,
and blame in cycles with unary members."""

from repro.core.pcd import PCD
from repro.core.transactions import Transaction

from tests.util import ALL_OBJECTS

#: an access entry's is_write (see repro.core.rwlog)
R, W = False, True


def make_tx(tx_id, thread):
    tx = Transaction(tx_id, thread, f"m{tx_id}", False)
    tx.finished = True
    tx.log = []
    return tx


def access(tx, is_write, oid, field, seq):
    tx.log.append((seq, (oid, field), is_write, "s"))


def test_empty_logs_component():
    a = make_tx(1, "T1")
    b = make_tx(2, "T2")
    assert PCD(ALL_OBJECTS).process([a, b]) == []


def test_single_thread_component_is_trivially_serializable():
    a1 = make_tx(1, "T1")
    a2 = make_tx(2, "T1")
    access(a1, W, 1, "f", 1)
    access(a2, W, 1, "f", 2)
    assert PCD(ALL_OBJECTS).process([a1, a2]) == []


def test_unary_only_cycle_blames_unary_identity():
    """When only unary transactions satisfy the blame rule, the record
    still carries the <unary> identity (refinement ignores it)."""
    a = Transaction(1, "T1", "<unary>", True)
    b = Transaction(2, "T2", "<unary>", True)
    for tx in (a, b):
        tx.finished = True
        tx.log = []
    access(a, W, 1, "f", 1)
    access(b, R, 1, "f", 2)
    access(b, W, 1, "f", 3)
    access(a, R, 1, "f", 4)
    violations = PCD(ALL_OBJECTS).process([a, b])
    assert len(violations) == 1
    assert violations[0].blamed_method == "<unary>"


def test_mixed_unary_regular_cycle_blames_regular():
    a = Transaction(1, "T1", "real_method", False)
    b = Transaction(2, "T2", "<unary>", True)
    for tx in (a, b):
        tx.finished = True
        tx.log = []
    # make the unary tx the cycle completer (blame-rule target), yet the
    # regular member should still be preferred if it also qualifies;
    # here only b completes the cycle, so blame falls where it must
    access(a, W, 1, "f", 1)
    access(b, R, 1, "f", 2)
    access(b, W, 1, "g", 3)
    access(a, R, 1, "g", 4)
    violations = PCD(ALL_OBJECTS).process([a, b])
    assert len(violations) == 1
    # the blame rule picks the transaction whose outgoing edge is older:
    # that is a (W f before R g); a is regular, so the preference and the
    # rule agree
    assert violations[0].blamed_method == "real_method"
