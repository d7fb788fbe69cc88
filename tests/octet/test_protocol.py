"""The coordination protocol model."""

from repro.octet.protocol import CoordinationProtocol


def test_explicit_for_running_threads():
    protocol = CoordinationProtocol()
    assert protocol.coordinate("T1", ["T2", "T3"]) == 0
    stats = protocol.stats()
    assert stats["explicit_responses"] == 2
    assert stats["implicit_responses"] == stats["holds_placed"] == 0


def test_implicit_for_blocked_threads():
    blocked = {"T2"}
    protocol = CoordinationProtocol(lambda t: t in blocked)
    # T2 is blocked: it responds implicitly, under a hold
    assert protocol.coordinate("T1", ["T2", "T3"]) == 1
    stats = protocol.stats()
    assert stats["implicit_responses"] == stats["holds_placed"] == 1
    assert stats["explicit_responses"] == 1


def test_requester_never_responds_to_itself():
    blocked = {"T1"}
    protocol = CoordinationProtocol(lambda t: t in blocked)
    assert protocol.coordinate("T1", ["T1", "T2"]) == 0
    stats = protocol.stats()
    assert stats["explicit_responses"] == 1
    assert stats["implicit_responses"] == 0


def test_stats_accumulate():
    blocked = {"T3"}
    protocol = CoordinationProtocol(lambda t: t in blocked)
    protocol.coordinate("T1", ["T2"])
    protocol.coordinate("T1", ["T3"])
    stats = protocol.stats()
    assert stats["rounds"] == 2
    assert stats["explicit_responses"] == 1
    assert stats["implicit_responses"] == 1
    assert stats["holds_placed"] == 1


def test_empty_responder_list():
    protocol = CoordinationProtocol()
    assert protocol.coordinate("T1", []) == 0
    assert protocol.stats() == {
        "rounds": 1, "explicit_responses": 0, "implicit_responses": 0,
        "holds_placed": 0,
    }
