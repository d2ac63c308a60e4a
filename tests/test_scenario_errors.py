"""Pin the scenario loader's error messages, path included.

The differential suite only checks that a rejection starts with `field `.
Here each document breaks one valid scenario in one place, or in two places
where the field rules must report before the whole-document checks
(references, duplicates, event order), and the exact message is pinned.
"""
import copy

import pytest

from vroverlay.errors import SchemaError
from vroverlay.sim import load_scenario

VALID = {
    "name": "pinned",
    "seed": 5,
    "duration_ms": 10_000,
    "reflectors": [{"id": 1, "region": "EU"}, {"id": 2, "region": "US"}, {"id": 3}],
    "links": [{"a": 1, "b": 2, "latency_ms": 10, "loss": 0.0},
              {"a": 2, "b": 3, "loss": 0.25, "bandwidth_kbps": 5000},
              {"a": 3, "b": 1}],
    "clients": [{"id": 10 + i, "reflector": 1 + i % 3} for i in range(6)],
    "rooms": [{"id": 1, "members": [10, 11]}, {"id": 2, "members": [12]},
              {"id": 3, "members": []}, {"id": 4, "members": [13, 14, 15]}],
    "gateway_pair": [1, 3],
    "config": {"publish_interval_ms": 500},
    "expect": {"exactly_once": True, "notifications": 0},
    "events": [
        {"t": 0, "action": "inject", "room": 1, "src": 10},
        {"t": 100, "action": "set_link", "a": 2, "b": 1, "latency_ms": 30},
        {"t": 200, "action": "restart_outcomes", "reflector": 2, "outcomes": [True, False]},
        {"t": 300, "action": "kill_reflector", "reflector": 2},
        {"t": 400, "action": "partition", "isolated": [3]},
        {"t": 500, "action": "inject", "room": 4, "src": 13, "count": 2,
         "payload_type": "video"},
    ],
}
DELETE = object()


def edited(*edits):
    """A copy of VALID with each (path, value) set, or deleted for DELETE."""
    doc = copy.deepcopy(VALID)
    for path, value in edits:
        if not path:
            return value
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return doc


ONE_FAULT = [
    ("nested-entry", [(("rooms", 3, "members", 2), "x")],
     "field rooms[3].members[2]: expected an integer >= 1, got 'x'"),
    ("payload-type", [(("events", 5, "payload_type"), "mpeg")],
     "field events[5].payload_type: expected one of opaque, video, audio, got 'mpeg'"),
    ("link-loss", [(("links", 1, "loss"), 1.5)],
     "field links[1].loss: expected a number in 0..1, got 1.5"),
    ("required-missing", [(("clients", 2, "reflector"), DELETE)],
     "field clients[2].reflector: required field missing"),
    ("required-top-level", [(("name",), DELETE)],
     "field name: required field missing"),
    ("unexpected-top-level", [(("colour",), "blue")],
     "field colour: unexpected field"),
    ("unknown-action-named-first",
     [(("events", 2), {"t": 200, "zone": 1, "action": "explode", "reflector": 2})],
     "field events[2].action: expected one of kill_reflector, restart_outcomes, set_link, "
     "inject, partition, got 'explode'"),
    ("unexpected-event-field", [(("events", 3, "zone"), 1)],
     "field events[3].zone: unexpected field"),
    ("root-not-object", [((), [1, 2])],
     "field <root>: expected an object, got [1, 2]"),
    ("entry-not-object", [(("reflectors", 1), 5)],
     "field reflectors[1]: expected an object, got 5"),
    ("empty-reflectors", [(("reflectors",), [])],
     "field reflectors: expected a non-empty list, got []"),
    ("outcome-not-bool", [(("events", 2, "outcomes", 1), 0)],
     "field events[2].outcomes[1]: expected true or false, got 0"),
    ("expect-negative", [(("expect", "notifications"), -1)],
     "field expect.notifications: expected an integer >= 0, got -1"),
    ("config-unknown-key", [(("config", "colour"), 1)],
     "field config.colour: unknown config key 'colour'"),
    ("duplicate-reflector", [(("reflectors", 2, "id"), 1)],
     "field reflectors: duplicate reflector ids"),
    ("duplicate-link", [(("links", 2), {"a": 2, "b": 1})],
     "field links[2]: duplicate link (1, 2)"),
    ("link-unknown-reflector", [(("links", 2, "b"), 9)],
     "field links[2].b: unknown reflector 9"),
    ("unknown-client", [(("rooms", 1, "members", 0), 99)],
     "field rooms[1].members[0]: unknown client 99"),
    ("unsorted-events", [(("events", 4, "t"), 250)],
     "field events[4].t: events must be sorted by time"),
    ("src-not-in-room", [(("events", 0, "src"), 12)],
     "field events[0].src: client 12 is not in room 1"),
    ("isolated-unknown", [(("events", 4, "isolated"), [3, 8])],
     "field events[4].isolated[1]: unknown reflector 8"),
    ("set-link-changes-nothing", [(("events", 1, "latency_ms"), DELETE)],
     "field events[1]: set_link changes nothing"),
]

TWO_FAULTS = [  # the field rules' fault wins over the whole-document one
    ("duplicate-link-and-nested-entry",
     [(("links", 1), {"a": 2, "b": 1}), (("rooms", 3, "members", 2), "x")],
     "field rooms[3].members[2]: expected an integer >= 1, got 'x'"),
    ("unsorted-events-and-payload-type",
     [(("events", 1, "t"), 50.0), (("events", 5, "payload_type"), "mpeg")],
     "field events[5].payload_type: expected one of opaque, video, audio, got 'mpeg'"),
    ("unknown-client-and-unexpected-field",
     [(("rooms", 0, "members", 0), 99), (("colour",), "blue")],
     "field colour: unexpected field"),
]


@pytest.mark.parametrize("edits, message", [case[1:] for case in ONE_FAULT + TWO_FAULTS],
                         ids=[case[0] for case in ONE_FAULT + TWO_FAULTS])
def test_a_faulty_document_is_rejected_with_its_exact_message(edits, message):
    with pytest.raises(SchemaError) as info:
        load_scenario(edited(*edits))
    assert str(info.value) == message


def test_the_valid_document_loads():
    assert load_scenario(VALID).name == "pinned"


@pytest.mark.parametrize("key, value", [
    ("listen", "127.0.0.1:0"), ("registry_address", "127.0.0.1:7450"), ("reflector_id", 1),
    ("region", "EU"), ("subscriber_queue", 8), ("probe_deadline_ms", 1)])
def test_daemon_only_config_keys_are_rejected(key, value):
    with pytest.raises(SchemaError) as info:
        load_scenario(edited((("config", key), value)))
    assert str(info.value) == "field config.%s: only the daemons read this key" % key
