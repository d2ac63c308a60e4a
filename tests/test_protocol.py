"""Control protocol: golden message encodings and validation."""
import re

import pytest

from vroverlay.errors import SchemaError
from vroverlay.model import LinkStats
from vroverlay.monitor import MetricSample
from vroverlay.protocol import (
    decode_message,
    encode_message,
    make_ack,
    make_advertise,
    make_deregister,
    make_heartbeat,
    make_install_routing,
    make_metric_event,
    make_notification_event,
    make_probe,
    make_probe_reply,
    make_register,
    make_snapshot,
    make_snapshot_request,
    make_subscribe,
    metric_sample_from_event,
    routing_table_from_message,
    snapshot_from_dict,
    snapshot_to_dict,
)
from vroverlay.quality import QualityFactor
from vroverlay.reflector import RoutingTable
from vroverlay.registry import FlowSummary, LinkRecord, RegistryEntry, TopologySnapshot

# Frozen wire bytes: canonical JSON is sorted-key and compact, so these
# lines are the exact contract documented in protocol.md.
GOLDEN_LINES = {
    "register": (
        make_register(1, "10.0.0.1:7000", "EU"),
        '{"address":"10.0.0.1:7000","kind":"register","reflector":1,"region":"EU","v":3}\n',
    ),
    "deregister": (
        make_deregister(1),
        '{"kind":"deregister","reflector":1,"v":3}\n',
    ),
    "heartbeat": (
        make_heartbeat(2, 12000.0),
        '{"at":12000.0,"kind":"heartbeat","reflector":2,"v":3}\n',
    ),
    "advertise": (
        make_advertise(2, {3, 1}),
        '{"kind":"advertise","reflector":2,"rooms":[1,3],"v":3}\n',
    ),
    "install_routing": (
        make_install_routing(
            1,
            RoutingTable(
                epoch=4,
                tree_neighbors=frozenset({3, 2}),
                room_egress={9: frozenset({2, 3}), 7: frozenset({2})},
            ),
        ),
        '{"epoch":4,"kind":"install_routing","reflector":1,'
        '"room_egress":{"7":[2],"9":[2,3]},"tree_neighbors":[2,3],"v":3}\n',
    ),
    "snapshot_request": (
        make_snapshot_request(),
        '{"kind":"snapshot","v":3}\n',
    ),
    "subscribe": (
        make_subscribe("vrvs.*", min_interval_ms=0.0),
        '{"filter":"vrvs.*","kind":"subscribe","min_interval_ms":0.0,"v":3}\n',
    ),
    "metric_event": (
        make_metric_event(MetricSample(reflector=1, name="vrvs.clients", value=5.0, at=10.0)),
        '{"at":10.0,"event":"metric","kind":"event","name":"vrvs.clients",'
        '"reflector":1,"v":3,"value":5.0}\n',
    ),
    "notification_event": (
        make_notification_event(4, "restart failed twice", 50.0, ["ops@example.net"]),
        '{"at":50.0,"event":"notification","kind":"event",'
        '"reason":"restart failed twice","recipients":["ops@example.net"],'
        '"reflector":4,"v":3}\n',
    ),
    "ack_ok": (
        make_ack(True, epoch=3),
        '{"epoch":3,"kind":"ack","ok":true,"v":3}\n',
    ),
    "ack_error": (
        make_ack(False, error="DuplicateId"),
        '{"error":"DuplicateId","kind":"ack","ok":false,"v":3}\n',
    ),
    "probe": (make_probe(), '{"kind":"probe","v":3}\n'),
    "probe_reply": (
        make_probe_reply(2, 9),
        '{"epoch":9,"kind":"probe_reply","reflector":2,"v":3}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LINES))
def test_golden_encodings(name):
    msg, line = GOLDEN_LINES[name]
    assert encode_message(msg) == line
    assert decode_message(line) == msg


def test_decode_rejects_wrong_version():
    with pytest.raises(SchemaError):
        decode_message('{"kind":"probe","v":2}')


def test_decode_rejects_unknown_kind():
    with pytest.raises(SchemaError):
        decode_message('{"kind":"dance","v":3}')


def test_decode_rejects_missing_required_field():
    with pytest.raises(SchemaError):
        decode_message('{"kind":"heartbeat","reflector":1,"v":3}')
    with pytest.raises(SchemaError):
        decode_message('{"event":"metric","kind":"event","v":3}')
    with pytest.raises(SchemaError, match="field client: required for role 'client'"):
        decode_message('{"kind":"hello","role":"client","rooms":[5],"v":3}')
    with pytest.raises(SchemaError, match="field reflector: required for role 'peer'"):
        decode_message('{"kind":"hello","role":"peer","v":3}')


@pytest.mark.parametrize("line, field", [
    ('{"filter":"vrvs.*","kind":"subscribe","min_interval_ms":"x","v":3}', "min_interval_ms"),
    ('{"filter":"vrvs.*","kind":"subscribe","reflectors":5,"v":3}', "reflectors"),
    ('{"filter":"vrvs.*","kind":"subscribe","reflectors":[true],"v":3}', "reflectors"),
    ('{"filter":7,"kind":"subscribe","v":3}', "filter"),
    ('{"at":"x","event":"metric","kind":"event","name":"m","reflector":1,"v":3,"value":1.0}',
     "at"),
    ('{"at":1.0,"event":"metric","kind":"event","name":"m","reflector":1,"v":3,"value":NaN}',
     "value"),
    ('{"at":1.0,"event":"metric","kind":"event","name":"m","reflector":true,"v":3,"value":1}',
     "reflector"),
    ('{"at":1.0,"event":"notification","kind":"event","reason":"r","recipients":[1],'
     '"reflector":1,"v":3}', "recipients"),
    ('{"event":["metric"],"kind":"event","v":3}', "event"),
    ('{"address":"a:1","kind":"register","reflector":1,"region":null,"v":3}', "region"),
    ('{"at":1.0,"kind":"heartbeat","reflector":"1","v":3}', "reflector"),
    ('{"kind":"advertise","reflector":1,"rooms":[1.5],"v":3}', "rooms"),
    ('{"epoch":1.0,"kind":"install_routing","reflector":1,"room_egress":{},'
     '"tree_neighbors":[],"v":3}', "epoch"),
    ('{"epoch":1,"kind":"install_routing","reflector":1,"room_egress":{"x":[2]},'
     '"tree_neighbors":[2],"v":3}', "room_egress"),
    ('{"kind":"ack","ok":1,"v":3}', "ok"),
    ('{"client":"7","kind":"hello","role":"client","rooms":[5],"v":3}', "client"),
    ('{"client":7,"kind":"hello","role":"client","rooms":"5","v":3}', "rooms"),
    ('{"kind":"hello","reflector":2.0,"role":"peer","v":3}', "reflector"),
])
def test_decode_rejects_wrong_field_type(line, field):
    with pytest.raises(SchemaError, match="^field %s: expected " % field):
        decode_message(line)


def test_decode_rejects_unhashable_kind():
    with pytest.raises(SchemaError, match="^field kind: "):
        decode_message('{"kind":["probe"],"v":3}')


def test_decode_rejects_non_json_and_non_object():
    with pytest.raises(SchemaError):
        decode_message("not json")
    with pytest.raises(SchemaError):
        decode_message('[1,2]')


def test_routing_table_round_trip():
    table = RoutingTable(
        epoch=6,
        tree_neighbors=frozenset({4, 5}),
        room_egress={1: frozenset({4}), 2: frozenset({4, 5})},
    )
    msg = decode_message(encode_message(make_install_routing(3, table)))
    assert routing_table_from_message(msg) == table


def make_snapshot_value():
    return TopologySnapshot(
        epoch=9,
        reflectors=(
            RegistryEntry(1, "tcp://a:1", "EU", 0.0, 40.0),
            RegistryEntry(2, "tcp://b:2", "US", 5.0, 45.0),
        ),
        links=(
            LinkRecord(
                stats=LinkStats((1, 2), rtt_ms=30.0, loss_fraction=0.01,
                                capacity_kbps=2000.0, sampled_at=40.0),
                quality=QualityFactor(link=(1, 2), q=0.875, sample_count=4),
            ),
        ),
        tree_edges=frozenset({(1, 2)}),
        room_members={7: frozenset({1, 2})},
        flow=FlowSummary(source=1, sink=2, value=1750.0, edges=frozenset({(1, 2)})),
    )


def test_snapshot_dict_round_trip():
    snap = make_snapshot_value()
    doc = snapshot_to_dict(snap)
    back = snapshot_from_dict(doc)
    assert back.epoch == snap.epoch
    assert back.reflectors == snap.reflectors
    assert back.tree_edges == snap.tree_edges
    assert back.room_members == snap.room_members
    assert back.flow.value == snap.flow.value
    assert back.links[0].stats == snap.links[0].stats
    assert back.links[0].quality.q == snap.links[0].quality.q


def test_snapshot_message_round_trip():
    snap = make_snapshot_value()
    msg = decode_message(encode_message(make_snapshot(snap)))
    assert msg["epoch"] == 9
    assert msg["snapshot"]["room_members"] == {"7": [1, 2]}
    assert msg["snapshot"]["flow"]["edges"] == [[1, 2]]


def test_snapshot_from_dict_rejects_malformed():
    with pytest.raises(SchemaError):
        snapshot_from_dict({"epoch": 1})
    with pytest.raises(SchemaError):
        snapshot_from_dict({"epoch": 1, "reflectors": [{"id": 1}]})
    for path, value, field in [
        (("reflectors", 0, "id"), "x", "reflectors[0].id"),
        (("links", 0, "quality"), "q", "links[0].quality"),
        (("epoch",), True, "epoch"),
        (("reflectors", 1, "address"), 7, "reflectors[1].address"),
        (("reflectors", 0, "last_heartbeat"), float("nan"), "reflectors[0].last_heartbeat"),
        (("links", 0, "rtt_ms"), None, "links[0].rtt_ms"),
        (("links", 0, "b"), 1.5, "links[0].b"),
        (("links", 0, "loss"), 2.0, "links[0]"),
        (("tree_edges",), [[1, 2, 3]], "tree_edges"),
        (("room_members",), {"seven": [1]}, "room_members"),
        (("room_members",), {"7": ["1"]}, "room_members"),
        (("flow", "sink"), False, "flow.sink"),
        (("flow", "value"), "1750", "flow.value"),
        (("flow", "edges"), [["1", 2]], "flow.edges"),
    ]:
        doc = snapshot_to_dict(make_snapshot_value())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SchemaError, match="^field %s: " % re.escape(field)):
            snapshot_from_dict(doc)
    for doc in (None, [], "snapshot"):
        with pytest.raises(SchemaError):
            snapshot_from_dict(doc)


def test_metric_sample_event_round_trip():
    sample = MetricSample(reflector=3, name="peer.2.loss", value=0.25, at=77.0)
    msg = decode_message(encode_message(make_metric_event(sample)))
    assert metric_sample_from_event(msg) == sample


def test_decoded_samples_of_one_series_share_their_name():
    # Each decode builds a new name string; the store retains one per series.
    line = encode_message(make_metric_event(MetricSample(3, "peer.2.loss", 0.25, 77.0)))
    first, second = (metric_sample_from_event(decode_message(line)) for _ in range(2))
    assert first.name == second.name == "peer.2.loss"
    assert first.name is second.name
