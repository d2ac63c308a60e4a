"""Newline-delimited JSON control protocol.

Every message is one JSON object per line with a ``v`` field (always 3)
and a ``kind``. Encoding is canonical (sorted keys, no spaces) so message
bytes are stable and golden-file testable; the full field reference lives
in protocol.md at the repository root.

Core kinds: register, heartbeat, advertise, install_routing, snapshot,
subscribe, event. Transport support kinds: ack, deregister, probe,
probe_reply, hello.
"""
from __future__ import annotations

import json
import math
import sys
from typing import Optional

from .errors import SchemaError
from .model import LinkStats
from .monitor import MetricSample
from .quality import QualityFactor
from .reflector import RoutingTable
from .registry import FlowSummary, LinkRecord, RegistryEntry, TopologySnapshot

PROTOCOL_VERSION = 3

# Required fields per message kind (beyond "v" and "kind").
KIND_FIELDS = {
    "register": ("reflector", "address", "region"),
    "deregister": ("reflector",),
    "heartbeat": ("reflector", "at"),
    "advertise": ("reflector", "rooms"),
    "install_routing": ("reflector", "epoch", "tree_neighbors", "room_egress"),
    "snapshot": (),            # request form carries no payload
    "subscribe": ("filter",),
    "event": ("event",),
    "ack": ("ok",),
    "probe": (),
    "probe_reply": ("reflector", "epoch"),
    "hello": ("role",),
}

EVENT_FIELDS = {
    "metric": ("reflector", "name", "value", "at"),
    "notification": ("reflector", "reason", "at", "recipients"),
}

HELLO_FIELDS = {
    "client": ("client",),
    "peer": ("reflector",),
}

# Kinds whose required fields also depend on one field's value.
_VARIANT_FIELDS = {"event": ("event", EVENT_FIELDS), "hello": ("role", HELLO_FIELDS)}

# The JSON type of every top-level field, required or optional, checked
# wherever it appears: (description, test). Ids and epochs are integers,
# never booleans; json.loads gives exact built-in types, so `type() is` works.
# Snapshot documents are checked with the same predicates (snapshot_from_dict).
_INTEGER = ("an integer", lambda v: type(v) is int)
_NUMBER = ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v))
_STRING = ("a string", lambda v: type(v) is str)
_INTEGERS = ("a list of integers", lambda v: type(v) is list and all(type(x) is int for x in v))
_STRINGS = ("a list of strings", lambda v: type(v) is list and all(type(x) is str for x in v))
_ROOM_LISTS = (
    "an object of integer lists keyed by room id",
    lambda v: type(v) is dict
    and all(room.isdecimal() and _INTEGERS[1](ids) for room, ids in v.items()),
)
_OBJECTS = ("a list of objects", lambda v: type(v) is list and all(type(x) is dict for x in v))
_EDGES = ("a list of integer pairs",
          lambda v: type(v) is list and all(_INTEGERS[1](e) and len(e) == 2 for e in v))
_OBJECT_OR_NULL = ("an object or null", lambda v: v is None or type(v) is dict)
FIELD_TYPES = {
    "reflector": _INTEGER,
    "client": _INTEGER,
    "epoch": _INTEGER,
    "at": _NUMBER,
    "value": _NUMBER,
    "min_interval_ms": _NUMBER,
    "address": _STRING,
    "region": _STRING,
    "filter": _STRING,
    "event": _STRING,
    "name": ("a non-empty string", lambda v: type(v) is str and v != ""),
    "reason": _STRING,
    "role": _STRING,
    "error": _STRING,
    "rooms": _INTEGERS,
    "reflectors": _INTEGERS,
    "tree_neighbors": _INTEGERS,
    "recipients": _STRINGS,
    "ok": ("a boolean", lambda v: type(v) is bool),
    "snapshot": ("an object", lambda v: type(v) is dict),
    "room_egress": _ROOM_LISTS,
}
_REQUIRED = object()


def _field(doc: dict, where: str, name: str, kind: tuple, default=_REQUIRED):
    """``doc[name]`` checked against ``kind``; ``default`` when it is absent."""
    if name not in doc:
        if default is _REQUIRED:
            raise SchemaError("field %s%s: required" % (where, name))
        return default
    expected, valid = kind
    value = doc[name]
    if not valid(value):
        raise SchemaError("field %s%s: expected %s, got %s"
                          % (where, name, expected, type(value).__name__))
    return value


def encode_message(msg: dict) -> str:
    """One canonical protocol line (newline included)."""
    return json.dumps(msg, sort_keys=True, separators=(",", ":")) + "\n"


def decode_message(line: str) -> dict:
    """Parse and validate one protocol line."""
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError("not valid JSON: %s" % exc.msg) from None
    if not isinstance(msg, dict):
        raise SchemaError("message must be a JSON object")
    if msg.get("v") != PROTOCOL_VERSION:
        raise SchemaError("field v: expected %d, got %r" % (PROTOCOL_VERSION, msg.get("v")))
    kind = msg.get("kind")
    if type(kind) is not str or kind not in KIND_FIELDS:
        raise SchemaError("field kind: unknown message kind %r" % (kind,))
    for name in KIND_FIELDS[kind]:
        if name not in msg:
            raise SchemaError("field %s: required for kind %r" % (name, kind))
    for name in msg:
        if name in FIELD_TYPES:
            _field(msg, "", name, FIELD_TYPES[name])
    if kind in _VARIANT_FIELDS:
        key, fields = _VARIANT_FIELDS[kind]
        for name in fields.get(msg[key], ()):
            if name not in msg:
                raise SchemaError("field %s: required for %s %r" % (name, key, msg[key]))
    return msg


def _base(kind: str, **fields_) -> dict:
    msg = {"v": PROTOCOL_VERSION, "kind": kind}
    msg.update(fields_)
    return msg


def make_register(reflector: int, address: str, region: str = "") -> dict:
    return _base("register", reflector=reflector, address=address, region=region)


def make_deregister(reflector: int) -> dict:
    return _base("deregister", reflector=reflector)


def make_heartbeat(reflector: int, at: float) -> dict:
    return _base("heartbeat", reflector=reflector, at=at)


def make_advertise(reflector: int, rooms) -> dict:
    return _base("advertise", reflector=reflector, rooms=sorted(rooms))


def make_install_routing(reflector: int, table: RoutingTable) -> dict:
    return _base(
        "install_routing",
        reflector=reflector,
        epoch=table.epoch,
        tree_neighbors=sorted(table.tree_neighbors),
        room_egress={str(room): sorted(peers) for room, peers in sorted(table.room_egress.items())},
    )


def routing_table_from_message(msg: dict) -> RoutingTable:
    return RoutingTable(
        epoch=msg["epoch"],
        tree_neighbors=frozenset(msg["tree_neighbors"]),
        room_egress={int(room): frozenset(peers) for room, peers in msg["room_egress"].items()},
    )


def make_snapshot_request() -> dict:
    return _base("snapshot")


def make_snapshot(snapshot: TopologySnapshot) -> dict:
    return _base("snapshot", epoch=snapshot.epoch, snapshot=snapshot_to_dict(snapshot))


def make_subscribe(pattern: str, reflectors=None, min_interval_ms: float = 0.0) -> dict:
    msg = _base("subscribe", filter=pattern, min_interval_ms=min_interval_ms)
    if reflectors is not None:
        msg["reflectors"] = sorted(reflectors)
    return msg


def make_ack(ok: bool, error: str = "", epoch: Optional[int] = None) -> dict:
    msg = _base("ack", ok=ok)
    if error:
        msg["error"] = error
    if epoch is not None:
        msg["epoch"] = epoch
    return msg


def make_probe() -> dict:
    return _base("probe")


def make_probe_reply(reflector: int, epoch: int) -> dict:
    return _base("probe_reply", reflector=reflector, epoch=epoch)


def make_hello_client(client: int, rooms) -> dict:
    return _base("hello", role="client", client=client, rooms=sorted(rooms))


def make_hello_peer(reflector: int) -> dict:
    return _base("hello", role="peer", reflector=reflector)


def make_metric_event(sample: MetricSample) -> dict:
    return _base(
        "event",
        event="metric",
        reflector=sample.reflector,
        name=sample.name,
        value=sample.value,
        at=sample.at,
    )


def metric_sample_from_event(msg: dict) -> MetricSample:
    # Series names repeat endlessly; interning keeps one copy per series alive.
    return MetricSample(msg["reflector"], sys.intern(msg["name"]), msg["value"], msg["at"])


def make_notification_event(reflector: int, reason: str, at: float, recipients) -> dict:
    return _base(
        "event",
        event="notification",
        reflector=reflector,
        reason=reason,
        at=at,
        recipients=list(recipients),
    )


# --- topology snapshot <-> JSON ---

def snapshot_to_dict(snapshot: TopologySnapshot) -> dict:
    return {
        "epoch": snapshot.epoch,
        "reflectors": [
            {
                "id": e.reflector,
                "address": e.control_address,
                "region": e.region,
                "registered_at": e.registered_at,
                "last_heartbeat": e.last_heartbeat,
            }
            for e in sorted(snapshot.reflectors, key=lambda e: e.reflector)
        ],
        "links": [
            {
                "a": r.stats.link[0],
                "b": r.stats.link[1],
                "rtt_ms": r.stats.rtt_ms,
                "loss": r.stats.loss_fraction,
                "capacity_kbps": r.stats.capacity_kbps,
                "sampled_at": r.stats.sampled_at,
                "quality": r.quality.q,
            }
            for r in sorted(snapshot.links, key=lambda r: r.stats.link)
        ],
        "tree_edges": [list(e) for e in sorted(snapshot.tree_edges)],
        "room_members": {
            str(room): sorted(members) for room, members in sorted(snapshot.room_members.items())
        },
        "flow": None
        if snapshot.flow is None
        else {
            "source": snapshot.flow.source,
            "sink": snapshot.flow.sink,
            "value": snapshot.flow.value,
            "edges": [list(e) for e in sorted(snapshot.flow.edges)],
        },
    }


def snapshot_from_dict(doc: dict) -> TopologySnapshot:
    """The typed snapshot of a document; each field's JSON type is checked.

    A missing or mistyped field raises SchemaError naming it, e.g.
    ``field reflectors[0].id: expected an integer, got str``.
    """
    if type(doc) is not dict:
        raise SchemaError("snapshot: expected an object, got %s" % type(doc).__name__)
    reflectors = []
    for i, e in enumerate(_field(doc, "", "reflectors", _OBJECTS)):
        where = "reflectors[%d]." % i
        reflectors.append(RegistryEntry(
            reflector=_field(e, where, "id", _INTEGER),
            control_address=_field(e, where, "address", _STRING),
            region=_field(e, where, "region", _STRING, ""),
            registered_at=_field(e, where, "registered_at", _NUMBER, 0.0),
            last_heartbeat=_field(e, where, "last_heartbeat", _NUMBER, 0.0),
        ))
    links = []
    for i, l in enumerate(_field(doc, "", "links", _OBJECTS, [])):
        where = "links[%d]." % i
        key = (_field(l, where, "a", _INTEGER), _field(l, where, "b", _INTEGER))
        try:
            stats = LinkStats(
                link=key,
                rtt_ms=_field(l, where, "rtt_ms", _NUMBER),
                loss_fraction=_field(l, where, "loss", _NUMBER),
                capacity_kbps=_field(l, where, "capacity_kbps", _NUMBER),
                sampled_at=_field(l, where, "sampled_at", _NUMBER, 0.0),
            )
        except ValueError as exc:
            raise SchemaError("field links[%d]: %s" % (i, exc)) from None
        quality = QualityFactor(link=key, q=_field(l, where, "quality", _NUMBER))
        links.append(LinkRecord(stats=stats, quality=quality))
    flow_doc = _field(doc, "", "flow", _OBJECT_OR_NULL, None)
    flow = None
    if flow_doc is not None:
        flow = FlowSummary(
            source=_field(flow_doc, "flow.", "source", _INTEGER),
            sink=_field(flow_doc, "flow.", "sink", _INTEGER),
            value=_field(flow_doc, "flow.", "value", _NUMBER),
            edges=frozenset(tuple(e) for e in _field(flow_doc, "flow.", "edges", _EDGES, [])),
        )
    return TopologySnapshot(
        epoch=_field(doc, "", "epoch", _INTEGER),
        reflectors=tuple(reflectors),
        links=tuple(links),
        tree_edges=frozenset(tuple(e) for e in _field(doc, "", "tree_edges", _EDGES, [])),
        room_members={
            int(room): frozenset(members)
            for room, members in _field(doc, "", "room_members", _ROOM_LISTS, {}).items()
        },
        flow=flow,
    )
