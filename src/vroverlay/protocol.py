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

# The JSON type of every top-level field, required or optional, checked
# wherever it appears: (description, test). Ids and epochs are integers,
# never booleans; json.loads gives exact built-in types, so `type() is` works.
_INTEGER = ("an integer", lambda v: type(v) is int)
_NUMBER = ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v))
_STRING = ("a string", lambda v: type(v) is str)
_INTEGERS = ("a list of integers", lambda v: type(v) is list and all(type(x) is int for x in v))
_STRINGS = ("a list of strings", lambda v: type(v) is list and all(type(x) is str for x in v))
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
    "name": _STRING,
    "reason": _STRING,
    "role": _STRING,
    "error": _STRING,
    "rooms": _INTEGERS,
    "reflectors": _INTEGERS,
    "tree_neighbors": _INTEGERS,
    "recipients": _STRINGS,
    "ok": ("a boolean", lambda v: type(v) is bool),
    "snapshot": ("an object", lambda v: type(v) is dict),
    "room_egress": (
        "an object of integer lists keyed by room id",
        lambda v: type(v) is dict
        and all(room.isdecimal() and _INTEGERS[1](peers) for room, peers in v.items()),
    ),
}


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
    for name, value in msg.items():
        expected, valid = FIELD_TYPES.get(name, (None, None))
        if valid is not None and not valid(value):
            raise SchemaError(
                "field %s: expected %s, got %s" % (name, expected, type(value).__name__))
    if kind == "event":
        for name in EVENT_FIELDS.get(msg["event"], ()):
            if name not in msg:
                raise SchemaError("field %s: required for event %r" % (name, msg["event"]))
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
    return MetricSample(
        reflector=msg["reflector"], name=msg["name"], value=msg["value"], at=msg["at"]
    )


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
    try:
        reflectors = tuple(
            RegistryEntry(
                reflector=e["id"],
                control_address=e["address"],
                region=e.get("region", ""),
                registered_at=e.get("registered_at", 0.0),
                last_heartbeat=e.get("last_heartbeat", 0.0),
            )
            for e in doc["reflectors"]
        )
        links = tuple(
            LinkRecord(
                stats=LinkStats(
                    link=(l["a"], l["b"]),
                    rtt_ms=l["rtt_ms"],
                    loss_fraction=l["loss"],
                    capacity_kbps=l["capacity_kbps"],
                    sampled_at=l.get("sampled_at", 0.0),
                ),
                quality=QualityFactor(link=(l["a"], l["b"]), q=l["quality"]),
            )
            for l in doc.get("links", ())
        )
        flow_doc = doc.get("flow")
        flow = None
        if flow_doc is not None:
            flow = FlowSummary(
                source=flow_doc["source"],
                sink=flow_doc["sink"],
                value=flow_doc["value"],
                edges=frozenset(tuple(e) for e in flow_doc.get("edges", ())),
            )
        return TopologySnapshot(
            epoch=doc["epoch"],
            reflectors=reflectors,
            links=links,
            tree_edges=frozenset(tuple(e) for e in doc.get("tree_edges", ())),
            room_members={
                int(room): frozenset(members)
                for room, members in doc.get("room_members", {}).items()
            },
            flow=flow,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("malformed snapshot document: %s" % exc) from None
