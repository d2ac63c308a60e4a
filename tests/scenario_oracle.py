"""Test oracle: the two-pass scenario loader that the one-pass loader replaced.

It validates in two passes: first jsonschema against `scenario.schema.json`
(next to this file), then hand-written checks of references, ordering and
per-action fields. It builds the dataclasses of `vroverlay.sim.scenario`.
The code is the loader's as it was, except that the schema is checked and
its validator built once, not on every call as `jsonschema.validate` does:
checking the schema took most of each call's time.
"""
from __future__ import annotations

import functools
import json
import os
from typing import Optional

import jsonschema

from vroverlay.errors import SchemaError
from vroverlay.model import link_key
from vroverlay.sim.scenario import (
    _PAYLOAD_TYPES,
    ClientSpec,
    InjectTraffic,
    KillReflector,
    LinkSpec,
    Partition,
    ReflectorSpec,
    RestartOutcomes,
    RoomSpec,
    Scenario,
    SetLink,
)


@functools.lru_cache(maxsize=None)
def _validator():
    path = os.path.join(os.path.dirname(__file__), "scenario.schema.json")
    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def load_scenario(doc: dict, seed_override: Optional[int] = None) -> Scenario:
    """Validate a scenario document and build the typed Scenario."""
    exc = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if exc is not None:
        path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise SchemaError("field %s: %s" % (path, exc.message)) from None

    reflectors = [ReflectorSpec(r["id"], r.get("region", "")) for r in doc["reflectors"]]
    rids = {r.id for r in reflectors}
    if len(rids) != len(reflectors):
        raise SchemaError("field reflectors: duplicate reflector ids")

    links = []
    seen_links = set()
    for i, spec in enumerate(doc.get("links", ())):
        where = "links[%d]" % i
        if spec["a"] == spec["b"]:
            raise SchemaError("field %s: endpoints must differ" % where)
        for end in ("a", "b"):
            if spec[end] not in rids:
                raise SchemaError("field %s.%s: unknown reflector %d" % (where, end, spec[end]))
        key = link_key(spec["a"], spec["b"])
        if key in seen_links:
            raise SchemaError("field %s: duplicate link %s" % (where, key))
        seen_links.add(key)
        links.append(
            LinkSpec(
                a=key[0],
                b=key[1],
                latency_ms=spec.get("latency_ms", 10.0),
                loss=spec.get("loss", 0.0),
                bandwidth_kbps=spec.get("bandwidth_kbps", 10_000.0),
            )
        )

    clients = []
    cids = set()
    for i, spec in enumerate(doc.get("clients", ())):
        where = "clients[%d]" % i
        if spec["id"] in cids:
            raise SchemaError("field %s.id: duplicate client %d" % (where, spec["id"]))
        if spec["reflector"] not in rids:
            raise SchemaError("field %s.reflector: unknown reflector %d" % (where, spec["reflector"]))
        cids.add(spec["id"])
        clients.append(ClientSpec(spec["id"], spec["reflector"]))

    rooms = []
    room_ids = set()
    room_members: dict = {}
    for i, spec in enumerate(doc.get("rooms", ())):
        where = "rooms[%d]" % i
        if spec["id"] in room_ids:
            raise SchemaError("field %s.id: duplicate room %d" % (where, spec["id"]))
        room_ids.add(spec["id"])
        for c in spec["members"]:
            if c not in cids:
                raise SchemaError("field %s.members: unknown client %d" % (where, c))
        if len(set(spec["members"])) != len(spec["members"]):
            raise SchemaError("field %s.members: duplicate client" % where)
        rooms.append(RoomSpec(spec["id"], tuple(spec["members"])))
        room_members[spec["id"]] = set(spec["members"])

    gateway = None
    if "gateway_pair" in doc:
        g = doc["gateway_pair"]
        if g[0] == g[1] or g[0] not in rids or g[1] not in rids:
            raise SchemaError("field gateway_pair: must name two distinct reflectors")
        gateway = (g[0], g[1])

    events = []
    last_t = -1.0
    for i, spec in enumerate(doc.get("events", ())):
        where = "events[%d]" % i
        t = spec["t"]
        if t < last_t:
            raise SchemaError("field %s.t: events must be sorted by time" % where)
        last_t = t
        events.append(_parse_event(spec, where, rids, cids, room_members, seen_links))

    return Scenario(
        name=doc["name"],
        seed=seed_override if seed_override is not None else doc.get("seed", 0),
        duration_ms=float(doc["duration_ms"]),
        reflectors=reflectors,
        links=links,
        clients=clients,
        rooms=rooms,
        gateway_pair=gateway,
        config=dict(doc.get("config", {})),
        expect=dict(doc.get("expect", {})),
        events=events,
    )


def _require(spec: dict, name: str, where: str):
    if name not in spec:
        raise SchemaError("field %s.%s: required for action %r" % (where, name, spec["action"]))
    return spec[name]


def _parse_event(spec, where, rids, cids, room_members, seen_links):
    t = float(spec["t"])
    action = spec["action"]
    known = {"t", "action"}
    if action == "kill_reflector":
        rid = _require(spec, "reflector", where)
        if rid not in rids:
            raise SchemaError("field %s.reflector: unknown reflector %d" % (where, rid))
        known.add("reflector")
        _reject_extras(spec, known, where)
        return KillReflector(t, rid)
    if action == "restart_outcomes":
        rid = _require(spec, "reflector", where)
        outcomes = _require(spec, "outcomes", where)
        if rid not in rids:
            raise SchemaError("field %s.reflector: unknown reflector %d" % (where, rid))
        if not isinstance(outcomes, list) or not all(isinstance(o, bool) for o in outcomes):
            raise SchemaError("field %s.outcomes: must be a list of booleans" % where)
        known.update(("reflector", "outcomes"))
        _reject_extras(spec, known, where)
        return RestartOutcomes(t, rid, tuple(outcomes))
    if action == "set_link":
        a = _require(spec, "a", where)
        b = _require(spec, "b", where)
        if a == b or link_key(a, b) not in seen_links:
            raise SchemaError("field %s: no such link (%s, %s)" % (where, a, b))
        params = []
        for name, attr in (
            ("latency_ms", "latency_ms"),
            ("loss", "loss_probability"),
            ("bandwidth_kbps", "bandwidth_kbps"),
            ("up", "up"),
        ):
            if name in spec:
                params.append((attr, spec[name]))
        if not params:
            raise SchemaError("field %s: set_link changes nothing" % where)
        known.update(("a", "b", "latency_ms", "loss", "bandwidth_kbps", "up"))
        _reject_extras(spec, known, where)
        return SetLink(t, *link_key(a, b), params=tuple(params))
    if action == "inject":
        room = _require(spec, "room", where)
        src = _require(spec, "src", where)
        if room not in room_members:
            raise SchemaError("field %s.room: unknown room %d" % (where, room))
        if src not in room_members[room]:
            raise SchemaError("field %s.src: client %d is not in room %d" % (where, src, room))
        count = spec.get("count", 1)
        if not isinstance(count, int) or count < 1:
            raise SchemaError("field %s.count: must be a positive integer" % where)
        payload_bytes = spec.get("payload_bytes", 76)
        if not isinstance(payload_bytes, int) or not 0 <= payload_bytes <= 65535:
            raise SchemaError("field %s.payload_bytes: must be in 0..65535" % where)
        ptype_name = spec.get("payload_type", "opaque")
        if ptype_name not in _PAYLOAD_TYPES:
            raise SchemaError(
                "field %s.payload_type: expected one of %s" % (where, sorted(_PAYLOAD_TYPES))
            )
        known.update(("room", "src", "count", "interval_ms", "payload_bytes", "payload_type"))
        _reject_extras(spec, known, where)
        return InjectTraffic(
            t,
            room=room,
            src=src,
            count=count,
            interval_ms=float(spec.get("interval_ms", 100.0)),
            payload_bytes=payload_bytes,
            payload_type=_PAYLOAD_TYPES[ptype_name],
        )
    if action == "partition":
        isolated = _require(spec, "isolated", where)
        if not isinstance(isolated, list):
            raise SchemaError("field %s.isolated: must be a list of reflector ids" % where)
        for rid in isolated:
            if rid not in rids:
                raise SchemaError("field %s.isolated: unknown reflector %d" % (where, rid))
        known.add("isolated")
        _reject_extras(spec, known, where)
        return Partition(t, frozenset(isolated))
    raise SchemaError("field %s.action: unknown action %r" % (where, action))


def _reject_extras(spec, known, where):
    extras = sorted(set(spec) - known)
    if extras:
        raise SchemaError("field %s.%s: unexpected field" % (where, extras[0]))
