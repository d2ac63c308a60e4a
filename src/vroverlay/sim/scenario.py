"""Scenario documents: validation and typed loading.

A scenario is a JSON document describing the starting topology (reflectors,
links, clients, rooms), an optional gateway pair for flow diagnostics,
config overrides, optional end-of-run expectations, and a time-sorted event
script. It is validated in one pass: each object is checked against the
rules table of its kind, then come the checks that need the whole document
(references, duplicate ids, event order). Each failure is a SchemaError
naming the field by its path, such as `rooms[0].members[1]`. Identical
(scenario, seed) pairs always replay to identical traces.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from ..config import OverlayConfig, apply_overrides
from ..errors import ConfigError, SchemaError
from ..model import PayloadType, link_key

_PAYLOAD_TYPES = {
    "opaque": PayloadType.OPAQUE,
    "video": PayloadType.VIDEO_H261,
    "audio": PayloadType.AUDIO_G711U,
}


@dataclass(frozen=True)
class ReflectorSpec:
    id: int
    region: str = ""


@dataclass(frozen=True)
class LinkSpec:
    a: int
    b: int
    latency_ms: float = 10.0
    loss: float = 0.0
    bandwidth_kbps: float = 10_000.0


@dataclass(frozen=True)
class ClientSpec:
    id: int
    reflector: int


@dataclass(frozen=True)
class RoomSpec:
    id: int
    members: tuple


@dataclass(frozen=True)
class KillReflector:
    t: float
    reflector: int


@dataclass(frozen=True)
class RestartOutcomes:
    """Scripts the success/failure of the next restart attempts on a reflector."""

    t: float
    reflector: int
    outcomes: tuple


@dataclass(frozen=True)
class SetLink:
    t: float
    a: int
    b: int
    params: tuple  # ((name, value), ...) applied in order


@dataclass(frozen=True)
class InjectTraffic:
    t: float
    room: int
    src: int
    count: int = 1
    interval_ms: float = 100.0
    payload_bytes: int = 76
    payload_type: PayloadType = PayloadType.OPAQUE


@dataclass(frozen=True)
class Partition:
    """Isolate a set of reflectors from the rest of the overlay.

    Their links go down and they become unreachable from the control plane;
    a later partition event with a smaller (or empty) set heals the rest.
    """

    t: float
    isolated: frozenset


@dataclass
class Scenario:
    name: str
    seed: int
    duration_ms: float
    reflectors: list
    links: list
    clients: list
    rooms: list
    gateway_pair: Optional[tuple] = None
    config: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    events: list = field(default_factory=list)

    def reflector_ids(self) -> set:
        return {r.id for r in self.reflectors}


def _rule(expected: str, test, each=None):
    """A field rule: the value must pass `test`, and each of its entries `each`."""
    def check(value, path: str) -> None:
        if not test(value):
            raise SchemaError("field %s: expected %s, got %r" % (path, expected, value))
        for i, entry in enumerate(value if each else ()):
            each(entry, "%s[%d]" % (path, i))
    return check


def _list(each=None, expected="a list", test=lambda v: True):
    """A field rule for a list (that passes `test`) whose entries pass `each`."""
    return _rule(expected, lambda v: type(v) is list and test(v), each)


def _object(rules: dict, *required: str):
    return lambda value, path: _check(value, path, rules, required)


def _check(spec, where: str, rules: dict, required=()) -> None:
    """Reject a spec that is not an object or has an unknown, missing or bad field."""
    if type(spec) is not dict:
        raise SchemaError("field %s: expected an object, got %r" % (where or "<root>", spec))
    at = where + ".%s" if where else "%s"
    for name in required:
        if name not in spec:
            raise SchemaError("field %s: required field missing" % (at % name))
    for name, value in spec.items():
        if name in rules:
            rules[name](value, at % name)
    for name in spec:  # after the known fields, so that an unknown action is named first
        if name not in rules:
            raise SchemaError("field %s: unexpected field" % (at % name))


# Types are exact: a bool is not a number, 1.0 is not an integer, numbers are finite as in JSON.
_NUMBER = (int, float)
_ID = _rule("an integer in 1..4294967295", lambda v: type(v) is int and 1 <= v <= 0xFFFFFFFF)
_REF = _rule("an integer >= 1", lambda v: type(v) is int and v >= 1)
_COUNT = _rule("an integer >= 0", lambda v: type(v) is int and v >= 0)
_AT_LEAST_0 = _rule("a finite number >= 0", lambda v: type(v) in _NUMBER and 0 <= v < math.inf)
_ABOVE_0 = _rule("a finite number > 0", lambda v: type(v) in _NUMBER and 0 < v < math.inf)
_BOOL = _rule("true or false", lambda v: type(v) is bool)

_LINK = {"a": _REF, "b": _REF, "latency_ms": _AT_LEAST_0, "bandwidth_kbps": _ABOVE_0,
         "loss": _rule("a number in 0..1", lambda v: type(v) in _NUMBER and 0 <= v <= 1)}
_ACTIONS = {  # action -> (rules besides _EVENT's, required fields besides t and action)
    "kill_reflector": ({"reflector": _REF}, ("reflector",)),
    "restart_outcomes": ({"reflector": _REF, "outcomes": _list(_BOOL)}, ("reflector", "outcomes")),
    "set_link": ({**_LINK, "up": _BOOL}, ("a", "b")),
    "inject": ({"room": _REF, "src": _REF, "count": _REF, "interval_ms": _AT_LEAST_0,
                "payload_bytes": _rule("an integer in 0..65535",
                                       lambda v: type(v) is int and 0 <= v <= 65535),
                "payload_type": _rule("one of " + ", ".join(_PAYLOAD_TYPES),
                                      lambda v: type(v) is str and v in _PAYLOAD_TYPES)},
               ("room", "src")),
    "partition": ({"isolated": _list(_REF)}, ("isolated",)),
}
_EVENT = {"t": _AT_LEAST_0, "action": _rule("one of " + ", ".join(_ACTIONS),
                                            lambda v: type(v) is str and v in _ACTIONS)}
_SET_LINK_PARAMS = {"latency_ms": "latency_ms", "loss": "loss_probability",
                    "bandwidth_kbps": "bandwidth_kbps", "up": "up"}


def _event(spec, path: str) -> None:
    """Check an event by the rules of its action, or only `t` and `action` if that is unknown."""
    action = spec.get("action") if type(spec) is dict else None
    rules, required = _ACTIONS[action] if type(action) is str and action in _ACTIONS else ({}, ())
    _check(spec, path, {**_EVENT, **rules}, ("t", "action") + required)


_TOP = {
    "name": _rule("a non-empty string", lambda v: type(v) is str and v != ""),
    "seed": _rule("an integer", lambda v: type(v) is int),
    "duration_ms": _ABOVE_0,
    "reflectors": _list(_object({"id": _ID, "region": _rule("a string", lambda v: type(v) is str)},
                                "id"), "a non-empty list", bool),
    "links": _list(_object(_LINK, "a", "b")),
    "clients": _list(_object({"id": _ID, "reflector": _REF}, "id", "reflector")),
    "rooms": _list(_object({"id": _ID, "members": _list(_REF)}, "id", "members")),
    "gateway_pair": _list(_REF, "a list of 2", lambda v: len(v) == 2),
    "config": _rule("an object", lambda v: type(v) is dict),
    "expect": _object({"exactly_once": _BOOL, "notifications": _COUNT,
                       "min_routing_epochs": _COUNT, "max_routing_epochs": _COUNT}),
    "events": _list(_event),
}


def load_scenario_file(path: str, seed_override: Optional[int] = None) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError("cannot read scenario %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(
            "%s is not valid JSON: line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
    return load_scenario(doc, seed_override)


def load_scenario(doc: dict, seed_override: Optional[int] = None) -> Scenario:
    """Validate a scenario document and build the typed Scenario."""
    _check(doc, "", _TOP, ("name", "duration_ms", "reflectors"))

    reflectors = [ReflectorSpec(**spec) for spec in doc["reflectors"]]
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
        links.append(LinkSpec(**dict(spec, a=key[0], b=key[1])))

    clients = []
    cids = set()
    for i, spec in enumerate(doc.get("clients", ())):
        where = "clients[%d]" % i
        if spec["id"] in cids:
            raise SchemaError("field %s.id: duplicate client %d" % (where, spec["id"]))
        if spec["reflector"] not in rids:
            raise SchemaError("field %s.reflector: unknown reflector %d" % (where, spec["reflector"]))
        cids.add(spec["id"])
        clients.append(ClientSpec(**spec))

    rooms = []
    room_members: dict = {}
    for i, spec in enumerate(doc.get("rooms", ())):
        where = "rooms[%d]" % i
        if spec["id"] in room_members:
            raise SchemaError("field %s.id: duplicate room %d" % (where, spec["id"]))
        for j, c in enumerate(spec["members"]):
            if c not in cids:
                raise SchemaError("field %s.members[%d]: unknown client %d" % (where, j, c))
        if len(set(spec["members"])) != len(spec["members"]):
            raise SchemaError("field %s.members: duplicate client" % where)
        rooms.append(RoomSpec(spec["id"], tuple(spec["members"])))
        room_members[spec["id"]] = set(spec["members"])

    gateway = None
    if "gateway_pair" in doc:
        g = doc["gateway_pair"]
        if g[0] == g[1] or g[0] not in rids or g[1] not in rids:
            raise SchemaError("field gateway_pair: must name two distinct reflectors")
        gateway = tuple(g)
    _check_config(doc.get("config", {}), "gateway_pair" in doc, rids)

    events = []
    last_t = -1.0
    for i, spec in enumerate(doc.get("events", ())):
        where = "events[%d]" % i
        t = spec["t"]
        if t < last_t:
            raise SchemaError("field %s.t: events must be sorted by time" % where)
        last_t = t
        events.append(_parse_event(spec, where, rids, room_members, seen_links))

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


def _check_config(config: dict, top_level_gateway: bool, rids: set) -> None:
    """Apply the overrides to a default OverlayConfig, as the simulator will."""
    overlay = OverlayConfig()
    for key, value in config.items():
        try:
            overlay = apply_overrides(overlay, {key: value})
        except ConfigError as exc:
            raise SchemaError("field config.%s: %s" % (key, exc)) from None
    if "gateway_pair" in config:
        if top_level_gateway:
            raise SchemaError("field config.gateway_pair: the gateway pair is also set "
                              "at top level")
        for rid in overlay.gateway_pair or ():
            if rid not in rids:
                raise SchemaError("field config.gateway_pair: unknown reflector %d" % rid)


def _parse_event(spec, where, rids, room_members, seen_links):
    """Build one event whose fields `_check` has passed; check its references."""
    t = float(spec["t"])
    action = spec["action"]
    if action in ("kill_reflector", "restart_outcomes"):
        rid = spec["reflector"]
        if rid not in rids:
            raise SchemaError("field %s.reflector: unknown reflector %d" % (where, rid))
        if action == "kill_reflector":
            return KillReflector(t, rid)
        return RestartOutcomes(t, rid, tuple(spec["outcomes"]))
    if action == "set_link":
        a, b = spec["a"], spec["b"]
        if a == b or link_key(a, b) not in seen_links:
            raise SchemaError("field %s: no such link (%s, %s)" % (where, a, b))
        params = tuple((attr, spec[key]) for key, attr in _SET_LINK_PARAMS.items() if key in spec)
        if not params:
            raise SchemaError("field %s: set_link changes nothing" % where)
        return SetLink(t, *link_key(a, b), params=params)
    if action == "inject":
        room, src = spec["room"], spec["src"]
        if room not in room_members:
            raise SchemaError("field %s.room: unknown room %d" % (where, room))
        if src not in room_members[room]:
            raise SchemaError("field %s.src: client %d is not in room %d" % (where, src, room))
        fields = {name: spec[name] for name in ("count", "payload_bytes") if name in spec}
        if "interval_ms" in spec:
            fields["interval_ms"] = float(spec["interval_ms"])
        if "payload_type" in spec:
            fields["payload_type"] = _PAYLOAD_TYPES[spec["payload_type"]]
        return InjectTraffic(t, room, src, **fields)  # absent fields keep the class defaults
    for i, rid in enumerate(spec["isolated"]):  # partition
        if rid not in rids:
            raise SchemaError("field %s.isolated[%d]: unknown reflector %d" % (where, i, rid))
    return Partition(t, frozenset(spec["isolated"]))
