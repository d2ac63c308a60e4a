"""Scenario documents: validation and typed loading.

A scenario is a JSON document describing the starting topology (reflectors,
links, clients, rooms), an optional gateway pair for flow diagnostics,
config overrides, optional end-of-run expectations, and a time-sorted event
script. It is validated in two passes: each object is checked against the
rules table of its kind, then come the checks that need the whole document
(references, duplicate ids, event order). Each failure is a SchemaError
naming the field by its path, such as `rooms[0].members[1]`. A path is
built only for the field that fails: a failed rule raises a fault with its
message, and each list entry and object field it leaves adds itself to the
front of the path. Identical (scenario, seed) pairs always replay to
identical traces.
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


class _Fault(Exception):
    """A failed rule check; each enclosing entry and field adds itself to the front of `path`."""

    def __init__(self, message: str, path: str = ""):
        self.message, self.path = message, path


def _rule(expected: str, test, each=None):
    """A field rule: the value must pass `test`, and each of its entries `each`."""
    def check(value) -> None:
        if not test(value):
            raise _Fault("expected %s, got %r" % (expected, value))
        if each:
            try:
                for i, entry in enumerate(value):
                    each(entry)
            except _Fault as fault:
                fault.path = "[%d]%s" % (i, fault.path)
                raise
    return check


def _list(each=None, expected="a list", test=lambda v: True):
    """A field rule for a list (that passes `test`) whose entries pass `each`."""
    return _rule(expected, lambda v: type(v) is list and test(v), each)


def _object(rules: dict, *required: str):
    return lambda value: _check(value, rules, required)


def _check(spec, rules: dict, required=()) -> None:
    """Reject a spec that is not an object or has an unknown, missing or bad field."""
    if type(spec) is not dict:
        raise _Fault("expected an object, got %r" % (spec,))
    for name in required:
        if name not in spec:
            raise _Fault("required field missing", ".%s" % name)
    known = 0
    try:
        for name, value in spec.items():
            if name in rules:
                known += 1
                rules[name](value)
    except _Fault as fault:
        fault.path = ".%s%s" % (name, fault.path)
        raise
    if known < len(spec):  # after the known fields, so that an unknown action is named first
        for name in spec:
            if name not in rules:
                raise _Fault("unexpected field", ".%s" % name)


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
_EVENT_RULES = {action: ({**_EVENT, **rules}, ("t", "action") + required)
                for action, (rules, required) in _ACTIONS.items()}
_SET_LINK_PARAMS = {"latency_ms": "latency_ms", "loss": "loss_probability",
                    "bandwidth_kbps": "bandwidth_kbps", "up": "up"}


def _event(spec) -> None:
    """Check an event by the rules of its action, or only `t` and `action` if that is unknown."""
    action = spec.get("action") if type(spec) is dict else None
    rules, required = (_EVENT_RULES[action] if type(action) is str and action in _EVENT_RULES
                       else (_EVENT, ("t", "action")))
    _check(spec, rules, required)


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
    try:
        _check(doc, _TOP, ("name", "duration_ms", "reflectors"))
    except _Fault as fault:  # every path below the document starts with "."
        raise SchemaError("field %s: %s" % (fault.path[1:] or "<root>", fault.message)) from None

    reflectors = [ReflectorSpec(**spec) for spec in doc["reflectors"]]
    rids = {r.id for r in reflectors}
    if len(rids) != len(reflectors):
        raise SchemaError("field reflectors: duplicate reflector ids")

    links = []
    seen_links = set()
    for i, spec in enumerate(doc.get("links", ())):
        if spec["a"] == spec["b"]:
            raise SchemaError("field links[%d]: endpoints must differ" % i)
        for end in ("a", "b"):
            if spec[end] not in rids:
                raise SchemaError("field links[%d].%s: unknown reflector %d" % (i, end, spec[end]))
        key = link_key(spec["a"], spec["b"])
        if key in seen_links:
            raise SchemaError("field links[%d]: duplicate link %s" % (i, key))
        seen_links.add(key)
        links.append(LinkSpec(**dict(spec, a=key[0], b=key[1])))

    clients = []
    cids = set()
    for i, spec in enumerate(doc.get("clients", ())):
        if spec["id"] in cids:
            raise SchemaError("field clients[%d].id: duplicate client %d" % (i, spec["id"]))
        if spec["reflector"] not in rids:
            raise SchemaError("field clients[%d].reflector: unknown reflector %d"
                              % (i, spec["reflector"]))
        cids.add(spec["id"])
        clients.append(ClientSpec(**spec))

    rooms = []
    room_members: dict = {}
    for i, spec in enumerate(doc.get("rooms", ())):
        if spec["id"] in room_members:
            raise SchemaError("field rooms[%d].id: duplicate room %d" % (i, spec["id"]))
        for j, c in enumerate(spec["members"]):
            if c not in cids:
                raise SchemaError("field rooms[%d].members[%d]: unknown client %d" % (i, j, c))
        if len(set(spec["members"])) != len(spec["members"]):
            raise SchemaError("field rooms[%d].members: duplicate client" % i)
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
        t = spec["t"]
        if t < last_t:
            raise SchemaError("field events[%d].t: events must be sorted by time" % i)
        last_t = t
        events.append(_parse_event(spec, i, rids, room_members, seen_links))

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


# Keys only the daemons read: in a scenario they would be accepted and do nothing.
_DAEMON_ONLY = ("listen", "registry_address", "reflector_id", "region", "subscriber_queue",
                "probe_deadline_ms")


def _check_config(config: dict, top_level_gateway: bool, rids: set) -> None:
    """Apply the overrides to a default OverlayConfig, as the simulator will."""
    overlay = OverlayConfig()
    for key, value in config.items():
        if key in _DAEMON_ONLY:
            raise SchemaError("field config.%s: only the daemons read this key" % key)
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


def _parse_event(spec, i, rids, room_members, seen_links):
    """Build event `i`, whose fields `_check` has passed; check its references."""
    t = float(spec["t"])
    action = spec["action"]
    if action in ("kill_reflector", "restart_outcomes"):
        rid = spec["reflector"]
        if rid not in rids:
            raise SchemaError("field events[%d].reflector: unknown reflector %d" % (i, rid))
        if action == "kill_reflector":
            return KillReflector(t, rid)
        return RestartOutcomes(t, rid, tuple(spec["outcomes"]))
    if action == "set_link":
        a, b = spec["a"], spec["b"]
        if a == b or link_key(a, b) not in seen_links:
            raise SchemaError("field events[%d]: no such link (%s, %s)" % (i, a, b))
        params = tuple((attr, spec[key]) for key, attr in _SET_LINK_PARAMS.items() if key in spec)
        if not params:
            raise SchemaError("field events[%d]: set_link changes nothing" % i)
        return SetLink(t, *link_key(a, b), params=params)
    if action == "inject":
        room, src = spec["room"], spec["src"]
        if room not in room_members:
            raise SchemaError("field events[%d].room: unknown room %d" % (i, room))
        if src not in room_members[room]:
            raise SchemaError("field events[%d].src: client %d is not in room %d"
                              % (i, src, room))
        fields = {name: spec[name] for name in ("count", "payload_bytes") if name in spec}
        if "interval_ms" in spec:
            fields["interval_ms"] = float(spec["interval_ms"])
        if "payload_type" in spec:
            fields["payload_type"] = _PAYLOAD_TYPES[spec["payload_type"]]
        return InjectTraffic(t, room, src, **fields)  # absent fields keep the class defaults
    for j, rid in enumerate(spec["isolated"]):  # partition
        if rid not in rids:
            raise SchemaError("field events[%d].isolated[%d]: unknown reflector %d" % (i, j, rid))
    return Partition(t, frozenset(spec["isolated"]))
