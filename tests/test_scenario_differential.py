"""Differential test: the one-pass scenario loader against the two-pass oracle.

`scenario_oracle.load_scenario` is the loader that validated with jsonschema
and then by hand. On well-typed documents both must build equal Scenarios.
On documents with one mutation the shipped loader must build the oracle's
exact Scenario or raise a SchemaError naming a field, and nothing else.
"""
import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scenario_oracle
from vroverlay.errors import SchemaError
from vroverlay.sim import load_scenario

IDS = st.integers(1, 0xFFFFFFFF)
AT_LEAST_0 = st.one_of(st.integers(0, 10**6), st.floats(0, 1e6))
ABOVE_0 = st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e9))
LOSS = st.one_of(st.sampled_from([0, 1]), st.floats(0, 1))
MUTANTS = [None, True, 0, -1, 1.0, 0.5, 2**32, "x", [], {}]

FULL_DOC = {
    "name": "full",
    "seed": 3,
    "duration_ms": 5000,
    "reflectors": [{"id": 1, "region": "EU"}, {"id": 2, "region": "US"}, {"id": 3}],
    "links": [
        {"a": 2, "b": 1, "latency_ms": 12.5, "loss": 0.01, "bandwidth_kbps": 2000},
        {"a": 2, "b": 3},
    ],
    "clients": [{"id": 7, "reflector": 1}, {"id": 8, "reflector": 3}],
    "rooms": [{"id": 5, "members": [7, 8]}, {"id": 6, "members": []}],
    "gateway_pair": [1, 3],
    "config": {"publish_interval_ms": 500},
    "expect": {"exactly_once": True, "notifications": 1,
               "min_routing_epochs": 1, "max_routing_epochs": 4},
    "events": [
        {"t": 0, "action": "inject", "room": 5, "src": 7, "count": 3, "interval_ms": 50,
         "payload_bytes": 200, "payload_type": "video"},
        {"t": 10.5, "action": "set_link", "a": 1, "b": 2, "latency_ms": 30, "loss": 0.5,
         "bandwidth_kbps": 100.0, "up": False},
        {"t": 20, "action": "restart_outcomes", "reflector": 2, "outcomes": [False, True]},
        {"t": 30, "action": "kill_reflector", "reflector": 2},
        {"t": 40, "action": "partition", "isolated": [3, 1]},
        {"t": 40, "action": "partition", "isolated": []},
    ],
}
MINIMAL_DOC = {"name": "minimal", "duration_ms": 1, "reflectors": [{"id": 1}]}


@st.composite
def documents(draw):
    """Well-typed scenario documents; every optional field and action can appear."""

    def maybe(spec, name, strategy):
        if draw(st.booleans()):
            spec[name] = draw(strategy)
        return spec

    rids = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    doc = {
        "name": draw(st.text(min_size=1, max_size=4)),
        "duration_ms": draw(ABOVE_0),
        "reflectors": [maybe({"id": r}, "region", st.sampled_from(["", "EU", "US"]))
                       for r in rids],
    }
    maybe(doc, "seed", st.integers(-2**40, 2**40))
    maybe(doc, "config", st.dictionaries(st.sampled_from(["k_miss", "publish_interval_ms"]),
                                         st.integers(1, 10_000)))
    expect = {}
    maybe(expect, "exactly_once", st.booleans())
    for name in ("notifications", "min_routing_epochs", "max_routing_epochs"):
        maybe(expect, name, st.integers(0, 10))
    maybe(doc, "expect", st.just(expect))

    pairs = [(a, b) for a in rids for b in rids if a < b]
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    doc["links"] = []
    for a, b in links:
        spec = {"a": a, "b": b} if draw(st.booleans()) else {"a": b, "b": a}
        maybe(spec, "latency_ms", AT_LEAST_0)
        maybe(spec, "loss", LOSS)
        doc["links"].append(maybe(spec, "bandwidth_kbps", ABOVE_0))
    cids = draw(st.lists(IDS, max_size=4, unique=True))
    doc["clients"] = [{"id": c, "reflector": draw(st.sampled_from(rids))} for c in cids]
    doc["rooms"] = [
        {"id": room, "members": draw(st.lists(st.sampled_from(cids), unique=True)) if cids else []}
        for room in draw(st.lists(IDS, max_size=3, unique=True))
    ]
    if len(rids) >= 2:
        maybe(doc, "gateway_pair", st.lists(st.sampled_from(rids), min_size=2, max_size=2,
                                            unique=True))

    actions = ["kill_reflector", "restart_outcomes", "partition"]
    actions += ["set_link"] if links else []
    actions += ["inject"] if any(room["members"] for room in doc["rooms"]) else []
    doc["events"] = []
    for t in sorted(draw(st.lists(AT_LEAST_0, max_size=6))):
        action = draw(st.sampled_from(actions))
        spec = {"t": t, "action": action}
        if action in ("kill_reflector", "restart_outcomes"):
            spec["reflector"] = draw(st.sampled_from(rids))
        if action == "restart_outcomes":
            spec["outcomes"] = draw(st.lists(st.booleans(), max_size=3))
        if action == "partition":
            spec["isolated"] = draw(st.lists(st.sampled_from(rids), unique=True))
        if action == "set_link":
            a, b = draw(st.sampled_from(links))
            spec.update({"a": a, "b": b} if draw(st.booleans()) else {"a": b, "b": a})
            params = {"latency_ms": AT_LEAST_0, "loss": LOSS, "bandwidth_kbps": ABOVE_0,
                      "up": st.booleans()}
            for name in draw(st.lists(st.sampled_from(sorted(params)), min_size=1, unique=True)):
                spec[name] = draw(params[name])
        if action == "inject":
            room = draw(st.sampled_from([r for r in doc["rooms"] if r["members"]]))
            spec.update(room=room["id"], src=draw(st.sampled_from(room["members"])))
            maybe(spec, "count", st.integers(1, 5))
            maybe(spec, "interval_ms", AT_LEAST_0)
            maybe(spec, "payload_bytes", st.integers(0, 65535))
            maybe(spec, "payload_type", st.sampled_from(["audio", "opaque", "video"]))
        doc["events"].append(spec)
    return doc


def nodes(node, path=(), parent=None):
    """(path, node, parent) for the document and every value inside it."""
    yield path, node, parent
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,), node)


def mutations(doc):
    """Every single mutation of `doc`: delete a key, add an unknown key, swap a value."""
    for path, node, parent in nodes(doc):
        if isinstance(node, dict):
            yield "add", path, None
        if isinstance(parent, dict):
            yield "delete", path, None
        for value in MUTANTS:
            yield "swap", path, value


def mutate(doc, mutation):
    kind, path, value = mutation
    doc = copy.deepcopy(doc)
    if not path and kind == "swap":
        return copy.deepcopy(value)
    node = doc
    for key in path[:-1] if kind != "add" else path:
        node = node[key]
    if kind == "add":
        node["unknown_field"] = 1
    elif kind == "delete":
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return doc


def assert_identical(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)  # also tells 5 from 5.0


@settings(max_examples=100, deadline=None)
@given(documents())
@example(FULL_DOC)
def test_well_typed_documents_load_as_under_the_oracle(doc):
    assert_identical(load_scenario(doc), scenario_oracle.load_scenario(doc))


def assert_loads_as_under_the_oracle_or_names_a_field(mutant):
    try:
        expected = scenario_oracle.load_scenario(mutant)
    except Exception:  # the oracle rejected it, or crashed on it
        expected = None
    try:
        got = load_scenario(mutant)
    except SchemaError as exc:
        assert str(exc).startswith("field "), str(exc)
        return
    assert expected is not None, "loaded a document the oracle rejects"
    assert_identical(got, expected)


@settings(max_examples=300, deadline=None)
@given(documents(), st.data())
def test_mutated_documents_load_as_under_the_oracle_or_name_a_field(doc, data):
    mutation = data.draw(st.sampled_from(list(mutations(doc))))
    assert_loads_as_under_the_oracle_or_names_a_field(mutate(doc, mutation))


@pytest.mark.parametrize("doc", [FULL_DOC, MINIMAL_DOC], ids=["full", "minimal"])
def test_every_mutation_of_a_fixed_document(doc):
    for mutation in mutations(doc):
        assert_loads_as_under_the_oracle_or_names_a_field(mutate(doc, mutation))
