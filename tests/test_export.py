"""Topology export: DOT goldens, JSON round-trips, offline/online parity."""
import json

import pytest

from vroverlay.export import load_snapshot, snapshot_to_dot, snapshot_to_json
from vroverlay.errors import SchemaError
from vroverlay.model import LinkStats
from vroverlay.optimizer import EdgeAttrs, WeightedGraph, max_flow
from vroverlay.protocol import snapshot_to_dict
from vroverlay.quality import QualityFactor
from vroverlay.registry import FlowSummary, LinkRecord, RegistryEntry, TopologySnapshot


def entry(rid, region=""):
    return RegistryEntry(rid, "tcp://10.0.0.%d:7000" % rid, region, 0.0, 0.0)


def link(a, b, q=0.95, cap=1000.0):
    return LinkRecord(
        stats=LinkStats((a, b), rtt_ms=10.0, loss_fraction=0.0,
                        capacity_kbps=cap, sampled_at=0.0),
        quality=QualityFactor(link=(a, b), q=q, sample_count=1),
    )


def test_two_node_dot_golden():
    snap = TopologySnapshot(
        epoch=3,
        reflectors=(entry(1, "EU"), entry(2, "US")),
        links=(link(1, 2),),
        tree_edges=frozenset({(1, 2)}),
        room_members={},
    )
    expected = (
        "graph overlay {\n"
        '  label="epoch 3";\n'
        "  labelloc=t;\n"
        "  node [shape=ellipse];\n"
        '  R1 [label="R1 (EU)"];\n'
        '  R2 [label="R2 (US)"];\n'
        '  R1 -- R2 [style=bold, label="q=0.950"];\n'
        "}\n"
    )
    assert snapshot_to_dot(snap) == expected


def test_triangle_flow_edges_rendered_dark():
    # Max flow on the unit triangle saturates both s-a-t and s-t; the
    # DOT export must mark every positive-flow edge dark and thick.
    g = WeightedGraph(
        vertices=frozenset({1, 2, 3}),
        edges={
            (1, 2): EdgeAttrs(0.1, 1.0),
            (2, 3): EdgeAttrs(0.1, 1.0),
            (1, 3): EdgeAttrs(0.2, 1.0),
        },
    )
    flow = max_flow(g, 1, 3)
    assert flow.value == pytest.approx(2.0)
    snap = TopologySnapshot(
        epoch=9,
        reflectors=(entry(1), entry(2), entry(3)),
        links=(link(1, 2, q=0.9), link(1, 3, q=0.8), link(2, 3, q=0.9)),
        tree_edges=frozenset({(1, 2), (2, 3)}),
        room_members={},
        flow=FlowSummary(source=1, sink=3, value=flow.value,
                         edges=flow.positive_flow_edges()),
    )
    dot = snapshot_to_dot(snap)
    assert 'R1 -- R2 [style=bold, color=black, penwidth=2, label="q=0.900"];' in dot
    assert 'R1 -- R3 [color=black, penwidth=2, label="q=0.800"];' in dot
    assert 'R2 -- R3 [style=bold, color=black, penwidth=2, label="q=0.900"];' in dot


def test_non_tree_non_flow_edge_is_gray():
    snap = TopologySnapshot(
        epoch=1,
        reflectors=(entry(1), entry(2), entry(3)),
        links=(link(1, 2), link(1, 3)),
        tree_edges=frozenset({(1, 2)}),
        room_members={},
    )
    dot = snapshot_to_dot(snap)
    assert 'R1 -- R3 [color=gray, label="q=0.950"];' in dot


def test_empty_overlay_is_valid_document():
    snap = TopologySnapshot(
        epoch=0, reflectors=(), links=(), tree_edges=frozenset(), room_members={}
    )
    dot = snapshot_to_dot(snap)
    assert dot.startswith("graph overlay {")
    assert dot.endswith("}\n")
    doc = json.loads(snapshot_to_json(snap))
    assert doc["reflectors"] == []


def test_json_export_round_trips_via_loader():
    snap = TopologySnapshot(
        epoch=5,
        reflectors=(entry(1, "EU"), entry(2, "US")),
        links=(link(1, 2),),
        tree_edges=frozenset({(1, 2)}),
        room_members={4: frozenset({1, 2})},
        flow=FlowSummary(source=1, sink=2, value=950.0, edges=frozenset({(1, 2)})),
    )
    text = snapshot_to_json(snap)
    back = load_snapshot(text)
    assert snapshot_to_json(back) == text
    assert snapshot_to_dot(back) == snapshot_to_dot(snap)


def test_offline_export_accepts_protocol_envelope():
    snap = TopologySnapshot(
        epoch=2, reflectors=(entry(1),), links=(), tree_edges=frozenset(), room_members={}
    )
    envelope = json.dumps({"v": 3, "kind": "snapshot", "epoch": 2,
                           "snapshot": snapshot_to_dict(snap)})
    back = load_snapshot(envelope)
    assert back.epoch == 2
    assert snapshot_to_json(back) == snapshot_to_json(snap)


def test_loader_rejects_malformed_document():
    with pytest.raises(SchemaError):
        load_snapshot('{"epoch": 1}')
