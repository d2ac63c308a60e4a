"""Topology exports: Graphviz DOT and canonical JSON of a TopologySnapshot.

The DOT view renders every live reflector as a node and every usable link
as an edge: distribution-tree edges bold, edges carrying positive gateway
flow dark and thick, everything else gray. Output ordering is fully
deterministic (sorted ids), so exports are golden-file testable. Snapshot
documents are read only through ``protocol.snapshot_from_dict``, so a file
and a live registry reply are checked the same way, and the same state
renders to byte-identical documents from either.
"""
from __future__ import annotations

import json

from .errors import SchemaError
from .protocol import snapshot_from_dict, snapshot_to_dict
from .registry import TopologySnapshot


def snapshot_to_json(snapshot: TopologySnapshot) -> str:
    return json.dumps(snapshot_to_dict(snapshot), indent=2, sort_keys=True) + "\n"


def snapshot_to_dot(snapshot: TopologySnapshot) -> str:
    flow_edges = snapshot.flow.edges if snapshot.flow is not None else frozenset()
    lines = ["graph overlay {"]
    lines.append('  label="epoch %d";' % snapshot.epoch)
    lines.append("  labelloc=t;")
    lines.append("  node [shape=ellipse];")
    for entry in sorted(snapshot.reflectors, key=lambda e: e.reflector):
        rid = entry.reflector
        label = "R%d (%s)" % (rid, entry.region) if entry.region else "R%d" % rid
        lines.append('  R%d [label="%s"];' % (rid, label))
    for record in sorted(snapshot.links, key=lambda r: r.stats.link):
        key = record.stats.link
        attrs = []
        if key in snapshot.tree_edges:
            attrs.append("style=bold")
        if key in flow_edges:
            attrs.append("color=black")
            attrs.append("penwidth=2")
        if key not in snapshot.tree_edges and key not in flow_edges:
            attrs.append("color=gray")
        attrs.append('label="q=%.3f"' % record.quality.q)
        lines.append("  R%d -- R%d [%s];" % (key[0], key[1], ", ".join(attrs)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_snapshot(text: str) -> TopologySnapshot:
    """The snapshot in a file's text: a bare export or a protocol envelope."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("snapshot is not valid JSON: %s" % exc.msg) from None
    if isinstance(doc, dict) and doc.get("kind") == "snapshot":
        doc = doc.get("snapshot")
    return snapshot_from_dict(doc)
