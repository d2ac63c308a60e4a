"""Global routing optimization over the registry's reflectors and links.

Builds a weighted graph from live reflectors and usable links (weight
1 - q, capacity scaled by q), solves a minimum spanning tree for stream
distribution and max flow between gateway reflectors for backup-path
capacity, gates rerouting behind a relative-improvement threshold, and
derives per-room pruned routing tables from the installed tree.

Everything here is a pure function over immutable inputs; ties are broken
lexicographically so identical inputs always produce identical results.
"""
from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .errors import MemberOffTree, UnknownVertex
from .model import LinkKey, ReflectorId, RoomId
from .quality import DEFAULT_Q_MIN, LinkState, classify_link
from .reflector import RoutingTable


@dataclass(frozen=True)
class EdgeAttrs:
    weight: float
    capacity: float


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph over reflectors: at most one edge per pair, no self-loops."""

    vertices: frozenset
    edges: Mapping[LinkKey, EdgeAttrs]


@dataclass(frozen=True)
class TreeResult:
    """A minimum spanning forest: one tree per connected component."""

    edges: frozenset
    total_weight: float
    covers: frozenset
    components: int

    def adjacency(self) -> dict:
        adj: dict = {v: set() for v in self.covers}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


@dataclass
class FlowResult:
    """A maximum flow and the min cut certifying it.

    edge_flows is keyed by the (min, max) pair; positive flow runs from the
    smaller to the larger id. Conservation holds at every non-terminal
    vertex and |flow| never exceeds capacity.
    """

    source: ReflectorId
    sink: ReflectorId
    value: float
    edge_flows: dict
    min_cut: frozenset

    def positive_flow_edges(self) -> frozenset:
        return frozenset(k for k, f in self.edge_flows.items() if f != 0)


class Reroute(enum.Enum):
    KEEP = "keep"
    INSTALL = "install"


def build_graph(
    vertices: frozenset,
    links: Iterable,
    q_min: float = DEFAULT_Q_MIN,
) -> WeightedGraph:
    """Weighted graph of the given reflectors and their usable links.

    ``links`` are the registry's link records (latest stats plus smoothed
    quality). Edge weight is 1 - q and capacity is nominal capacity scaled
    by q, so the tree prefers clean paths and flow reflects effective
    throughput. Links classified Down (q strictly below q_min) are left out,
    and so are links with an endpoint outside ``vertices``.
    """
    edges: dict = {}
    for record in links:
        key = record.stats.link
        if key[0] not in vertices or key[1] not in vertices:
            continue
        qf = record.quality
        if classify_link(qf, q_min) is LinkState.DOWN:
            continue
        edges[key] = EdgeAttrs(
            weight=1.0 - qf.q,
            capacity=record.stats.capacity_kbps * qf.q,
        )
    return WeightedGraph(vertices=frozenset(vertices), edges=edges)


class _UnionFind:
    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def min_spanning_tree(g: WeightedGraph) -> TreeResult:
    """Kruskal's minimum spanning forest.

    Ties break on the lexicographically smaller (min, max) edge pair, so
    the result is a deterministic function of the graph.
    """
    uf = _UnionFind(g.vertices)
    chosen = []
    total = 0.0
    for key in sorted(g.edges, key=lambda k: (g.edges[k].weight, k)):
        if uf.union(*key):
            chosen.append(key)
            total += g.edges[key].weight
    components = len({uf.find(v) for v in g.vertices})
    return TreeResult(
        edges=frozenset(chosen),
        total_weight=total,
        covers=g.vertices,
        components=components,
    )


def reweigh_tree(tree: TreeResult, g: WeightedGraph) -> tuple:
    """Re-evaluate an installed tree against current edge weights.

    Returns (TreeResult with updated total_weight, set of tree edges no
    longer present in the graph). Missing edges contribute no weight; their
    presence alone forces a reroute.
    """
    dead = frozenset(e for e in tree.edges if e not in g.edges)
    total = sum(g.edges[e].weight for e in tree.edges if e in g.edges)
    return replace(tree, total_weight=total), dead


def max_flow(g: WeightedGraph, source: ReflectorId, sink: ReflectorId) -> FlowResult:
    """Maximum flow between two reflectors under quality-scaled capacities.

    Shortest augmenting paths (BFS) with neighbors explored in ascending id
    order, so the flow decomposition is deterministic. The min cut is read
    off the final residual graph and certifies the value.
    """
    if source not in g.vertices:
        raise UnknownVertex("source %r not in graph" % (source,))
    if sink not in g.vertices:
        raise UnknownVertex("sink %r not in graph" % (sink,))
    if source == sink:
        raise UnknownVertex("source and sink must differ")

    residual: dict = {v: {} for v in g.vertices}
    for (a, b), attrs in g.edges.items():
        residual[a][b] = attrs.capacity
        residual[b][a] = attrs.capacity
    # Neighbours in ascending id order, once: only capacities change below.
    residual = {u: dict(sorted(nbrs.items())) for u, nbrs in residual.items()}

    def bfs_path():
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:  # the sink's path is fixed once it has a parent
            u = queue.popleft()
            for v, capacity in residual[u].items():
                if v not in parent and capacity > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return None
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    value = 0.0
    while True:
        path = bfs_path()
        if path is None:
            break
        bottleneck = min(residual[u][v] for u, v in zip(path, path[1:]))
        for u, v in zip(path, path[1:]):
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        value += bottleneck

    # Net flow per undirected edge, oriented from the smaller endpoint.
    edge_flows = {}
    for (a, b), attrs in g.edges.items():
        edge_flows[(a, b)] = (residual[b][a] - residual[a][b]) / 2.0

    reachable = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, capacity in residual[u].items():
            if v not in reachable and capacity > 0:
                reachable.add(v)
                queue.append(v)
    min_cut = frozenset(
        key for key in g.edges if (key[0] in reachable) != (key[1] in reachable)
    )
    return FlowResult(
        source=source,
        sink=sink,
        value=value,
        edge_flows=edge_flows,
        min_cut=min_cut,
    )


DEFAULT_REROUTE_DELTA = 0.05


def should_reroute(
    current: TreeResult,
    candidate: TreeResult,
    delta: float = DEFAULT_REROUTE_DELTA,
    dead_edges: frozenset = frozenset(),
) -> Reroute:
    """Anti-flap gate for installing a new tree.

    Install only when the current tree uses a dead edge, or the candidate
    improves total weight by more than the relative threshold ``delta``.
    """
    if current.edges & frozenset(dead_edges):
        return Reroute.INSTALL
    if candidate.total_weight < current.total_weight * (1.0 - delta):
        return Reroute.INSTALL
    return Reroute.KEEP


def compute_room_routes(
    tree: TreeResult,
    room_members: Mapping[RoomId, Iterable[ReflectorId]],
    epoch: int,
) -> dict:
    """Per-reflector routing tables realizing each room's minimal subtree.

    For every room, the pruned egress sets span exactly the union of
    pairwise tree paths between the reflectors hosting that room; a packet
    therefore reaches each hosting reflector once and touches nothing else.
    Each component is rooted once, breadth-first from its smallest id; then
    a room's hosts walk upward, deepest first, until their paths merge, so
    a room costs its subtree's size times a log, not the forest's size.
    """
    adjacency = {v: frozenset(n) for v, n in tree.adjacency().items()}
    parent: dict = {}
    component: dict = {}
    # Breadth-first, one component after another: a parent ranks below its
    # children, and each component's ranks are contiguous.
    order: list = []
    for root in sorted(tree.covers):
        if root in component:
            continue
        parent[root], component[root] = None, root
        reached = [root]
        for u in reached:  # grows while it is walked
            for w in adjacency[u]:
                if w not in component:
                    parent[w], component[w] = u, root
                    reached.append(w)
        order.extend(reached)
    rank = {v: i for i, v in enumerate(order)}

    room_egress: dict = {v: {} for v in tree.covers}
    shared: dict = {}  # egress sets repeat across rooms: keep one object per set
    for room in sorted(room_members):
        kept = set(room_members[room])
        if not kept <= tree.covers:
            raise MemberOffTree("room %d members %s are not covered by the tree"
                                % (room, sorted(kept - tree.covers)))
        frontier = [-rank[v] for v in kept]
        heapq.heapify(frontier)
        while frontier:
            v = order[-heapq.heappop(frontier)]
            if not frontier or component[order[-frontier[0]]] != component[v]:
                continue  # v is the top of its component's subtree
            if parent[v] not in kept:  # else two member paths merge at the parent
                kept.add(parent[v])
                heapq.heappush(frontier, -rank[parent[v]])
        # Per component the kept vertices form a subtree, so its edges are
        # exactly the tree edges between kept vertices.
        for v in kept:
            egress = adjacency[v] & kept
            room_egress[v][room] = shared.setdefault(egress, egress)
    return {
        v: RoutingTable(epoch=epoch, tree_neighbors=adjacency[v], room_egress=room_egress[v])
        for v in sorted(tree.covers)
    }
