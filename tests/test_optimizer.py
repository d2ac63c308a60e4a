"""Optimizer: MST and max-flow against brute-force oracles, gating, room routes."""
import itertools
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vroverlay.errors import MemberOffTree, UnknownVertex
from vroverlay.model import LinkStats
from vroverlay.optimizer import (
    EdgeAttrs,
    Reroute,
    TreeResult,
    WeightedGraph,
    build_graph,
    compute_room_routes,
    max_flow,
    min_spanning_tree,
    reweigh_tree,
    should_reroute,
)
from vroverlay.quality import QualityFactor
from vroverlay.reflector import RoutingTable
from vroverlay.registry import LinkRecord


def graph_of(vertices, edges):
    return WeightedGraph(
        vertices=frozenset(vertices),
        edges={tuple(sorted(k)): EdgeAttrs(w, c) for k, (w, c) in edges.items()},
    )


# --- brute-force oracles ---

def count_components(vertices, edge_keys):
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_keys:
        parent[find(a)] = find(b)
    return len({find(v) for v in vertices})


def is_acyclic(vertices, edge_keys):
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_keys:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
    return True


def brute_force_msf_weight(g):
    """Minimum spanning forest weight by exhaustive subset enumeration."""
    vertices = sorted(g.vertices)
    keys = sorted(g.edges)
    target = len(vertices) - count_components(vertices, keys)
    if target == 0:
        return 0.0
    best = None
    for subset in itertools.combinations(keys, target):
        if is_acyclic(vertices, subset):
            w = sum(g.edges[k].weight for k in subset)
            if best is None or w < best:
                best = w
    return best


def brute_force_min_cut(g, s, t):
    """Minimum s-t cut capacity by enumerating all vertex bipartitions."""
    others = sorted(g.vertices - {s, t})
    best = None
    for mask in range(2 ** len(others)):
        side_s = {s} | {v for i, v in enumerate(others) if mask >> i & 1}
        cut = sum(
            attrs.capacity
            for (a, b), attrs in g.edges.items()
            if (a in side_s) != (b in side_s)
        )
        if best is None or cut < best:
            best = cut
    return best


def random_graph(rng, max_vertices=8, max_edges=12, integer_caps=False):
    n = rng.randrange(2, max_vertices + 1)
    vertices = list(range(1, n + 1))
    all_pairs = list(itertools.combinations(vertices, 2))
    rng.shuffle(all_pairs)
    m = rng.randrange(0, min(max_edges, len(all_pairs)) + 1)
    edges = {}
    for pair in all_pairs[:m]:
        weight = rng.randrange(0, 20) / 10.0
        cap = float(rng.randrange(0, 11)) if integer_caps else rng.random() * 10
        edges[pair] = EdgeAttrs(weight, cap)
    return WeightedGraph(vertices=frozenset(vertices), edges=edges)


# --- MST ---

def test_mst_triangle_worked_example():
    # Brute force over the 3 spanning trees: {AB,BC}=3, {AB,AC}=4, {BC,AC}=5.
    g = graph_of([1, 2, 3], {(1, 2): (1.0, 0), (2, 3): (2.0, 0), (1, 3): (3.0, 0)})
    tree = min_spanning_tree(g)
    assert tree.edges == frozenset({(1, 2), (2, 3)})
    assert tree.total_weight == pytest.approx(3.0)
    assert tree.components == 1


def test_mst_equal_weights_lexicographic_tiebreak():
    g = graph_of([1, 2, 3], {(1, 2): (1.0, 0), (2, 3): (1.0, 0), (1, 3): (1.0, 0)})
    tree = min_spanning_tree(g)
    assert tree.edges == frozenset({(1, 2), (1, 3)})


def test_mst_disconnected_graph_spans_forest():
    g = graph_of([1, 2, 3, 4], {(1, 2): (1.0, 0), (3, 4): (2.0, 0)})
    tree = min_spanning_tree(g)
    assert tree.edges == frozenset({(1, 2), (3, 4)})
    assert tree.components == 2
    assert len(tree.edges) == len(tree.covers) - tree.components


def test_mst_empty_graph():
    g = graph_of([1, 2], {})
    tree = min_spanning_tree(g)
    assert tree.edges == frozenset()
    assert tree.total_weight == 0.0
    assert tree.components == 2


def test_mst_matches_brute_force_oracle():
    rng = random.Random(1234)
    for _ in range(300):
        g = random_graph(rng)
        tree = min_spanning_tree(g)
        assert tree.total_weight == pytest.approx(brute_force_msf_weight(g), abs=1e-9)
        assert is_acyclic(sorted(g.vertices), sorted(tree.edges))
        assert len(tree.edges) == len(g.vertices) - tree.components


def test_mst_deterministic_across_runs():
    rng = random.Random(55)
    for _ in range(50):
        g = random_graph(rng)
        assert min_spanning_tree(g) == min_spanning_tree(g)


# --- max flow ---

def test_flow_single_edge():
    g = graph_of([1, 2], {(1, 2): (0.0, 10.0)})
    result = max_flow(g, 1, 2)
    assert result.value == pytest.approx(10.0)
    assert result.min_cut == frozenset({(1, 2)})


def test_flow_triangle_worked_example():
    # All cuts: {s}=2, {s,a}=2, so min cut = 2 by enumeration.
    g = graph_of([1, 2, 3], {(1, 2): (0.0, 1.0), (2, 3): (0.0, 1.0), (1, 3): (0.0, 1.0)})
    result = max_flow(g, 1, 3)
    assert result.value == pytest.approx(2.0)


def test_flow_disconnected_terminals():
    g = graph_of([1, 2, 3], {(1, 2): (0.0, 5.0)})
    result = max_flow(g, 1, 3)
    assert result.value == 0.0
    assert result.min_cut == frozenset()


def test_flow_unknown_vertex():
    g = graph_of([1, 2], {(1, 2): (0.0, 1.0)})
    with pytest.raises(UnknownVertex):
        max_flow(g, 1, 9)
    with pytest.raises(UnknownVertex):
        max_flow(g, 9, 2)
    with pytest.raises(UnknownVertex):
        max_flow(g, 1, 1)


def assert_flow_is_feasible(g, result):
    net = {v: 0.0 for v in g.vertices}
    for (a, b), f in result.edge_flows.items():
        assert abs(f) <= g.edges[(a, b)].capacity + 1e-9
        net[a] -= f
        net[b] += f
    for v in g.vertices:
        if v == result.source:
            assert net[v] == pytest.approx(-result.value, abs=1e-9)
        elif v == result.sink:
            assert net[v] == pytest.approx(result.value, abs=1e-9)
        else:
            assert net[v] == pytest.approx(0.0, abs=1e-9)


def test_flow_matches_brute_force_cut_oracle():
    rng = random.Random(4321)
    for _ in range(300):
        g = random_graph(rng, integer_caps=True)
        vertices = sorted(g.vertices)
        s, t = vertices[0], vertices[-1]
        result = max_flow(g, s, t)
        assert result.value == pytest.approx(brute_force_min_cut(g, s, t), abs=1e-9)
        assert_flow_is_feasible(g, result)
        cut_capacity = sum(g.edges[k].capacity for k in result.min_cut)
        assert cut_capacity == pytest.approx(result.value, abs=1e-9)



def reference_max_flow(g, source, sink):
    """max_flow as it was before its BFS stopped at the sink's first parent."""
    residual = {v: {} for v in g.vertices}
    for (a, b), attrs in g.edges.items():
        residual[a][b] = attrs.capacity
        residual[b][a] = attrs.capacity
    residual = {u: dict(sorted(nbrs.items())) for u, nbrs in residual.items()}

    def bfs_path():
        parent = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
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
    edge_flows = {(a, b): (residual[b][a] - residual[a][b]) / 2.0 for (a, b) in g.edges}
    reachable = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, capacity in residual[u].items():
            if v not in reachable and capacity > 0:
                reachable.add(v)
                queue.append(v)
    min_cut = frozenset(k for k in g.edges if (k[0] in reachable) != (k[1] in reachable))
    return value, edge_flows, min_cut


def test_flow_equals_the_reference_that_searched_past_the_sink():
    rng = random.Random(2026)
    graphs = [graph_of([1, 2, 3, 4], {(1, 2): (0.0, 3.0), (2, 3): (0.0, 0.0)}),  # no path
              graph_of([1, 2, 3, 4], {(1, 2): (0.0, 2.0), (1, 3): (0.0, 2.0),
                                      (2, 4): (0.0, 2.0), (3, 4): (0.0, 2.0)})]  # tied paths
    graphs += [random_graph(rng, max_vertices=10, max_edges=25, integer_caps=i % 2 == 0)
               for i in range(400)]
    outcomes = set()
    for g in graphs:
        s, t = rng.sample(sorted(g.vertices), 2)
        result = max_flow(g, s, t)
        value, edge_flows, min_cut = reference_max_flow(g, s, t)
        assert result.value.hex() == value.hex()
        assert {k: f.hex() for k, f in result.edge_flows.items()} == \
            {k: f.hex() for k, f in edge_flows.items()}
        assert result.min_cut == min_cut
        outcomes.add(value > 0)
    assert outcomes == {True, False}

# --- graph construction ---

def link_records(link_specs):
    return [
        LinkRecord(
            stats=LinkStats((a, b), rtt_ms=10.0, loss_fraction=0.0,
                            capacity_kbps=cap, sampled_at=0.0),
            quality=QualityFactor(link=(a, b), q=q, sample_count=1),
        )
        for (a, b), (q, cap) in link_specs.items()
    ]


def test_build_graph_perfect_link():
    g = build_graph({1, 2}, link_records({(1, 2): (1.0, 1000.0)}))
    assert g.vertices == frozenset({1, 2})
    assert g.edges[(1, 2)].weight == pytest.approx(0.0)
    assert g.edges[(1, 2)].capacity == pytest.approx(1000.0)


def test_build_graph_weight_and_capacity_mapping():
    # w = 1 - 0.8 = 0.2; c = 500 * 0.8 = 400, direct evaluation.
    g = build_graph({1, 2}, link_records({(1, 2): (0.8, 500.0)}))
    assert g.edges[(1, 2)].weight == pytest.approx(0.2)
    assert g.edges[(1, 2)].capacity == pytest.approx(400.0)


def test_build_graph_excludes_down_links():
    links = link_records({(1, 2): (0.04, 500.0), (1, 3): (0.5, 500.0)})
    g = build_graph({1, 2, 3}, links)  # default q_min = 0.05, strict
    assert (1, 2) not in g.edges
    assert (1, 3) in g.edges
    assert g.vertices == frozenset({1, 2, 3})


def test_build_graph_leaves_out_links_to_other_vertices():
    # Reflector 3 is not a vertex (expired or Failed): its links go too.
    links = link_records({(1, 2): (0.9, 500.0), (1, 3): (0.9, 500.0), (3, 4): (0.9, 500.0)})
    g = build_graph({1, 2, 4}, links)
    assert g.vertices == frozenset({1, 2, 4})
    assert set(g.edges) == {(1, 2)}


# --- rerouting gate ---

def tree(edges, weight):
    covers = frozenset(v for e in edges for v in e) or frozenset({1})
    return TreeResult(edges=frozenset(edges), total_weight=weight, covers=covers, components=1)


def test_reroute_installs_on_sufficient_improvement():
    current = tree({(1, 2), (2, 3)}, 1.0)
    candidate = tree({(1, 3), (2, 3)}, 0.94)
    assert should_reroute(current, candidate, delta=0.05) is Reroute.INSTALL


def test_reroute_keeps_on_insufficient_improvement():
    current = tree({(1, 2), (2, 3)}, 1.0)
    candidate = tree({(1, 3), (2, 3)}, 0.97)
    assert should_reroute(current, candidate, delta=0.05) is Reroute.KEEP


def test_reroute_forced_by_dead_edge():
    current = tree({(1, 2), (2, 3)}, 1.0)
    candidate = tree({(1, 3), (2, 3)}, 5.0)
    assert should_reroute(current, candidate, delta=0.05, dead_edges={(1, 2)}) is Reroute.INSTALL


def test_reweigh_tree_reports_missing_edges():
    g = graph_of([1, 2, 3], {(1, 2): (0.25, 0)})
    current = tree({(1, 2), (2, 3)}, 1.0)
    updated, dead = reweigh_tree(current, g)
    assert dead == frozenset({(2, 3)})
    assert updated.total_weight == pytest.approx(0.25)


# --- room routes ---

def path_between(adjacency, a, b):
    """BFS tree-path oracle: the unique path edges between a and b."""
    frontier = [a]
    parent = {a: None}
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(adjacency[u]):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    if b not in parent:
        return set()
    edges = set()
    v = b
    while parent[v] is not None:
        edges.add(tuple(sorted((v, parent[v]))))
        v = parent[v]
    return edges


def expected_room_subtree(tree_result, members):
    """Union of pairwise tree paths between member reflectors."""
    adjacency = tree_result.adjacency()
    edges = set()
    members = sorted(members)
    for a, b in itertools.combinations(members, 2):
        edges |= path_between(adjacency, a, b)
    adj = {v: set() for v in members}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def test_room_routes_line_example():
    line = tree({(1, 2), (2, 3)}, 0.0)
    tables = compute_room_routes(line, {9: {1, 3}}, epoch=1)
    assert tables[2].room_egress[9] == frozenset({1, 3})
    assert tables[1].room_egress[9] == frozenset({2})
    assert tables[3].room_egress[9] == frozenset({2})
    assert all(t.epoch == 1 for t in tables.values())


def test_room_routes_single_reflector_room():
    line = tree({(1, 2), (2, 3)}, 0.0)
    tables = compute_room_routes(line, {9: {2}}, epoch=1)
    assert tables[2].room_egress[9] == frozenset()
    assert 9 not in tables[1].room_egress
    assert 9 not in tables[3].room_egress


def test_room_routes_room_on_all_reflectors_is_full_tree():
    star = tree({(1, 2), (1, 3), (1, 4)}, 0.0)
    tables = compute_room_routes(star, {9: {1, 2, 3, 4}}, epoch=1)
    for rid, table in tables.items():
        assert table.room_egress[9] == table.tree_neighbors


def test_room_routes_member_off_tree():
    line = tree({(1, 2)}, 0.0)
    with pytest.raises(MemberOffTree):
        compute_room_routes(line, {9: {1, 5}}, epoch=1)


def test_room_routes_match_tree_path_oracle():
    rng = random.Random(777)
    for _ in range(100):
        g = random_graph(rng, max_vertices=8, max_edges=12)
        t = min_spanning_tree(g)
        vertices = sorted(t.covers)
        # pick members within one component so paths exist
        adjacency = t.adjacency()
        comp = set()
        frontier = [vertices[0]]
        while frontier:
            v = frontier.pop()
            if v in comp:
                continue
            comp.add(v)
            frontier.extend(adjacency[v])
        members = set(rng.sample(sorted(comp), k=rng.randrange(1, len(comp) + 1)))
        tables = compute_room_routes(t, {5: members}, epoch=3)
        expected = expected_room_subtree(t, members)
        for v in vertices:
            got = tables[v].room_egress.get(5)
            if v in expected:
                assert got == frozenset(expected[v])
            else:
                assert got is None


def test_identical_snapshots_yield_identical_tables():
    rng = random.Random(808)
    for _ in range(30):
        g = random_graph(rng)
        t1, t2 = min_spanning_tree(g), min_spanning_tree(g)
        assert t1 == t2
        if not t1.covers:
            continue
        members = {1: set(rng.sample(sorted(t1.covers), k=min(2, len(t1.covers))))}
        tables1 = compute_room_routes(t1, members, epoch=5)
        tables2 = compute_room_routes(t2, members, epoch=5)
        assert tables1 == tables2


def test_room_routes_egress_subset_of_tree_neighbors():
    rng = random.Random(31)
    for _ in range(50):
        g = random_graph(rng)
        t = min_spanning_tree(g)
        if not t.covers:
            continue
        members = set(rng.sample(sorted(t.covers), k=min(3, len(t.covers))))
        comp_members = members  # may span components: routes stay within each
        tables = compute_room_routes(t, {1: comp_members}, epoch=2)
        for table in tables.values():
            for egress in table.room_egress.values():
                assert egress <= table.tree_neighbors


def prune_to_members(adjacency, members):
    """Minimal subtree of a forest spanning ``members``, by leaf stripping.

    Iteratively strips leaves that are not members; what remains is the
    union of pairwise tree paths between members (per component). Returns
    the subtree's adjacency, including isolated member vertices.
    """
    sub = {v: set(n) for v, n in adjacency.items()}
    degree_one = deque(v for v, n in sub.items() if len(n) <= 1 and v not in members)
    removed = set()
    while degree_one:
        v = degree_one.popleft()
        if v in removed or v in members or len(sub[v]) > 1:
            continue
        removed.add(v)
        for u in sub.pop(v):
            sub[u].discard(v)
            if len(sub[u]) <= 1 and u not in members:
                degree_one.append(u)
    # Non-member vertices stranded with no edges (isolated components) go too.
    for v in [v for v, n in sub.items() if not n and v not in members]:
        del sub[v]
    return sub


def oracle_room_routes(tree_result, room_members, epoch):
    """Routing tables with every room pruned from a full copy of the forest."""
    adjacency = tree_result.adjacency()
    room_egress = {v: {} for v in tree_result.covers}
    for room in sorted(room_members):
        for v, neigh in prune_to_members(adjacency, frozenset(room_members[room])).items():
            room_egress[v][room] = frozenset(neigh)
    return {
        v: RoutingTable(epoch=epoch, tree_neighbors=frozenset(adjacency[v]),
                        room_egress=room_egress[v])
        for v in sorted(tree_result.covers)
    }


@st.composite
def forests_with_rooms(draw):
    """A forest on sparse ids (several components, isolated vertices) plus rooms."""
    ids = draw(st.lists(st.integers(1, 500), min_size=1, max_size=40, unique=True))
    edges = set()
    for i, v in enumerate(ids[1:], start=1):
        # Attach to an earlier vertex, or start a new component.
        j = draw(st.integers(-1, i - 1))
        if j >= 0:
            edges.add(tuple(sorted((v, ids[j]))))
    forest = TreeResult(
        edges=frozenset(edges),
        total_weight=0.0,
        covers=frozenset(ids),
        components=count_components(ids, edges),
    )
    room_ids = draw(st.lists(st.integers(0, 10**6), max_size=8, unique=True))
    rooms = {room: draw(st.sets(st.sampled_from(ids), max_size=len(ids))) for room in room_ids}
    return forest, rooms


# Components {1,2,3} and {4,5}, isolated 6 and 7; rooms empty, single,
# spanning components, and an isolated member alone.
EDGE_CASE = (
    TreeResult(edges=frozenset({(1, 2), (2, 3), (4, 5)}), total_weight=0.0,
               covers=frozenset(range(1, 8)), components=4),
    {1: set(), 2: {3}, 3: {1, 3, 5, 6}, 4: {7}, 5: {2, 4, 5}},
)


@settings(max_examples=300, deadline=None)
@given(forests_with_rooms())
@example(EDGE_CASE)
def test_room_routes_match_leaf_stripping_oracle(case):
    forest, rooms = case
    assert compute_room_routes(forest, rooms, epoch=4) == oracle_room_routes(forest, rooms, 4)
