"""Reflector engine: membership, forwarding, routing swaps."""
import pytest

from vroverlay.errors import NotAMember, StaleEpoch, UnknownClient
from vroverlay.model import NO_ID
from vroverlay.reflector import ReflectorEngine, RoutingTable
from vroverlay.wire import HEADER_SIZE

R = 1
ROOM = 7
NBYTES = HEADER_SIZE + 160  # one frame's size on the wire


def engine_with_clients(*clients):
    eng = ReflectorEngine(R)
    for c in clients:
        eng.attach_client(c)
    return eng


def members(eng, room=ROOM):
    """The room's local members: the clients a non-member's packet reaches."""
    return eng.forward(room, 0, NBYTES)[0]


def routed(epoch, neighbors, egress):
    return RoutingTable(
        epoch=epoch,
        tree_neighbors=frozenset(neighbors),
        room_egress={room: frozenset(peers) for room, peers in egress.items()},
    )


# --- join / leave ---

def test_join_creates_room():
    eng = engine_with_clients(1)
    eng.join_room(1, ROOM)
    assert members(eng) == [1]


def test_join_is_idempotent():
    eng = engine_with_clients(1)
    eng.join_room(1, ROOM)
    eng.join_room(1, ROOM)
    assert members(eng) == [1]
    assert (eng.client_count(), eng.room_count()) == (1, 1)


def test_join_unknown_client():
    eng = engine_with_clients(1)
    with pytest.raises(UnknownClient):
        eng.join_room(9, ROOM)


def test_join_counts_cross_checked_with_metrics():
    eng = engine_with_clients(1, 2)
    eng.join_room(1, ROOM)
    eng.join_room(2, ROOM)
    assert members(eng) == [1, 2]
    assert eng.client_count() == 2
    assert eng.room_count() == 1


def test_leave_removes_empty_room():
    eng = engine_with_clients(1)
    eng.join_room(1, ROOM)
    eng.leave_room(1, ROOM)
    assert eng.room_count() == 0
    assert members(eng) == []


def test_leave_not_a_member():
    eng = engine_with_clients(1, 9)
    eng.join_room(1, ROOM)
    with pytest.raises(NotAMember):
        eng.leave_room(9, ROOM)


def test_detach_client_leaves_all_rooms():
    eng = engine_with_clients(1, 2)
    eng.join_room(1, ROOM)
    eng.join_room(2, ROOM)
    eng.join_room(1, 8)
    eng.detach_client(1)
    assert members(eng) == [2]
    assert members(eng, 8) == []


# --- forwarding ---

def test_star_fanout_minus_sender():
    eng = engine_with_clients(1, 2, 3)
    for c in (1, 2, 3):
        eng.join_room(c, ROOM)
    actions = eng.forward(ROOM, 1, NBYTES)
    assert actions == ([2, 3], [], 2)


def test_forward_includes_pruned_peers_and_excludes_ingress_peer():
    eng = engine_with_clients(2)
    eng.join_room(2, ROOM)
    eng.swap_routing_table(routed(1, {10, 30}, {ROOM: {10, 30}}))
    # Packet arrives from peer 10: local delivery plus peer 30 only.
    actions = eng.forward(ROOM, 1, NBYTES, 10)
    assert actions == ([2], [30], 2)


def test_forward_origin_client_never_receives_own_packet():
    eng = engine_with_clients(1, 2)
    eng.join_room(1, ROOM)
    eng.join_room(2, ROOM)
    eng.swap_routing_table(routed(1, {10}, {ROOM: {10}}))
    actions = eng.forward(ROOM, 1, NBYTES)
    assert 1 not in actions[0]
    assert actions == ([2], [10], 2)


def test_forward_unknown_room_counted_not_raised():
    eng = engine_with_clients(1)
    actions = eng.forward(99, 1, NBYTES)
    assert actions == ([], [], 0)
    assert eng.counters.unknown_room_drops == 1


def test_forward_transit_without_local_members():
    eng = ReflectorEngine(R)
    eng.swap_routing_table(routed(1, {10, 30}, {ROOM: {10, 30}}))
    actions = eng.forward(ROOM, 5, NBYTES, 10)
    assert actions == ([], [30], 1)


def test_line_overlay_path_enumeration():
    # Line R1-R2-R3, one client per reflector, all in one room. Expected
    # egress sets computed by hand-walking the tree from the origin.
    engines = {}
    for rid, client, neighbors, egress in (
        (1, 1, {2}, {2}),
        (2, 2, {1, 3}, {1, 3}),
        (3, 3, {2}, {2}),
    ):
        eng = ReflectorEngine(rid)
        eng.attach_client(client)
        eng.join_room(client, ROOM)
        eng.swap_routing_table(routed(1, neighbors, {ROOM: egress}))
        engines[rid] = eng
    assert engines[1].forward(ROOM, 1, NBYTES) == ([], [2], 1)
    assert engines[2].forward(ROOM, 1, NBYTES, 1) == ([2], [3], 2)
    assert engines[3].forward(ROOM, 1, NBYTES, 2) == ([3], [], 1)


# --- routing swaps ---

def test_swap_accepts_newer_epoch_and_returns_old():
    eng = ReflectorEngine(R)
    assert eng.swap_routing_table(routed(1, {2}, {})) == 0
    assert eng.swap_routing_table(routed(2, {2}, {})) == 1
    assert eng.routing.epoch == 2


def test_swap_rejects_stale_epoch():
    eng = ReflectorEngine(R)
    eng.swap_routing_table(routed(2, {2}, {}))
    with pytest.raises(StaleEpoch):
        eng.swap_routing_table(routed(1, {2}, {}))
    with pytest.raises(StaleEpoch):
        eng.swap_routing_table(routed(2, {2}, {}))
    assert eng.routing.epoch == 2


def test_swap_same_content_new_epoch_keeps_behavior():
    eng = engine_with_clients(2)
    eng.join_room(2, ROOM)
    table = {ROOM: {10}}
    eng.swap_routing_table(routed(1, {10}, table))
    before = eng.forward(ROOM, 1, NBYTES, 10)
    eng.swap_routing_table(routed(2, {10}, table))
    after = eng.forward(ROOM, 1, NBYTES, 10)
    assert before == after


def test_egress_actions_distinct_across_types():
    # Client ids and reflector ids are separate spaces: client 5 and peer 5
    # are two destinations.
    eng = engine_with_clients(1, 5)
    eng.join_room(1, ROOM)
    eng.join_room(5, ROOM)
    eng.swap_routing_table(routed(1, {5}, {ROOM: {5}}))
    assert eng.forward(ROOM, 1, NBYTES) == ([5], [5], 2)
    assert eng.counters.packets_out == 2


def test_ingress_peer_never_in_egress_property():
    import random

    rng = random.Random(314)
    for _ in range(200):
        eng = ReflectorEngine(R)
        neighbors = frozenset(rng.sample(range(10, 30), k=rng.randrange(1, 6)))
        egress = frozenset(rng.sample(sorted(neighbors), k=rng.randrange(0, len(neighbors) + 1)))
        eng.swap_routing_table(routed(1, neighbors, {ROOM: egress}))
        ingress_peer = rng.choice(sorted(neighbors))
        actions = eng.forward(ROOM, 99, NBYTES, ingress_peer)
        assert ingress_peer not in actions[1]
        peers = sorted(p for p in egress if p != ingress_peer)
        assert actions == ([], peers, len(peers))


def test_forward_matches_a_from_scratch_reference_after_every_change():
    """The per-room destination cache never serves a stale answer."""
    import random

    rng = random.Random(2718)
    rooms, clients, peers = range(1, 5), range(1, 9), range(10, 15)
    for _ in range(40):
        eng = ReflectorEngine(R)
        attached, joined = set(), {}          # reference state: client ids, room -> members
        table = eng.routing
        for _ in range(60):
            op = rng.choice(("attach", "join", "join", "leave", "detach", "swap"))
            client, room = rng.choice(clients), rng.choice(rooms)
            if op == "attach":
                eng.attach_client(client)
                attached.add(client)
            elif op == "join" and client in attached:
                eng.join_room(client, room)
                joined.setdefault(room, set()).add(client)
            elif op == "leave" and client in joined.get(room, ()):
                eng.leave_room(client, room)
                joined[room].discard(client)
            elif op == "detach":
                eng.detach_client(client)
                attached.discard(client)
                for members in joined.values():
                    members.discard(client)
            elif op == "swap":
                table = routed(table.epoch + 1, peers, {
                    r: rng.sample(peers, k=rng.randrange(len(peers) + 1))
                    for r in rooms if rng.random() < 0.6})
                eng.swap_routing_table(table)
            for room in rooms:
                src = rng.choice((0,) + tuple(clients))
                from_peer = rng.choice((NO_ID,) + tuple(peers))
                members = joined.get(room, set())
                egress = table.room_egress.get(room)
                drops = eng.counters.unknown_room_drops
                want_clients = sorted(c for c in members if c != src)
                want_peers = sorted(r for r in egress or () if r != from_peer)
                assert eng.forward(room, src, NBYTES, from_peer) == (
                    want_clients, want_peers, len(want_clients) + len(want_peers))
                unknown = not members and egress is None
                assert eng.counters.unknown_room_drops == drops + unknown
