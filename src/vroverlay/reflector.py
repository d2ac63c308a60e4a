"""Forwarding plane of a single reflector.

Keeps local room membership, forwards media packets to local clients and
tree-adjacent peers, and installs routing tables computed by the global
optimizer. Forwarding never loops and never echoes a packet
back to its origin client or its ingress peer; loop freedom across the
overlay comes from the tree discipline of the installed routes.

forward() takes a packet's room, origin client and size on the wire, plus
the id of the peer it came from (NO_ID for a packet from a local client),
and returns (clients, peers, sent): the ascending ids of the local clients
to deliver to and of the peers to send to, and how many that is. It reads
the routing table through a single reference, so each hop uses one whole
table. That holds per hop only: an epoch swap between two hops can route
one packet under the old table at one reflector and the new table at the
next.

Destinations are kept sorted so that forward only filters: each room's
members are an ascending list, kept in order as clients join and leave,
and the first forward for a room under a table caches that room's egress
as an ascending tuple, one tuple per distinct egress set, which rooms with
equal egress share. A table swap drops every cached egress.

The engine reports no membership change; its owner advertises
local_rooms() after it changes membership. Membership mutations are
expected to be serialized by the caller; the reflector daemon makes every
engine call from its one loop thread, so callers are serialized by
construction.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Mapping

from .errors import NotAMember, StaleEpoch, UnknownClient
from .model import NO_ID, ClientId, ReflectorId, RoomId


@dataclass(frozen=True)
class RoutingTable:
    """Installed routing decision: tree adjacency plus per-room pruned egress.

    room_egress values are subsets of tree_neighbors; rooms without an entry
    have no peer egress at this reflector. Epochs strictly increase with
    every accepted swap.
    """

    epoch: int
    tree_neighbors: frozenset = frozenset()
    room_egress: Mapping[RoomId, frozenset] = field(default_factory=dict)


EMPTY_ROUTING = RoutingTable(epoch=0)


@dataclass
class ForwardCounters:
    packets_in: int = 0
    packets_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    unknown_room_drops: int = 0


class ReflectorEngine:
    """One reflector's rooms, routing table, and forwarder."""

    def __init__(self, reflector_id: ReflectorId):
        self.reflector_id = reflector_id
        self.counters = ForwardCounters()
        self._clients: dict = {}            # ClientId -> delivery endpoint handle
        self._rooms: dict = {}              # RoomId -> ascending list of ClientId
        self._egress: dict = {}             # RoomId -> ascending tuple of the table's egress
        self._sorted: dict = {}             # frozenset egress -> that shared ascending tuple
        self._routing: RoutingTable = EMPTY_ROUTING

    # --- client / room membership ---

    def attach_client(self, client: ClientId, endpoint=None) -> None:
        """Register a locally connected client and its delivery endpoint."""
        self._clients[client] = endpoint

    def detach_client(self, client: ClientId) -> None:
        """Drop a client and remove it from every room it joined."""
        self._clients.pop(client, None)
        for room in [r for r, members in self._rooms.items() if client in members]:
            self.leave_room(client, room)

    def endpoint(self, client: ClientId):
        return self._clients.get(client)

    def join_room(self, client: ClientId, room: RoomId) -> None:
        """Add a connected client to a room; a repeat join changes nothing."""
        if client not in self._clients:
            raise UnknownClient("client %d is not connected to reflector %d" % (client, self.reflector_id))
        members = self._rooms.setdefault(room, [])
        if client not in members:
            insort(members, client)

    def leave_room(self, client: ClientId, room: RoomId) -> None:
        """Remove a client from a room; deletes the room when it empties."""
        members = self._rooms.get(room)
        if members is None or client not in members:
            raise NotAMember("client %d is not a member of room %d" % (client, room))
        members.remove(client)
        if not members:
            del self._rooms[room]

    def local_rooms(self) -> set:
        """Rooms with at least one local member (advertised to the control plane)."""
        return set(self._rooms)

    def client_count(self) -> int:
        return sum(len(m) for m in self._rooms.values())

    def room_count(self) -> int:
        return len(self._rooms)

    # --- routing ---

    @property
    def routing(self) -> RoutingTable:
        return self._routing

    def swap_routing_table(self, new: RoutingTable) -> int:
        """Install a newer table atomically; returns the replaced epoch."""
        old = self._routing
        if new.epoch <= old.epoch:
            raise StaleEpoch("epoch %d is not newer than installed %d" % (new.epoch, old.epoch))
        self._routing = new
        self._egress.clear()
        self._sorted.clear()
        return old.epoch

    # --- forwarding ---

    def forward(self, room: RoomId, src: ClientId, nbytes: int,
                from_peer: ReflectorId = NO_ID) -> tuple:
        """Destinations of one packet: (clients, peers, sent).

        Clients and peers are ascending id lists, and ``sent`` is their total
        length. Clients are the room's local members minus the origin client
        ``src``; peers are the room's pruned peer egress minus
        ``from_peer``, the ingress peer (NO_ID for a packet from a local
        client). ``nbytes``, the frame's size on the wire, feeds the byte
        counters. Packets for rooms this reflector knows nothing about are
        counted and dropped, not errored.
        """
        self.counters.packets_in += 1
        self.counters.bytes_in += nbytes
        members = self._rooms.get(room)
        egress = self._egress.get(room)
        if egress is None:
            peer_egress = self._routing.room_egress.get(room)  # one read of the table
            if peer_egress is not None:
                egress = self._sorted.get(peer_egress)
                if egress is None:
                    egress = self._sorted[peer_egress] = tuple(sorted(peer_egress))
                self._egress[room] = egress
            elif members is None:
                self.counters.unknown_room_drops += 1
                return [], [], 0
            else:
                egress = ()
        clients = [c for c in members if c != src] if members else []
        peers = [r for r in egress if r != from_peer]
        sent = len(clients) + len(peers)
        self.counters.packets_out += sent
        self.counters.bytes_out += nbytes * sent
        return clients, peers, sent
