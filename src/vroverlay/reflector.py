"""Forwarding plane of a single reflector.

Keeps local room membership and chair state, forwards media packets to
local clients and tree-adjacent peers, and installs routing tables computed
by the global optimizer. Forwarding never loops and never echoes a packet
back to its origin client or its ingress peer; loop freedom across the
overlay comes from the tree discipline of the installed routes.

forward() takes a packet and the id of the peer it came from (NO_ID for a
packet from a local client) and returns two ascending id lists: the local
clients to deliver to and the peers to send to. It reads the routing table
through a single reference, so each hop uses one whole table. That holds
per hop only: an epoch swap between two hops can route one packet under the
old table at one reflector and the new table at the next. Membership and
chair mutations are expected to be serialized by the caller; the reflector
daemon makes every engine call from its one loop thread, so callers are
serialized by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .errors import NotAMember, StaleEpoch, UnknownClient, UnknownRoom
from .model import NO_ID, ClientId, MediaPacket, PayloadType, ReflectorId, RoomId
from .wire import HEADER_SIZE


# --- chair controls ---

@dataclass(frozen=True)
class MuteAudio:
    client: ClientId


@dataclass(frozen=True)
class UnmuteAudio:
    client: ClientId


@dataclass(frozen=True)
class MuteVideo:
    client: ClientId


@dataclass(frozen=True)
class UnmuteVideo:
    client: ClientId


@dataclass(frozen=True)
class SelectSpeaker:
    client: ClientId


@dataclass(frozen=True)
class ClearSpeaker:
    pass


ChairAction = MuteAudio | UnmuteAudio | MuteVideo | UnmuteVideo | SelectSpeaker | ClearSpeaker


@dataclass
class ChairState:
    """Per-room chair decisions: mute sets plus an optional selected speaker."""
    muted_audio: set = field(default_factory=set)
    muted_video: set = field(default_factory=set)
    selected_speaker: Optional[ClientId] = None

    def copy(self) -> "ChairState":
        return ChairState(set(self.muted_audio), set(self.muted_video), self.selected_speaker)


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
    chair_drops: int = 0


class ReflectorEngine:
    """One reflector's rooms, chair state, routing table, and forwarder."""

    def __init__(
        self,
        reflector_id: ReflectorId,
        on_membership_change: Optional[Callable[[set], None]] = None,
    ):
        self.reflector_id = reflector_id
        self.counters = ForwardCounters()
        self._clients: dict = {}            # ClientId -> delivery endpoint handle
        self._rooms: dict = {}              # RoomId -> set of ClientId
        self._chair: dict = {}              # RoomId -> ChairState
        self._routing: RoutingTable = EMPTY_ROUTING
        self._on_membership_change = on_membership_change

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
        members = self._rooms.setdefault(room, set())
        if client not in members:
            members.add(client)
            self._membership_changed()

    def leave_room(self, client: ClientId, room: RoomId) -> None:
        """Remove a client from a room; deletes empty rooms and repairs chair state."""
        members = self._rooms.get(room)
        if members is None or client not in members:
            raise NotAMember("client %d is not a member of room %d" % (client, room))
        members.remove(client)
        chair = self._chair.get(room)
        if chair is not None:
            chair.muted_audio.discard(client)
            chair.muted_video.discard(client)
            if chair.selected_speaker == client:
                chair.selected_speaker = None
        if not members:
            del self._rooms[room]
            self._chair.pop(room, None)
        self._membership_changed()

    def room_members(self, room: RoomId) -> frozenset:
        return frozenset(self._rooms.get(room, ()))

    def local_rooms(self) -> set:
        """Rooms with at least one local member (advertised to the control plane)."""
        return set(self._rooms)

    def client_count(self) -> int:
        return sum(len(m) for m in self._rooms.values())

    def room_count(self) -> int:
        return len(self._rooms)

    def _membership_changed(self) -> None:
        if self._on_membership_change is not None:
            self._on_membership_change(self.local_rooms())

    # --- chair controls ---

    def chair_state(self, room: RoomId) -> ChairState:
        """Copy of the room's chair state (empty state for rooms without one)."""
        state = self._chair.get(room)
        return state.copy() if state is not None else ChairState()

    def apply_chair_control(self, room: RoomId, action: ChairAction) -> ChairState:
        """Apply one chair decision; mute/select require current membership."""
        members = self._rooms.get(room)
        if members is None:
            raise UnknownRoom("room %d has no members on reflector %d" % (room, self.reflector_id))
        state = self._chair.setdefault(room, ChairState())
        if isinstance(action, (MuteAudio, MuteVideo, SelectSpeaker)) and action.client not in members:
            raise NotAMember("client %d is not a member of room %d" % (action.client, room))
        if isinstance(action, MuteAudio):
            state.muted_audio.add(action.client)
        elif isinstance(action, UnmuteAudio):
            state.muted_audio.discard(action.client)
        elif isinstance(action, MuteVideo):
            state.muted_video.add(action.client)
        elif isinstance(action, UnmuteVideo):
            state.muted_video.discard(action.client)
        elif isinstance(action, SelectSpeaker):
            state.selected_speaker = action.client
        elif isinstance(action, ClearSpeaker):
            state.selected_speaker = None
        else:
            raise TypeError("unknown chair action %r" % (action,))
        return state.copy()

    def install_chair_state(self, room: RoomId, state: ChairState) -> None:
        """Adopt chair state decided elsewhere (already validated at its source).

        Chair controls are validated where the target client is homed; other
        reflectors hosting the room receive the resulting state verbatim.
        """
        self._chair[room] = state.copy()

    def _chair_blocks(self, p: MediaPacket) -> bool:
        state = self._chair.get(p.room)
        if state is None:
            return False
        if p.payload_type == PayloadType.AUDIO_G711U:
            return p.src in state.muted_audio
        if p.payload_type == PayloadType.VIDEO_H261:
            if p.src in state.muted_video:
                return True
            return state.selected_speaker is not None and p.src != state.selected_speaker
        return False

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
        return old.epoch

    # --- forwarding ---

    def forward(self, p: MediaPacket, from_peer: ReflectorId = NO_ID) -> tuple:
        """Destinations of one packet: (clients, peers), each an ascending id list.

        Clients are the room's local members minus the origin client
        (``p.src``), after chair filtering; peers are the room's pruned peer
        egress minus ``from_peer``, the ingress peer (NO_ID for a packet from
        a local client). Packets for rooms this reflector knows nothing about
        are counted and dropped, not errored.
        """
        routing = self._routing  # one read: this hop sees exactly one table
        members = self._rooms.get(p.room)
        peer_egress = routing.room_egress.get(p.room)
        wire_bytes = HEADER_SIZE + len(p.payload)
        self.counters.packets_in += 1
        self.counters.bytes_in += wire_bytes
        if members is None and peer_egress is None:
            self.counters.unknown_room_drops += 1
            return [], []
        if self._chair_blocks(p):
            self.counters.chair_drops += 1
            return [], []
        clients = sorted(c for c in members if c != p.src) if members else []
        peers = sorted(r for r in peer_egress if r != from_peer) if peer_egress else []
        sent = len(clients) + len(peers)
        self.counters.packets_out += sent
        self.counters.bytes_out += wire_bytes * sent
        return clients, peers
