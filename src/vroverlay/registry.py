"""Registry of the overlay's reported state.

One logical writer owns the registry: reflectors register, heartbeat,
and advertise their room membership here; the control plane reports link
records, the installed distribution tree and gateway-flow diagnostics.
Numbering and pushing routing tables is the ControlPlane's. Entries fall out
of snapshots once silent longer than the liveness timeout (default three
heartbeat intervals). The owner publishes a snapshot on a fixed interval and
hands it to its subscribers, so a freshly registered reflector becomes
visible within one publish interval.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional

from .errors import DuplicateId, UnknownReflector
from .model import LinkKey, LinkStats, ReflectorId, RoomId, link_key
from .quality import QualityFactor

DEFAULT_HEARTBEAT_INTERVAL_MS = 10_000.0
DEFAULT_LIVENESS_INTERVALS = 3


@dataclass
class RegistryEntry:
    """One live reflector: where to reach it and when it last spoke."""

    reflector: ReflectorId
    control_address: str
    region: str = ""
    registered_at: float = 0.0
    last_heartbeat: float = 0.0


@dataclass(frozen=True)
class LinkRecord:
    """Latest raw stats plus smoothed quality for one overlay link."""

    stats: LinkStats
    quality: QualityFactor


@dataclass(frozen=True)
class FlowSummary:
    """Gateway-pair max-flow diagnostic embedded in snapshot exports."""

    source: ReflectorId
    sink: ReflectorId
    value: float
    edges: frozenset = frozenset()  # links carrying positive flow


@dataclass(frozen=True)
class TopologySnapshot:
    """Point-in-time view of the overlay, published to subscribers.

    tree_edges always reference two live reflectors and form a forest;
    room_members maps each room to the live reflectors hosting members.
    """

    epoch: int
    reflectors: tuple
    links: tuple
    tree_edges: frozenset
    room_members: Mapping[RoomId, frozenset]
    flow: Optional[FlowSummary] = None


class Registry:
    """In-process registry with heartbeat leasing and snapshot publication."""

    def __init__(
        self,
        heartbeat_interval_ms: float = DEFAULT_HEARTBEAT_INTERVAL_MS,
        liveness_intervals: int = DEFAULT_LIVENESS_INTERVALS,
    ):
        self.liveness_timeout_ms = heartbeat_interval_ms * liveness_intervals
        self._entries: dict = {}          # ReflectorId -> RegistryEntry
        self._rooms_by_reflector: dict = {}  # ReflectorId -> set of RoomId
        self._links: dict = {}            # LinkKey -> LinkRecord
        self._tree_edges: frozenset = frozenset()
        self._flow: Optional[FlowSummary] = None
        self._snapshot_epoch = 0
        self._latest: Optional[TopologySnapshot] = None

    # --- membership of the overlay itself ---

    def register(self, entry: RegistryEntry) -> int:
        """Add a reflector; returns the current epoch."""
        if entry.reflector in self._entries:
            raise DuplicateId("reflector %d already registered" % entry.reflector)
        if entry.last_heartbeat < entry.registered_at:
            entry = replace(entry, last_heartbeat=entry.registered_at)
        self._entries[entry.reflector] = entry
        self._rooms_by_reflector.setdefault(entry.reflector, set())
        return self._snapshot_epoch

    def deregister(self, reflector: ReflectorId) -> None:
        if reflector not in self._entries:
            raise UnknownReflector("reflector %d is not registered" % reflector)
        self._drop(reflector)

    def heartbeat(self, reflector: ReflectorId, at: float) -> None:
        entry = self._entries.get(reflector)
        if entry is None:
            raise UnknownReflector("heartbeat from unregistered reflector %d" % reflector)
        entry.last_heartbeat = max(entry.last_heartbeat, at)

    def expire(self, now: float) -> list:
        """Drop entries silent for more than the liveness timeout."""
        dead = [
            rid
            for rid, e in self._entries.items()
            if now - e.last_heartbeat > self.liveness_timeout_ms
        ]
        for rid in dead:
            self._drop(rid)
        return dead

    def _drop(self, reflector: ReflectorId) -> None:
        self._entries.pop(reflector, None)
        self._rooms_by_reflector.pop(reflector, None)
        for key in [k for k in self._links if reflector in k]:
            del self._links[key]
        self._tree_edges = frozenset(e for e in self._tree_edges if reflector not in e)

    def entries(self) -> list:
        return [self._entries[rid] for rid in sorted(self._entries)]

    def entry(self, reflector: ReflectorId) -> Optional[RegistryEntry]:
        return self._entries.get(reflector)

    def is_live(self, reflector: ReflectorId) -> bool:
        return reflector in self._entries

    # --- room membership advertisement ---

    def advertise_membership(self, reflector: ReflectorId, rooms: Iterable[RoomId]) -> None:
        if reflector not in self._entries:
            raise UnknownReflector("advertisement from unregistered reflector %d" % reflector)
        self._rooms_by_reflector[reflector] = set(rooms)

    def room_members(self) -> dict:
        """Room -> set of live reflectors hosting at least one member."""
        out: dict = {}
        for rid in sorted(self._rooms_by_reflector):
            for room in self._rooms_by_reflector[rid]:
                out.setdefault(room, set()).add(rid)
        return out

    # --- link table and optimizer feedback ---

    def report_link(self, stats: LinkStats, quality: QualityFactor) -> None:
        self._links[stats.link] = LinkRecord(stats, quality)

    def drop_link(self, a: ReflectorId, b: ReflectorId) -> None:
        self._links.pop(link_key(a, b), None)

    def links(self) -> list:
        live = self._entries
        return [
            self._links[k]
            for k in sorted(self._links)
            if k[0] in live and k[1] in live
        ]

    def set_tree(self, edges: Iterable[LinkKey]) -> None:
        self._tree_edges = frozenset(edges)

    def set_flow(self, flow: Optional[FlowSummary]) -> None:
        self._flow = flow

    # --- snapshots ---

    def build_snapshot(self) -> TopologySnapshot:
        """Consistent view of the current state under the next epoch."""
        room_members = {
            room: frozenset(members)
            for room, members in sorted(self.room_members().items())
        }
        return TopologySnapshot(
            epoch=self._snapshot_epoch + 1,
            reflectors=tuple(replace(e) for e in self.entries()),
            links=tuple(self.links()),
            tree_edges=self._tree_edges,
            room_members=room_members,
            flow=self._flow,
        )

    def publish_snapshot(self, now: float) -> TopologySnapshot:
        """Expire stale entries, advance the epoch, and return the new snapshot."""
        self.expire(now)
        snapshot = self.build_snapshot()
        self._snapshot_epoch = snapshot.epoch
        self._latest = snapshot
        return snapshot

    @property
    def latest_snapshot(self) -> Optional[TopologySnapshot]:
        return self._latest
