"""The overlay's registry and control loop, shared by the simulator and the registry daemon.

One Registry owns the overlay's state: reflectors register, heartbeat, and
advertise their room membership here, and entries fall out of snapshots once
silent longer than the liveness timeout (``liveness_intervals`` heartbeat
intervals). The owner publishes a snapshot on a fixed interval and hands it
to its subscribers, so a freshly registered reflector becomes visible within
one publish interval.

The same Registry runs the control loop: the supervisor, the per-link
quality filters, the installed distribution tree and the last published
routing tables. Callers feed it link measurements through ``observe_link``
(the registry daemon through ``observe_uplink``, which derives a link from
each uplinked ``peer.<id>.rtt_ms`` sample) and call ``cycle`` on the
optimizer period, which builds its graph from the registry alone: the live
reflectors that are not Failed, and the link records, whose quality is the
filter value ``observe_link`` stored.
``inputs_changed`` says the routing inputs changed since the last cycle (a
registration, a changed room set, a link's first sample), so a driver may
run a cycle at once rather than wait for the period.
``tree`` and ``tables`` are the only record of the installed routing: the
hysteresis gate, the snapshots and a returning reflector's resync read them.
One pair of state stays apart: ``filters`` outlive dropped links; link
records do not.

The Registry is the only owner of routing installs: each install takes the
next epoch (1, 2, ...) and pushes every table, in ascending reflector id
order, through the transport. A push that raises is a failure of that
reflector, recorded in the install's DeliveryReport and counted by the
supervisor, never an error. The transport is injected, so the same loop
runs inside the deterministic simulator and against real sockets.
"""
from __future__ import annotations

import copy
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from .config import OverlayConfig
from .errors import DuplicateId, UnknownReflector
from .model import MAX_ID, NO_ID, LinkStats, ReflectorId, RoomId, link_key
from .monitor import MetricSample
from .optimizer import (
    Reroute,
    TreeResult,
    build_graph,
    compute_room_routes,
    max_flow,
    min_spanning_tree,
    reweigh_tree,
    should_reroute,
)
from .quality import QualityFactor, raw_quality, update_ewma
from .reflector import RoutingTable
from .supervisor import HealthState, Supervisor

LINK_CAPACITY_KBPS = 10_000.0  # the capacity of a link the daemons measure by rtt alone


@dataclass
class RegistryEntry:
    """One live reflector: where to reach it and when it last spoke."""

    reflector: ReflectorId
    control_address: str
    region: str = ""
    registered_at: float = 0.0
    last_heartbeat: float = 0.0


@dataclass(frozen=True, slots=True)
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


@dataclass
class DeliveryReport:
    """Outcome of one routing install."""

    epoch: int
    acks: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # ReflectorId -> reason string


class Registry:
    """Heartbeat leasing, snapshots, link quality, tree optimization and routing install."""

    def __init__(
        self,
        config: OverlayConfig,
        transport: Callable[[ReflectorId, RoutingTable], None],
    ):
        self.config = config
        self.transport = transport  # raises when the reflector is unreachable
        self.liveness_timeout_ms = config.heartbeat_interval_ms * config.liveness_intervals
        self.supervisor = Supervisor(config.k_miss, recipients=config.admins)
        self.filters: dict = {}  # link key -> QualityFactor; outlives dropped links
        self.tree: Optional[TreeResult] = None  # the last install's tree
        self.tables: dict = {}   # reflector id -> last published RoutingTable
        self.epoch = 0           # epoch of the last install; 0 before the first
        self.inputs_changed = False  # routing inputs changed since the last cycle
        self._rooms_changed = False  # room membership changed since the last install
        self._entries: dict = {}             # ReflectorId -> RegistryEntry
        self._rooms_by_reflector: dict = {}  # ReflectorId -> set of RoomId
        self._links: dict = {}               # LinkKey -> LinkRecord
        self._flow: Optional[FlowSummary] = None
        self._snapshot_epoch = 0
        self.latest_snapshot: Optional[TopologySnapshot] = None

    # --- membership of the overlay itself ---

    def register(self, reflector: ReflectorId, address: str, region: str, now: float) -> int:
        """Admit a reflector, leased from ``now``, and watch it; returns the snapshot epoch.

        A Failed reflector that registers again has been restarted, so its
        supervision resumes; that is the only way out of Failed.
        """
        if reflector in self._entries:
            raise DuplicateId("reflector %d already registered" % reflector)
        self._entries[reflector] = RegistryEntry(reflector, address, region, now, now)
        self.inputs_changed = True
        if self.supervisor.watch(reflector).state is HealthState.FAILED:
            self.supervisor.clear_failed(reflector)
        return self._snapshot_epoch

    def deregister(self, reflector: ReflectorId) -> None:
        """Forget a reflector that left on purpose, filters included."""
        if reflector not in self._entries:
            raise UnknownReflector("reflector %d is not registered" % reflector)
        self._drop(reflector)
        self.supervisor.unwatch(reflector)
        for key in [k for k in self.filters if reflector in k]:
            del self.filters[key]

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
        rooms = set(rooms)
        if rooms != self._rooms_by_reflector.get(reflector, frozenset()):
            self._rooms_changed = self.inputs_changed = True
        self._rooms_by_reflector[reflector] = rooms

    def room_members(self) -> dict:
        """Room -> set of live reflectors hosting at least one member."""
        out: dict = {}
        for rid in sorted(self._rooms_by_reflector):
            for room in self._rooms_by_reflector[rid]:
                out.setdefault(room, set()).add(rid)
        return out

    # --- link table ---

    def observe_link(self, stats: LinkStats) -> QualityFactor:
        """Fold one link measurement into its filter and record it.

        A link's first sample since it entered the link table changes the
        routing inputs.
        """
        key = stats.link
        prev = self.filters.get(key)
        if prev is None:
            prev = QualityFactor(link=key, alpha=self.config.alpha)
        if key not in self._links:
            self.inputs_changed = True
        sample = raw_quality(stats.loss_fraction, stats.rtt_ms, self.config.rtt_ref_ms)
        current = update_ewma(prev, sample, stats.sampled_at)
        self.filters[key] = current
        self._links[key] = LinkRecord(stats, current)
        return current

    def observe_uplink(self, sample: MetricSample) -> list:
        """An uplinked metric sample, followed by what the registry derives from it.

        A live reflector's ``peer.<id>.rtt_ms`` sample, for a peer id in
        1..MAX_ID other than the sender's own, measures that link: it goes
        through ``observe_link`` (rtt clamped at 0, no loss,
        LINK_CAPACITY_KBPS) and the link's ``peer.<id>.quality`` sample
        follows it. Any other sample, or one from a sender that is not
        registered, comes back alone.
        """
        parts = sample.name.split(".")
        if len(parts) != 3 or parts[0] != "peer" or parts[2] != "rtt_ms":
            return [sample]
        if sample.reflector not in self._entries:
            return [sample]
        try:
            peer = int(parts[1])
        except ValueError:
            return [sample]
        if not NO_ID < peer <= MAX_ID or peer == sample.reflector:
            return [sample]
        current = self.observe_link(LinkStats(link_key(sample.reflector, peer),
                                              max(sample.value, 0.0), 0.0,
                                              LINK_CAPACITY_KBPS, sample.at))
        return [sample, MetricSample(sample.reflector, sys.intern("peer.%d.quality" % peer),
                                     current.q, sample.at)]

    def drop_link(self, a: ReflectorId, b: ReflectorId) -> None:
        self._links.pop(link_key(a, b), None)

    def links(self) -> list:
        live = self._entries
        return [
            self._links[k]
            for k in sorted(self._links)
            if k[0] in live and k[1] in live
        ]

    # --- optimizer cycle and routing install ---

    def cycle(self, now: float) -> Optional[DeliveryReport]:
        """One optimizer cycle; reports the install it made, if any.

        It installs the candidate tree when the tree's shape changed or the
        anti-flap gate says INSTALL. When the gate says KEEP but room
        membership changed since the last install, it installs the current
        tree again, under a new epoch, so the new rooms get routes and
        the hysteresis still holds. Drivers run it on the optimizer period,
        and the registry daemon also soon after ``inputs_changed`` is set.
        After an install, ``tree`` and ``tables`` hold what was installed.
        """
        self.inputs_changed = False
        self.expire(now)
        live = frozenset(self._entries)
        graph = build_graph(live - self.supervisor.failed(), self.links(), self.config.q_min)
        candidate = min_spanning_tree(graph)
        if (
            self.tree is None
            or self.tree.covers != candidate.covers
            or self.tree.components != candidate.components
        ):
            # Topology membership changed (registration, expiry, or a split
            # component rejoining): the gate only arbitrates same-shape trees.
            install = candidate
        else:
            current, dead = reweigh_tree(self.tree, graph)
            if should_reroute(current, candidate, self.config.delta, dead) is Reroute.INSTALL:
                install = candidate
            else:
                install = current if self._rooms_changed else None
        done = self._install(install) if install is not None and install.covers else None

        if self.config.gateway_pair is not None:
            src, dst = self.config.gateway_pair
            if src in graph.vertices and dst in graph.vertices and src != dst:
                flow = max_flow(graph, src, dst)
                self._flow = FlowSummary(
                    source=src,
                    sink=dst,
                    value=flow.value,
                    edges=flow.positive_flow_edges(),
                )
            else:
                self._flow = None
        return done

    def _install(self, tree: TreeResult) -> DeliveryReport:
        self.epoch += 1
        self._rooms_changed = False
        members_by_room = {}
        for room, hosts in self.room_members().items():
            on_tree = hosts & tree.covers
            if on_tree:
                members_by_room[room] = on_tree
        self.tables = compute_room_routes(tree, members_by_room, self.epoch)
        report = DeliveryReport(epoch=self.epoch)
        for rid in sorted(self.tables):
            try:
                self.transport(rid, self.tables[rid])
                report.acks.append(rid)
            except Exception as exc:  # delivery failure is data, not an error
                report.failures[rid] = "%s: %s" % (type(exc).__name__, exc)
                self.supervisor.note_unreachable(rid)
        self.tree = tree
        return report

    # --- snapshots ---

    def build_snapshot(self) -> TopologySnapshot:
        """Consistent view of the current state under the next epoch."""
        room_members = {
            room: frozenset(members)
            for room, members in sorted(self.room_members().items())
        }
        live = self._entries
        installed = self.tree.edges if self.tree is not None else ()
        return TopologySnapshot(
            epoch=self._snapshot_epoch + 1,
            reflectors=tuple(copy.copy(e) for e in self.entries()),
            links=tuple(self.links()),
            tree_edges=frozenset(e for e in installed if e[0] in live and e[1] in live),
            room_members=room_members,
            flow=self._flow,
        )

    def publish_snapshot(self, now: float) -> TopologySnapshot:
        """Expire stale entries, advance the epoch, and return the new snapshot."""
        self.expire(now)
        snapshot = self.build_snapshot()
        self._snapshot_epoch = snapshot.epoch
        self.latest_snapshot = snapshot
        return snapshot
