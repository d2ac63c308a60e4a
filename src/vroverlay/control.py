"""The overlay's control loop, shared by the simulator and the registry daemon.

One ControlPlane owns the registry, the supervisor, the per-link quality
filters, the installed distribution tree and the last published routing
tables. Callers feed it link measurements and call ``cycle`` on the
optimizer period, which builds its graph from the registry alone: the live
reflectors that are not Failed, and the link records, whose quality is the
filter value ``observe_link`` stored.

The ControlPlane is the only owner of routing installs: each install takes
the next epoch (1, 2, ...) and pushes every table, in ascending reflector
id order, through the transport. A push that raises is a failure of that
reflector, recorded in the install's DeliveryReport and counted by the
supervisor, never an error. The transport is injected, so the same loop
runs inside the deterministic simulator and against real sockets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .config import OverlayConfig
from .model import LinkStats, ReflectorId
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
from .registry import FlowSummary, Registry, RegistryEntry
from .supervisor import HealthState, Supervisor


@dataclass
class DeliveryReport:
    """Outcome of one routing install."""

    epoch: int
    acks: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # ReflectorId -> reason string


class ControlPlane:
    """Link quality, tree optimization, routing install and gateway flow."""

    def __init__(
        self,
        config: OverlayConfig,
        transport: Callable[[ReflectorId, RoutingTable], None],
    ):
        self.config = config
        self.transport = transport  # raises when the reflector is unreachable
        self.registry = Registry(
            heartbeat_interval_ms=config.heartbeat_interval_ms,
            liveness_intervals=config.liveness_intervals,
        )
        self.supervisor = Supervisor(config.k_miss, recipients=config.admins)
        self.filters: dict = {}  # link key -> QualityFactor; outlives dropped links
        self.tree: Optional[TreeResult] = None
        self.tables: dict = {}   # reflector id -> last published RoutingTable
        self.epoch = 0           # epoch of the last install; 0 before the first

    def observe_link(self, stats: LinkStats) -> QualityFactor:
        """Fold one link measurement into its filter and report it."""
        key = stats.link
        prev = self.filters.get(key, QualityFactor(link=key, alpha=self.config.alpha))
        sample = raw_quality(stats.loss_fraction, stats.rtt_ms, self.config.rtt_ref_ms)
        current = update_ewma(prev, sample, stats.sampled_at)
        self.filters[key] = current
        self.registry.report_link(stats, current)
        return current

    def register(self, entry: RegistryEntry) -> int:
        """Admit a reflector and watch it; returns the registry's epoch.

        A Failed reflector that registers again has been restarted, so its
        supervision resumes; that is the only way out of Failed.
        """
        epoch = self.registry.register(entry)
        if self.supervisor.watch(entry.reflector).state is HealthState.FAILED:
            self.supervisor.clear_failed(entry.reflector)
        return epoch

    def deregister(self, reflector: ReflectorId) -> None:
        """Forget a reflector that left on purpose, filters included."""
        self.registry.deregister(reflector)
        self.supervisor.unwatch(reflector)
        for key in [k for k in self.filters if reflector in k]:
            del self.filters[key]

    def cycle(self, now: float) -> Optional[DeliveryReport]:
        """One optimizer period; reports the install it made, if any.

        After an install, ``tree`` and ``tables`` hold what was installed.
        """
        self.registry.expire(now)
        live = frozenset(e.reflector for e in self.registry.entries())
        graph = build_graph(
            live - self.supervisor.failed(), self.registry.links(), self.config.q_min
        )
        candidate = min_spanning_tree(graph)
        if (
            self.tree is None
            or self.tree.covers != candidate.covers
            or self.tree.components != candidate.components
        ):
            # Topology membership changed (registration, expiry, or a split
            # component rejoining): the gate only arbitrates same-shape trees.
            install = True
        else:
            current, dead = reweigh_tree(self.tree, graph)
            install = should_reroute(
                current, candidate, self.config.delta, dead
            ) is Reroute.INSTALL
        done = self._install(candidate) if install and candidate.covers else None

        if self.config.gateway_pair is not None:
            src, dst = self.config.gateway_pair
            if src in graph.vertices and dst in graph.vertices and src != dst:
                flow = max_flow(graph, src, dst)
                self.registry.set_flow(
                    FlowSummary(
                        source=src,
                        sink=dst,
                        value=flow.value,
                        edges=flow.positive_flow_edges(),
                    )
                )
            else:
                self.registry.set_flow(None)
        return done

    def _install(self, tree: TreeResult) -> DeliveryReport:
        self.epoch += 1
        members_by_room = {}
        for room, hosts in self.registry.room_members().items():
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
        self.registry.set_tree(tree.edges)
        self.tree = tree
        return report
