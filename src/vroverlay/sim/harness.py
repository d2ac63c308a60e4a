"""Whole-overlay simulation: every module wired over the event loop.

One OverlaySim owns the reflector engines, the metric service and a
Registry (leases, quality filters, optimizer cycle, routing installs,
supervisor; the registry daemon runs the same class), all driven by the
discrete-event clock. Media packets travel over simulated links (latency, loss,
serialization delay); control traffic (heartbeats, advertisements, routing
installs, probes) is delivered in-process at event time, gated on the
target being alive and un-partitioned.

Each fault is kept once: `SimLink.up` as `set_link` scripted it, the
partition as `isolated`, from which each link's `cut` flag is derived.
`_reachable` is the one availability test; restarts and heals share
`_rejoin`, so an isolated reflector's restart waits for the heal.

Fixed ordering keeps runs bit-deterministic: periodic work fires in the
order heartbeats, monitor tick, optimizer cycle, snapshot publish,
supervision; all iteration is over sorted ids; scenario events at time t
run before the periodic work of time t. Two runs of the same (scenario,
seed) produce identical traces.

Built-in invariant checks record violations instead of raising: routing
loops (a packet revisiting a reflector), duplicate deliveries to one
client, and any end-of-run expectations the scenario declares.

The trace is encoded and hashed while the run goes. Each event is written
at once as its JSON line, `json.dumps(event, sort_keys=True)` byte for
byte, by a `%r` template declared for its kind in `_TRACE_FIELDS`; the log
holds lines, not event dicts. `forward` and `deliver` lines fill their
templates in place, and `_now_text` formats each clock time once for all
the lines at that time. Every 256 lines feed one running sha256 and go
to an unlinked temporary file, so the trace costs constant memory.
`SimReport.trace` is an iterable over that file that decodes each event as
it is reached; `trace_hash()` is the running digest and `write_trace`
(`sim run --trace FILE`) copies the file, so it hashes to the printed hash.
"""
from __future__ import annotations

import hashlib
import json
import tempfile
import weakref
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType

from ..config import OverlayConfig, apply_overrides
from ..errors import LinkDown, OverlayError, RegistryUnreachable
from ..model import NO_ID, LinkStats
from ..monitor import MetricCollector, MonitorService
from ..reflector import ReflectorEngine
from ..registry import Registry
from ..supervisor import NotificationEvent, ProbeResult, RestartCommand
from ..wire import HEADER_SIZE
from .core import EventLoop, SimLink, SimNetwork
from .scenario import (
    InjectTraffic,
    KillReflector,
    Partition,
    RestartOutcomes,
    Scenario,
    SetLink,
)


def _synthetic_load(reflector_id: int, now: float) -> float:
    """Deterministic stand-in for a host load sampler."""
    return round(0.1 + 0.05 * ((reflector_id + int(now) // 10_000) % 5), 3)


@dataclass
class SimNode:
    id: int
    region: str
    engine: ReflectorEngine
    collector: MetricCollector
    alive: bool = True
    probe_garbage: bool = False  # scripted malformed probe replies
    restart_outcomes: deque = field(default_factory=deque)


@dataclass
class MediaCounters:
    injected: int = 0
    inject_skipped: int = 0
    delivered: int = 0
    dropped_link_down: int = 0
    dropped_dead_peer: int = 0


_CHUNK_EVENTS = 256  # lines hashed at a time: about 28 KiB of text, one bytes object

# Every trace kind's fields in sorted-key order, the order in which `_trace`
# takes their values. A field in _JSON_FIELDS holds a str, bool or list and is
# written with `json.dumps`; any other holds an int or a finite float, which
# `%r` writes exactly as `json.dumps` does.
_TRACE_FIELDS = {
    "register": ("reflector", "region"),
    "violation": ("message",),
    "resync_routing": ("epoch", "reflector"),
    "install_failed": ("reason", "reflector"),
    "routing": ("acks", "edges", "epoch", "failures", "total_weight"),
    "snapshot": ("epoch", "reflectors"),
    "notification": ("reason", "recipients", "reflector"),
    "restart": ("attempt", "ok", "reflector"),
    "restart_outcomes": ("outcomes", "reflector"),
    "set_link": ("a", "b", "params"),
    "kill": ("reflector",),
    "partition": ("isolated",),
    "inject_skipped": ("reflector", "room", "src"),
    "inject": ("reflector", "room", "seq", "src"),
    "forward": ("epoch", "fanout", "reflector", "room", "seq", "src"),
    "deliver": ("client", "reflector", "room", "seq", "src"),
    "drop": ("a", "b", "reason", "room", "seq", "src"),
}
_JSON_FIELDS = frozenset(("reason", "message", "region", "ok", "outcomes", "edges", "params",
                          "recipients", "reflectors", "isolated"))


def _template(kind: str, fields: tuple) -> tuple:
    """(line template, positions of the JSON-encoded fields, position of `t`).

    The template is the event's sorted JSON object with the `kind` string
    written in and one slot per other key: `%s` for a JSON-encoded field and
    for the text of `t`, `%r` for the rest, filled in sorted-key order.
    """
    slots = ['"%s": %s' % (name, json.dumps(kind) if name == "kind"
                           else "%s" if name in _JSON_FIELDS or name == "t" else "%r")
             for name in sorted(fields + ("t", "kind"))]
    encoded = frozenset(i for i, name in enumerate(fields) if name in _JSON_FIELDS)
    return "{%s}" % ", ".join(slots), encoded, sum(name < "t" for name in fields)


_TRACE_TEMPLATES = {kind: _template(kind, fields) for kind, fields in _TRACE_FIELDS.items()}
# The hop kinds, written in place by the media plane; `t` is their last slot.
_FORWARD = _TRACE_TEMPLATES["forward"][0]
_DELIVER = _TRACE_TEMPLATES["deliver"][0]


class _TraceLog:
    """The run's trace, kept only as the JSON-lines text that `write_trace` writes, in a file.

    `OverlaySim._trace` hands over each event as its finished line. Lines
    wait in a list until `_CHUNK_EVENTS` have come, then are joined, fed to a
    running sha256 (no second pass) and appended to an unlinked temporary
    file, opened at the first flush and closed when the log is collected;
    each reader keeps its own offset in it. Iterating decodes lines with
    `json.loads`; each line is exactly `json.dumps(event, sort_keys=True)`,
    so a decoded event equals the traced one.
    """

    def __init__(self):
        self._pending: list = []    # lines not yet hashed
        self._file = None           # the hashed lines, opened at the first flush
        self._encoded = 0           # events in _file
        self._digest = hashlib.sha256()

    def append(self, line: str) -> None:
        pending = self._pending
        pending.append(line)
        if len(pending) == _CHUNK_EVENTS:
            self.flush()

    def flush(self) -> None:
        """Hash the lines still waiting and append them to the file."""
        if self._pending:
            chunk = ("\n".join(self._pending) + "\n").encode()
            self._digest.update(chunk)
            if self._file is None:
                self._file = tempfile.TemporaryFile()
                weakref.finalize(self, self._file.close)
            self._file.seek(0, 2)  # a reader may have moved the position
            self._file.write(chunk)
            self._encoded += len(self._pending)
            self._pending.clear()

    def hexdigest(self) -> str:
        self.flush()
        return self._digest.hexdigest()

    def _blocks(self):
        """Every line in the file, in lists of whole lines of about 64 KiB."""
        self.flush()
        offset = 0
        while self._file is not None:
            self._file.seek(offset)
            lines = self._file.readlines(1 << 16)
            if not lines:
                return
            offset = self._file.tell()
            yield lines

    def write(self, fh) -> None:
        for lines in self._blocks():
            fh.write(b"".join(lines).decode())

    def __len__(self) -> int:
        return self._encoded + len(self._pending)

    def __iter__(self):
        for lines in self._blocks():
            for line in lines:
                yield json.loads(line)


@dataclass
class SimReport:
    scenario: str
    seed: int
    duration_ms: float
    media: MediaCounters
    transmissions_sent: int
    transmissions_delivered: int
    transmissions_lost: int
    transmissions_in_flight: int
    unknown_room_drops: int
    routing_epochs: list
    notifications: list
    violations: list
    trace: _TraceLog

    def ok(self) -> bool:
        return not self.violations

    def trace_hash(self) -> str:
        """sha256 of the JSON-lines trace that `write_trace` writes."""
        return self.trace.hexdigest()

    def write_trace(self, fh) -> None:
        """Write the trace to a text file, one `json.dumps(event, sort_keys=True)` per line."""
        self.trace.write(fh)

    def summary_lines(self) -> list:
        lines = [
            "scenario: %s (seed %d, %.0f ms)" % (self.scenario, self.seed, self.duration_ms),
            "packets: injected=%d delivered=%d loss_drops=%d link_down_drops=%d dead_peer_drops=%d"
            % (self.media.injected, self.media.delivered, self.transmissions_lost,
               self.media.dropped_link_down, self.media.dropped_dead_peer),
            "transmissions: sent=%d delivered=%d lost=%d in_flight=%d"
            % (self.transmissions_sent, self.transmissions_delivered, self.transmissions_lost,
               self.transmissions_in_flight),
            "drops: unknown_room=%d" % self.unknown_room_drops,
            "routing epochs installed: %s" % (self.routing_epochs or "none"),
            "notifications: %d" % len(self.notifications),
        ]
        if self.violations:
            lines.append("violations (%d):" % len(self.violations))
            lines.extend("  - %s" % v for v in self.violations)
        else:
            lines.append("violations: none")
        return lines


class OverlaySim:
    """Deterministic simulation of one scenario."""

    _t_at = None  # the nonzero float clock time whose text `_t_text` holds
    _t_text = ""

    def __init__(self, scenario: Scenario, monitoring: bool = True):
        self.scenario = scenario
        self.config = apply_overrides(
            OverlayConfig(), {"gateway_pair": scenario.gateway_pair, **scenario.config}
        )
        self.monitoring = monitoring
        self.loop = EventLoop()
        self.net = SimNetwork(self.loop, scenario.seed)
        self.trace = _TraceLog()
        self.violations: list = []
        self.media = MediaCounters()
        self.isolated: set = set()  # the partition: every cut link has one end here

        self.notifications: list = []  # NotificationEvents, in supervision order
        # The registry reaches the simulator only through a weak reference and
        # `run` empties the event queue as it ends, so a finished simulator, and
        # its open trace file, go with its last reference, not at a collection.
        install = weakref.WeakMethod(self._install_table)
        self.registry = Registry(self.config, lambda rid, table: install()(rid, table))
        self.supervisor = self.registry.supervisor
        self.monitor = MonitorService(
            series_capacity=self.config.series_capacity,
            budget_bytes=self.config.budget_bytes,
        )
        self.nodes: dict = {}         # reflector id -> SimNode
        self.client_home: dict = {}   # client id -> reflector id
        self.room_clients: dict = {}  # room id -> set of client ids
        # packet key -> {client: count}; once a packet has reached each of its
        # receivers exactly once, the read-only {client: 1} that every packet
        # with that receiver set shares, kept in `_retired`
        self.delivered_to: dict = {}
        self.expected_receivers: dict = {}  # packet key -> frozenset of clients
        self._retired: dict = {}      # frozenset of clients -> MappingProxyType {client: 1}
        self._streams: dict = {}      # (room, src) -> (last seq, frozenset of its receivers)

        for spec in scenario.reflectors:
            self._create_node(spec.id, spec.region, register_at=0.0)
        for spec in scenario.links:
            self.net.add_link(SimLink(spec.a, spec.b, spec.latency_ms, spec.loss,
                                      spec.bandwidth_kbps))
        for spec in scenario.clients:
            self.client_home[spec.id] = spec.reflector
            self.nodes[spec.reflector].engine.attach_client(spec.id)
        for spec in scenario.rooms:
            self.room_clients[spec.id] = set(spec.members)
            for client in spec.members:
                self.nodes[self.client_home[client]].engine.join_room(client, spec.id)
        for rid in sorted(self.nodes):
            self.registry.advertise_membership(rid, self.nodes[rid].engine.local_rooms())

        # Periodic work; relative order at equal times is fixed by insertion.
        self.loop.schedule(0.0, self._heartbeat_tick)
        self.loop.schedule(0.0, self._monitor_tick)
        self.loop.schedule(0.0, self._optimizer_cycle)
        self.loop.schedule(0.0, self._publish_tick)
        self.loop.schedule(0.0, self._supervise_tick)
        for event in scenario.events:
            self.loop.schedule(event.t, self._apply_event, event)

    # --- construction helpers ---

    def _create_node(self, rid: int, region: str, register_at: float) -> SimNode:
        node = SimNode(
            id=rid,
            region=region,
            engine=ReflectorEngine(rid),
            collector=MetricCollector(rid, load_sampler=_synthetic_load, started_at=register_at),
        )
        self.nodes[rid] = node
        self._register(node, register_at)
        return node

    def _register(self, node: SimNode, at: float) -> None:
        self.registry.register(node.id, "sim://%d" % node.id, node.region, at)

    def add_reflector(self, rid: int, region: str = "", link_to=None, **link_params) -> SimNode:
        """Bring a brand-new reflector into the running overlay."""
        node = self._create_node(rid, region, register_at=self.loop.now)
        self._trace("register", rid, region)
        if link_to is not None:
            link = self.net.add_link(SimLink(a=rid, b=link_to, **link_params))
            link.cut = (rid in self.isolated) != (link_to in self.isolated)
        return node

    def schedule(self, at: float, fn) -> None:
        self.loop.schedule(at, fn)

    # --- tracing ---

    def _now_text(self) -> str:
        """`repr` of the clock, reused for an equal nonzero float (0.0 == -0.0, 5 == 5.0)."""
        now = self.loop.now
        if now is not self._t_at and not (now == self._t_at and type(now) is float):
            self._t_text = repr(now)
            self._t_at = now if now and type(now) is float else None
        return self._t_text

    def _trace(self, kind: str, *values) -> None:
        """Trace one event: its fields' values in `_TRACE_FIELDS` order."""
        template, encoded, t_at = _TRACE_TEMPLATES[kind]
        if encoded:
            values = [json.dumps(v) if i in encoded else v for i, v in enumerate(values)]
        self.trace.append(template % (*values[:t_at], self._now_text(), *values[t_at:]))

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        self._trace("violation", message)

    # --- control-plane reachability ---

    def _reachable(self, rid: int) -> bool:
        """The one availability test: the reflector exists, runs and is not isolated."""
        node = self.nodes.get(rid)
        return node is not None and node.alive and rid not in self.isolated

    def _rejoin(self, rid: int) -> None:
        """A reflector back from a restart or a partition, if reachable: it
        registers again when its lease has lapsed, advertises its rooms and
        fetches the current epoch's table."""
        if not self._reachable(rid):
            return
        node = self.nodes[rid]
        if not self.registry.is_live(rid):
            self._register(node, self.loop.now)
        self.registry.advertise_membership(rid, node.engine.local_rooms())
        table = self.registry.tables.get(rid)
        if table is not None and node.engine.routing.epoch < table.epoch:
            node.engine.swap_routing_table(table)
            self._trace("resync_routing", table.epoch, rid)

    # --- periodic work ---

    def _heartbeat_tick(self) -> None:
        for rid in sorted(self.nodes):
            if self._reachable(rid) and self.registry.is_live(rid):
                self.registry.heartbeat(rid, self.loop.now)
        self.loop.schedule_in(self.config.heartbeat_interval_ms, self._heartbeat_tick)

    def _monitor_tick(self) -> None:
        now = self.loop.now
        per_node_links: dict = {rid: [] for rid in self.nodes}
        reachable = {rid for rid in self.nodes if self._reachable(rid)}
        for key in sorted(self.net.links):
            link = self.net.links[key]
            a, b = key
            if not (link.up and a in reachable and b in reachable):
                self.registry.drop_link(a, b)
                continue
            stats = LinkStats(
                link=key,
                rtt_ms=2.0 * link.latency_ms,
                loss_fraction=link.loss_probability,
                capacity_kbps=link.bandwidth_kbps,
                sampled_at=now,
            )
            self.registry.observe_link(stats)
            per_node_links[a].append(stats)
            per_node_links[b].append(stats)
        if self.monitoring:
            samples = []
            for rid in sorted(self.nodes):
                node = self.nodes[rid]
                if node.alive:
                    samples += node.collector.collect(
                        node.engine, per_node_links[rid], self.registry.filters, now)
            self.monitor.record(samples)
        self.loop.schedule_in(self.config.monitor_interval_ms, self._monitor_tick)

    def _optimizer_cycle(self) -> None:
        report = self.registry.cycle(self.loop.now)
        if report is not None:
            tree = self.registry.tree
            for rid, reason in sorted(report.failures.items()):
                self._trace("install_failed", reason, rid)
            self._trace("routing", len(report.acks), sorted(list(e) for e in tree.edges),
                        report.epoch, len(report.failures), round(tree.total_weight, 9))
        self.loop.schedule_in(self.config.optimizer_period_ms, self._optimizer_cycle)

    def _install_table(self, rid: int, table) -> None:
        if not self._reachable(rid):
            raise RegistryUnreachable("reflector %d unreachable" % rid)
        self.nodes[rid].engine.swap_routing_table(table)

    def _publish_tick(self) -> None:
        snapshot = self.registry.publish_snapshot(self.loop.now)
        self._trace("snapshot", snapshot.epoch, sorted(e.reflector for e in snapshot.reflectors))
        self.loop.schedule_in(self.config.publish_interval_ms, self._publish_tick)

    def _supervise_tick(self) -> None:
        now = self.loop.now
        results = {}
        for rid in self.supervisor.probe_targets():
            ok = self._reachable(rid) and not self.nodes[rid].probe_garbage
            results[rid] = ProbeResult.OK if ok else ProbeResult.NO_ANSWER
        for action in self.supervisor.supervise_tick(results, now):
            if isinstance(action, RestartCommand):
                self._run_restart(action)
            elif isinstance(action, NotificationEvent):
                self.notifications.append(action)
                self._trace("notification", action.reason, list(action.recipients),
                            action.reflector)
        self.loop.schedule_in(self.config.probe_interval_ms, self._supervise_tick)

    def _run_restart(self, command: RestartCommand) -> None:
        node = self.nodes[command.reflector]
        ok = node.restart_outcomes.popleft() if node.restart_outcomes else True
        self._trace("restart", command.attempt, ok, node.id)
        if not ok:
            return
        node.alive = True
        node.probe_garbage = False
        self._rejoin(node.id)

    # --- scenario events ---

    def _apply_event(self, event) -> None:
        if isinstance(event, KillReflector):
            self.kill_reflector(event.reflector)
        elif isinstance(event, RestartOutcomes):
            self.nodes[event.reflector].restart_outcomes.extend(event.outcomes)
            self._trace("restart_outcomes", list(event.outcomes), event.reflector)
        elif isinstance(event, SetLink):
            self.net.set_link(event.a, event.b, **dict(event.params))
            self._trace("set_link", event.a, event.b,
                        [list(param) for param in sorted(event.params)])
        elif isinstance(event, InjectTraffic):
            for i in range(event.count):
                at = event.t + i * event.interval_ms
                self.loop.schedule(max(at, self.loop.now), self._inject_one, event)
        elif isinstance(event, Partition):
            self.set_partition(event.isolated)
        else:
            raise OverlayError("unknown scenario event %r" % (event,))

    def kill_reflector(self, rid: int) -> None:
        self.nodes[rid].alive = False
        self._trace("kill", rid)

    def set_partition(self, isolated) -> None:
        """Isolate exactly these reflectors; each link with one end among them is cut."""
        freed = self.isolated - set(isolated)
        self.isolated = set(isolated)
        for (a, b), link in self.net.links.items():
            link.cut = (a in self.isolated) != (b in self.isolated)
        self._trace("partition", sorted(self.isolated))
        for rid in sorted(freed):
            self._rejoin(rid)

    # --- media plane ---

    def _inject_one(self, event: InjectTraffic) -> None:
        home = self.client_home[event.src]
        node = self.nodes[home]
        if not node.alive:
            self.media.inject_skipped += 1
            self._trace("inject_skipped", home, event.room, event.src)
            return
        stream = (event.room, event.src)
        seq, receivers = self._streams.get(stream) or (
            0, frozenset(self.room_clients[event.room] - {event.src}))
        seq += 1
        self._streams[stream] = (seq, receivers)
        packet = (event.room, event.src, seq)
        self.media.injected += 1
        self.delivered_to[packet] = {}
        self.expected_receivers[packet] = receivers  # one set per stream; rooms never change
        self._trace("inject", home, event.room, seq, event.src)
        self._forward_at(node, packet, HEADER_SIZE + event.payload_bytes, NO_ID, trail=(home,))

    # A packet in flight is its (room, src, seq) key plus its size on the wire.

    def _forward_at(self, node: SimNode, packet: tuple, nbytes: int, from_peer: int,
                    trail) -> None:
        room, src, seq = packet
        rid = node.id
        epoch = node.engine.routing.epoch
        clients, peers, sent = node.engine.forward(room, src, nbytes, from_peer)
        t = self._now_text()
        self.trace.append(_FORWARD % (epoch, sent, rid, room, seq, src, t))
        for client in clients:
            self._deliver_local(rid, packet, client, t)
        for peer in peers:
            try:
                at = self.net.transmit(rid, peer, nbytes,
                                       self._receive_peer, peer, packet, nbytes, rid, trail)
            except LinkDown:
                self.media.dropped_link_down += 1
                self._trace("drop", rid, peer, "link_down", room, seq, src)
                continue
            if at is None:
                self._trace("drop", rid, peer, "loss", room, seq, src)

    def _deliver_local(self, rid: int, packet: tuple, client: int, t: str) -> None:
        """Deliver to a local client; `t` is the clock's text for the trace line.

        The first delivery that completes a packet's receivers, each once and
        no one else, retires its counts to the shared read-only record; a
        later delivery copies that record back to a dict before counting.
        """
        counts = self.delivered_to[packet]
        if type(counts) is not dict:
            counts = self.delivered_to[packet] = dict(counts)
        got = counts[client] = counts.get(client, 0) + 1
        self.media.delivered += 1
        if got > 1:
            self._violate("duplicate delivery of packet %s to client %d" % (packet, client))
        else:
            receivers = self.expected_receivers[packet]
            if counts.keys() == receivers and sum(counts.values()) == len(receivers):
                self.delivered_to[packet] = self._retired.setdefault(
                    receivers, MappingProxyType(counts))
        room, src, seq = packet
        self.trace.append(_DELIVER % (client, rid, room, seq, src, t))

    def _receive_peer(self, rid: int, packet: tuple, nbytes: int, from_rid: int, trail) -> None:
        node = self.nodes[rid]
        if not node.alive:
            self.media.dropped_dead_peer += 1
            room, src, seq = packet
            self._trace("drop", from_rid, rid, "dead_peer", room, seq, src)
            return
        if rid in trail:
            self._violate("routing loop: packet %s revisited reflector %d (trail %s)"
                          % (packet, rid, list(trail)))
            return
        self._forward_at(node, packet, nbytes, from_rid, trail + (rid,))

    # --- running and reporting ---

    def run(self) -> SimReport:
        self.loop.run_until(self.scenario.duration_ms)
        self.loop._queue.clear()  # events past the end never run, and each holds the simulator
        self._check_expectations()
        self.trace.flush()
        sent = sum(c.sent for c in self.net.counters.values())
        delivered = sum(c.delivered for c in self.net.counters.values())
        lost = sum(c.lost for c in self.net.counters.values())
        return SimReport(
            scenario=self.scenario.name,
            seed=self.scenario.seed,
            duration_ms=self.scenario.duration_ms,
            media=self.media,
            transmissions_sent=sent,
            transmissions_delivered=delivered,
            transmissions_lost=lost,
            transmissions_in_flight=sent - delivered - lost,
            unknown_room_drops=sum(
                n.engine.counters.unknown_room_drops for n in self.nodes.values()
            ),
            routing_epochs=list(range(1, self.registry.epoch + 1)),
            notifications=list(self.notifications),
            violations=list(self.violations),
            trace=self.trace,
        )

    def _check_expectations(self) -> None:
        expect = self.scenario.expect
        if expect.get("exactly_once"):
            for key in sorted(self.delivered_to):
                counts = self.delivered_to[key]
                expected = self.expected_receivers.get(key, frozenset())
                for client in sorted(expected):
                    got = counts.get(client, 0)
                    if got != 1:
                        self._violate(
                            "packet %s delivered %d times to client %d, expected exactly once"
                            % (key, got, client)
                        )
                for client in sorted(set(counts) - set(expected)):
                    self._violate(
                        "packet %s delivered to unexpected client %d" % (key, client)
                    )
        if "notifications" in expect:
            got = len(self.notifications)
            if got != expect["notifications"]:
                self._violate(
                    "expected %d notifications, got %d" % (expect["notifications"], got)
                )
        epochs = self.registry.epoch
        if "min_routing_epochs" in expect and epochs < expect["min_routing_epochs"]:
            self._violate(
                "expected at least %d routing epochs, got %d"
                % (expect["min_routing_epochs"], epochs)
            )
        if "max_routing_epochs" in expect and epochs > expect["max_routing_epochs"]:
            self._violate(
                "expected at most %d routing epochs, got %d"
                % (expect["max_routing_epochs"], epochs)
            )

