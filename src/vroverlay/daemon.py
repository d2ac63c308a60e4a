"""Socket daemons: a registry service and a reflector process.

Both speak the newline-delimited JSON control protocol (protocol.md). The
registry daemon accepts reflector registrations, heartbeats, membership
adverts, and uplinked metric events; it publishes topology snapshots and
fans metric/notification events out to subscribers, and supervises
reflectors by heartbeat age. Each notification also goes to stderr as one
JSON line. A request that fails is answered with one negative ack whose
error reads "<error type>: <message>". Link quality, the optimizer cycle,
routing install and gateway flow run in its one Registry (registry.py), the
same class the simulator drives, over the links that
Registry.observe_uplink derives from uplinked peer.<id>.rtt_ms samples.
Route installs are event-driven: when a pass of control lines changes the
routing inputs (a registration, a changed room set, a link's first
sample), one optimizer cycle runs at the next loop pass, and never sooner
after the last cycle than that cycle took, so a storm of changes costs at
most about half the loop. The optimizer period is only a refresh
bound. Leases run on the registry's clock. A reflector that registers gets
its table from the last install, if it has one, right after the ack.

A reflector daemon keeps one control connection to the registry, serves a
media port where clients and peer reflectors connect (one JSON hello line,
then framed media packets, relayed as they arrived after one header check),
applies pushed routing tables, advertises its rooms once per client hello
and once per client disconnect, and probes its peers and uplinks its
monitoring samples as its loop starts and then every collection interval.
Nacked as an unknown reflector, it registers again.

Each daemon runs its sockets and timers on one selectors loop thread, so
the registry and the reflector engine see one caller at a time
and need no lock. No socket blocks the loop. A media pass queues each
relayed frame on its destinations, then flushes each destination once, with
one sendmsg of everything it queued. A frame is dropped only when its
destination's queue is full and the socket still cannot take more: then the
oldest frame not yet started goes, and is counted, so a stalled receiver
loses only its own frames. Every connection sets TCP_NODELAY, or small
frames wait on Nagle's algorithm and delayed ACKs. A line longer than
MAX_LINE closes its connection.

Daemon mode reuses the exact module code the simulator drives, but runs on
wall clock and real sockets, so it sits outside the determinism guarantees.
"""
from __future__ import annotations

import heapq
import itertools
import json
import logging
import selectors
import socket
import sys
import threading
import time
from collections import deque
from functools import partial
from typing import Callable, Optional

from .config import OverlayConfig
from .errors import (
    ConfigError,
    OverlayError,
    RegistryUnreachable,
    SchemaError,
    Truncated,
)
from .model import NO_ID, LinkStats, link_key
from .monitor import MetricCollector, MonitorService, compile_pattern
from .protocol import (
    decode_message,
    encode_message,
    make_ack,
    make_advertise,
    make_deregister,
    make_heartbeat,
    make_hello_peer,
    make_install_routing,
    make_metric_event,
    make_notification_event,
    make_probe,
    make_probe_reply,
    make_register,
    make_snapshot,
    metric_sample_from_event,
    routing_table_from_message,
)
from .reflector import ReflectorEngine
from .registry import LINK_CAPACITY_KBPS, Registry
from .supervisor import NotificationEvent, ProbeResult, RestartCommand
from .wire import HEADER_SIZE, read_header

log = logging.getLogger("vroverlay.daemon")

MEDIA_QUEUE = 256          # frames a media connection holds before dropping
IOV_MAX = 1024             # buffers one sendmsg may take (Linux)
MAX_LINE = 8 << 20         # bytes a control line may take, newline included (protocol.md)


def parse_hostport(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not host or not port:
        raise ConfigError("expected HOST:PORT, got %r" % text)
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError("bad port in %r" % text) from None


def now_ms() -> float:
    return time.time() * 1000.0


class _Loop:
    """One selectors loop on one thread: connections, listeners and timers."""

    def __init__(self, final: Callable = lambda: None):
        self.sel = selectors.DefaultSelector()
        self.conns: set = set()
        self._timers: list = []            # heap of (due, seq, fn)
        self._seq = itertools.count()
        self._wake_r, self._wake_w = socket.socketpair()
        self.sel.register(self._wake_r, selectors.EVENT_READ, lambda mask: None)
        self._thread: Optional[threading.Thread] = None
        self._final = final                # runs on the loop thread as it stops
        self.stopped = threading.Event()

    def listen(self, address: tuple, on_accept: Callable) -> socket.socket:
        sock = socket.create_server(address, backlog=64)
        sock.setblocking(False)
        self.sel.register(sock, selectors.EVENT_READ, lambda mask: on_accept(sock.accept()[0]))
        return sock

    def call_later(self, delay_s: float, fn: Callable) -> None:
        heapq.heappush(self._timers, (time.monotonic() + delay_s, next(self._seq), fn))

    def every(self, interval_s: float, fn: Callable) -> None:
        def tick():
            self.call_later(interval_s, tick)
            fn()

        self.call_later(interval_s, tick)

    def start(self, name: str) -> None:
        """Run the loop on its own thread; after an early stop(), close instead."""
        if self.stopped.is_set():
            self.close()
            return
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """End the loop, run ``final`` on its thread and close every socket."""
        if self.stopped.is_set():
            return
        if self._thread is None:
            self.stopped.set()
            self._final()  # start() has not run the loop yet and closes up
            return
        self._wake_w.send(b"\0")  # before the flag: once it is set, the loop closes this
        self.stopped.set()
        self._thread.join(timeout=5.0)

    def wait(self) -> None:
        """Block until the loop stops; Ctrl-C stops it."""
        try:
            while not self.stopped.wait(0.5):
                pass
        except KeyboardInterrupt:
            self.stop()

    def close(self) -> None:
        for conn in list(self.conns):
            conn.on_close = None
            conn.close()
        for key in list(self.sel.get_map().values()):  # listeners, wake socket
            key.fileobj.close()
        self.sel.close()
        self._wake_w.close()

    def _run(self) -> None:
        while not self.stopped.is_set():
            timeout = max(0.0, self._timers[0][0] - time.monotonic()) if self._timers else None
            for key, mask in self.sel.select(timeout):
                self._guard(key.data, mask)
            while self._timers and self._timers[0][0] <= time.monotonic():
                self._guard(heapq.heappop(self._timers)[2])
        self._guard(self._final)
        self.close()

    @staticmethod
    def _guard(fn: Callable, *args) -> None:
        # One failing handler or timer must not stop the daemon.
        try:
            fn(*args)
        except Exception:
            log.exception("loop callback failed")


class _Conn:
    """A non-blocking socket on the loop: inbound bytes, bounded outbound chunks.

    ``on_data(conn)`` consumes what it can of ``conn.inbuf``. ``put`` queues a
    chunk and ``_flush`` sends the queue, many chunks to one sendmsg; ``send``
    does both. When ``limit`` chunks already wait, ``put`` flushes first, and
    only if they still wait drops the oldest and counts it in ``dropped``.
    The chunk going out (``head``) is always finished, so no frame is split.
    Errors close the connection, which calls ``on_close(conn)``.
    """

    def __init__(self, loop: _Loop, sock: socket.socket, on_data: Callable,
                 on_close: Optional[Callable] = None, limit: int = MEDIA_QUEUE):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.loop = loop
        self.sock = sock
        self.on_data = on_data
        self.on_close = on_close
        self.inbuf = bytearray()
        self._scanned = 0                         # inbuf bytes known to hold no newline
        self.head: Optional[memoryview] = None   # the chunk going out
        self.queue: deque = deque(maxlen=limit)
        self.dropped = 0
        self.closed = False
        self._mask = selectors.EVENT_READ
        loop.sel.register(sock, self._mask, self._ready)
        loop.conns.add(self)

    def put(self, data: bytes) -> None:
        if self.closed:
            return
        if len(self.queue) == self.queue.maxlen:
            self._flush()
            if len(self.queue) == self.queue.maxlen:
                self.dropped += 1  # appending pushes out the oldest
        self.queue.append(data)

    def send(self, data: bytes) -> None:
        self.put(data)
        self._flush()

    def send_msg(self, msg: dict) -> None:
        self.send(encode_message(msg).encode("utf-8"))

    def pop_line(self) -> Optional[str]:
        """Remove and return the first complete line of ``inbuf``, if there is one.

        The newline search resumes where the last one stopped. A line longer
        than MAX_LINE raises SchemaError, which closes the connection.
        """
        buf = self.inbuf
        end = buf.find(b"\n", self._scanned, MAX_LINE)
        if end < 0:
            if len(buf) >= MAX_LINE:
                raise SchemaError("line longer than %d bytes" % MAX_LINE)
            self._scanned = len(buf)
            return None
        self._scanned = 0
        line = buf[:end + 1].decode("utf-8", "replace")
        del buf[:end + 1]
        return line

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.loop.conns.discard(self)
        self.loop.sel.unregister(self.sock)
        self.sock.close()
        if self.on_close is not None:
            self.on_close(self)

    def _flush(self) -> None:
        """Send ``head`` and the queue, up to IOV_MAX chunks per sendmsg."""
        queue = self.queue
        try:
            while self.head is not None or queue:
                if self.head is None:
                    self.head = memoryview(queue.popleft())
                sent = self.sock.sendmsg([self.head, *itertools.islice(queue, IOV_MAX - 1)])
                if sent < len(self.head):
                    self.head = self.head[sent:]
                    continue
                sent -= len(self.head)
                self.head = None
                while sent:  # whole chunks went out; a partial one becomes head
                    if sent < len(queue[0]):
                        self.head = memoryview(queue.popleft())[sent:]
                        break
                    sent -= len(queue.popleft())
        except BlockingIOError:
            pass
        except OSError as exc:
            log.debug("connection closed: %s", exc)
            self.close()
            return
        mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.head is not None else 0)
        if mask != self._mask:
            self._mask = mask
            self.loop.sel.modify(self.sock, mask, self._ready)

    def _ready(self, mask) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush()
        if self.closed or not mask & selectors.EVENT_READ:
            return
        try:
            data = self.sock.recv(65536)
            if data:
                self.inbuf += data
                self.on_data(self)
                return
        except BlockingIOError:
            return
        except (OSError, OverlayError) as exc:
            log.debug("connection closed: %s", exc)
        except Exception:
            log.exception("closing connection after an unexpected error")
        self.close()


class RegistryDaemon:
    """Registry, monitor fanout, optimizer, and supervisor over TCP."""

    def __init__(self, config: OverlayConfig, listen: Optional[str] = None):
        self.config = config
        self.listen_address = parse_hostport(listen or config.registry_address)
        self.monitor = MonitorService(config.series_capacity, config.budget_bytes)
        self.registry = Registry(config, self._push_table)
        self.supervisor = self.registry.supervisor
        self._by_reflector: dict = {}     # reflector id -> control _Conn
        self._subscribers: dict = {}      # _Conn -> Subscription
        self._cycle_pending = False       # a prompt cycle is on the loop's timers
        self._next_cycle_at = 0.0         # monotonic time a prompt cycle may start
        self._loop = _Loop()

    def start(self) -> None:
        accept = partial(_Conn, self._loop, on_data=self._on_lines, on_close=self._on_close,
                         limit=self.config.subscriber_queue)
        self.port = self._loop.listen(self.listen_address, accept).getsockname()[1]
        self._loop.every(self.config.publish_interval_ms / 1000.0, self._publish)
        self._loop.every(self.config.optimizer_period_ms / 1000.0, self._optimize)
        self._loop.every(self.config.probe_interval_ms / 1000.0, self._supervise)
        self._loop.start("registry")
        log.info("registry listening on %s:%d", self.listen_address[0], self.port)

    def stop(self) -> None:
        self._loop.stop()

    def run_forever(self) -> None:
        self._loop.wait()

    # --- connection handling ---

    def _on_close(self, conn: _Conn) -> None:
        self._unsubscribe(conn)
        self._by_reflector = {r: c for r, c in self._by_reflector.items() if c is not conn}

    def _on_lines(self, conn: _Conn) -> None:
        while (line := conn.pop_line()) is not None:
            if not line.strip():
                continue
            try:
                self._dispatch(conn, decode_message(line))
            except OverlayError as exc:
                conn.send_msg(make_ack(False, error="%s: %s" % (type(exc).__name__, exc)))
        if self.registry.inputs_changed and not self._cycle_pending:
            self._cycle_pending = True
            self._loop.call_later(max(0.0, self._next_cycle_at - time.monotonic()),
                                  self._prompt_cycle)

    def _dispatch(self, conn: _Conn, msg: dict) -> None:
        kind = msg["kind"]
        if kind == "register":
            epoch = self.registry.register(msg["reflector"], msg["address"],
                                           msg.get("region", ""), now_ms())
            self._by_reflector[msg["reflector"]] = conn
            conn.send_msg(make_ack(True, epoch=epoch))
            table = self.registry.tables.get(msg["reflector"])
            if table is not None:  # a returning reflector's installed table
                self._push_table(msg["reflector"], table)
        elif kind == "deregister":
            self.registry.deregister(msg["reflector"])
            self._by_reflector.pop(msg["reflector"], None)
            conn.send_msg(make_ack(True))
        elif kind == "heartbeat":
            self.registry.heartbeat(msg["reflector"], now_ms())  # stamped on receipt
        elif kind == "advertise":
            self.registry.advertise_membership(msg["reflector"], set(msg["rooms"]))
        elif kind == "subscribe":
            # Checked before attaching: the ack must precede the heads of the
            # matching series, which subscribe() delivers at once.
            compile_pattern(msg["filter"])
            self._unsubscribe(conn)
            conn.send_msg(make_ack(True))
            sub = self.monitor.subscribe(
                msg["filter"],
                lambda sample: conn.send_msg(make_metric_event(sample)),
                reflectors=msg.get("reflectors"),
                min_interval_ms=msg.get("min_interval_ms", 0.0),
            )
            if conn.closed:  # sending the ack or a head failed; _on_close has run
                self.monitor.unsubscribe(sub.id)
                return
            self._subscribers[conn] = sub
            snap = self.registry.latest_snapshot
            if snap is not None:
                conn.send_msg(make_snapshot(snap))
        elif kind == "snapshot":
            snap = self.registry.latest_snapshot
            if snap is None:
                snap = self.registry.publish_snapshot(now_ms())
            conn.send_msg(make_snapshot(snap))
        elif kind == "event" and msg.get("event") == "metric":
            self.monitor.record(self.registry.observe_uplink(metric_sample_from_event(msg)))
        elif kind == "probe":
            conn.send_msg(make_probe_reply(0, self.registry.epoch))
        else:
            conn.send_msg(make_ack(False, error="unsupported kind %r" % kind))

    def _unsubscribe(self, conn: _Conn) -> None:
        sub = self._subscribers.pop(conn, None)
        if sub is not None:
            self.monitor.unsubscribe(sub.id)

    # --- periodic work (publish, optimize, supervise) ---

    def _publish(self) -> None:
        snap = self.registry.publish_snapshot(now_ms())
        for conn in list(self._subscribers):
            conn.send_msg(make_snapshot(snap))

    def _prompt_cycle(self) -> None:
        self._cycle_pending = False
        if self.registry.inputs_changed:  # else a periodic cycle took them
            self._optimize()

    def _optimize(self) -> None:
        started = time.monotonic()
        report = self.registry.cycle(now_ms())
        ended = time.monotonic()
        self._next_cycle_at = ended + (ended - started)
        if report is not None:
            log.info("routing epoch %d installed (%d acks, %d failures)",
                     report.epoch, len(report.acks), len(report.failures))

    def _push_table(self, rid: int, table) -> None:
        conn = self._by_reflector.get(rid)
        if conn is None:
            raise RegistryUnreachable("no control connection for reflector %d" % rid)
        conn.send_msg(make_install_routing(rid, table))

    def _supervise(self) -> None:
        now = now_ms()
        stale_after = self.config.heartbeat_interval_ms + self.config.probe_deadline_ms
        results = {}
        for rid in self.supervisor.probe_targets():
            entry = self.registry.entry(rid)
            alive = entry is not None and now - entry.last_heartbeat <= stale_after
            results[rid] = ProbeResult.OK if alive else ProbeResult.NO_ANSWER
        for action in self.supervisor.supervise_tick(results, now):
            if isinstance(action, RestartCommand):
                log.warning("restart requested for reflector %d (attempt %d); daemon mode "
                            "does not restart reflectors", action.reflector, action.attempt)
            elif isinstance(action, NotificationEvent):
                self._notify(action)

    def _notify(self, event: NotificationEvent) -> None:
        """One JSON line on stderr, one notification event to every subscriber."""
        line = json.dumps({"reflector": event.reflector, "reason": event.reason,
                           "at": event.at, "recipients": list(event.recipients)},
                          sort_keys=True)
        print(line, file=sys.stderr, flush=True)
        msg = make_notification_event(event.reflector, event.reason, event.at, event.recipients)
        for conn in list(self._subscribers):
            conn.send_msg(msg)


class ReflectorDaemon:
    """One reflector process: control link, media port, monitoring uplink."""

    def __init__(self, config: OverlayConfig, peers: Optional[dict] = None):
        if config.reflector_id < 1:
            raise ConfigError("reflector_id must be set (>= 1)")
        self.config = config
        self.engine = ReflectorEngine(config.reflector_id)
        self.collector = MetricCollector(config.reflector_id, started_at=now_ms())
        self.peers = dict(peers or {})      # peer id -> "host:port"
        self._peer_conns: dict = {}         # peer id -> _Conn carrying media
        self._probes: dict = {}             # peer id -> _Conn of the open probe round
        self._links: list = []              # LinkStats the open probe round measured
        self._control: Optional[_Conn] = None
        self.src_mismatch_drops = 0         # client frames sent under another id
        self._loop = _Loop(final=self._goodbye)

    @property
    def stopping(self) -> bool:
        return self._loop.stopped.is_set()

    def start(self) -> None:
        host, port = parse_hostport(self.config.listen)
        accept = partial(_Conn, self._loop, on_data=self._on_hello)
        self.port = self._loop.listen((host, port), accept).getsockname()[1]
        self._registration = make_register(self.config.reflector_id,
                                           "%s:%d" % (host, self.port), self.config.region)
        try:
            self._register()
        except BaseException:
            self._loop.close()
            raise
        self._loop.every(self.config.heartbeat_interval_ms / 1000.0, self._heartbeat)
        self._loop.every(self.config.monitor_interval_ms / 1000.0, self._probe_round)
        self._loop.call_later(0.0, self._probe_round)
        self._loop.start("reflector-%d" % self.config.reflector_id)
        log.info("reflector %d listening on %s:%d", self.config.reflector_id, host, self.port)

    def shutdown(self) -> None:
        """Deregister cleanly and stop the loop."""
        self._loop.stop()

    def run_forever(self) -> None:
        self._loop.wait()

    # --- control plane ---

    def _register(self) -> None:
        """Blocking register/ack exchange; any socket error is RegistryUnreachable."""
        registry = self.config.registry_address
        try:
            sock = socket.create_connection(parse_hostport(registry), timeout=5.0)
            conn = self._control = _Conn(self._loop, sock, self._on_control,
                                         limit=self.config.subscriber_queue)
            sock.settimeout(5.0)
            conn.send_msg(self._registration)
            while (line := conn.pop_line()) is None:
                data = sock.recv(4096)
                if not data:
                    raise RegistryUnreachable("registry closed the connection")
                conn.inbuf += data
            ack = decode_message(line)
        except (OSError, SchemaError) as exc:
            raise RegistryUnreachable("registry unreachable at %s: %s" % (registry, exc)) from None
        sock.setblocking(False)
        if ack["kind"] != "ack" or not ack["ok"]:
            raise RegistryUnreachable(ack.get("error", "registration rejected"))
        self._on_control(conn)  # whatever arrived together with the ack

    def _goodbye(self) -> None:
        if self._control is not None and not self._control.closed:
            # Blocking for a moment, so what is queued and the goodbye go out.
            self._control.sock.settimeout(1.0)
            self._control.send_msg(make_deregister(self.config.reflector_id))

    def _on_control(self, conn: _Conn) -> None:
        while (line := conn.pop_line()) is not None:
            try:
                msg = decode_message(line)
            except SchemaError:
                continue
            if msg["kind"] == "install_routing" and msg["reflector"] == self.config.reflector_id:
                try:
                    table = routing_table_from_message(msg)
                    if table.epoch != self.engine.routing.epoch:  # else a resync of this table
                        self.engine.swap_routing_table(table)
                except OverlayError as exc:
                    log.warning("rejected routing table: %s", exc)
            elif msg["kind"] == "ack" and msg.get("error", "").startswith("UnknownReflector: "):
                # Dropped (lease expired, or deregistered elsewhere): join again.
                conn.send_msg(self._registration)
                self._advertise()

    def _advertise(self) -> None:
        """Send the whole room set; each membership change sends it once."""
        self._control.send_msg(make_advertise(self.config.reflector_id,
                                              self.engine.local_rooms()))

    def _heartbeat(self) -> None:
        self._control.send_msg(make_heartbeat(self.config.reflector_id, now_ms()))

    def _probe_round(self) -> None:
        """Measure peer RTT over short probe connections, then uplink one collection.

        The collection goes out once every probe has answered, failed or hit
        the `probe_deadline_ms` deadline; no new round starts while one is open.
        """
        if self._probes:
            return
        self._links = []
        for peer_id, address in sorted(self.peers.items()):
            self._probes[peer_id] = self._connect(
                address, partial(self._probe_reply, peer_id, time.monotonic()),
                partial(self._probe_done, peer_id))
        probes = list(self._probes.values())
        # Every probe is open before any is sent, so one that fails at once
        # cannot end the round early.
        for conn in probes:
            conn.send_msg(make_probe())
        if not probes:
            self._probe_done(None, None)
        self._loop.call_later(self.config.probe_deadline_ms / 1000.0,
                              lambda: [conn.close() for conn in probes])

    def _probe_reply(self, peer_id: int, started: float, conn: _Conn) -> None:
        line = conn.pop_line()
        if line is None:
            return
        rtt_ms = (time.monotonic() - started) * 1000.0
        decode_message(line)  # a malformed reply closes the probe: no link
        self._links.append(LinkStats(
            link=link_key(self.config.reflector_id, peer_id), rtt_ms=rtt_ms, loss_fraction=0.0,
            capacity_kbps=LINK_CAPACITY_KBPS, sampled_at=now_ms()))
        conn.close()

    def _probe_done(self, peer_id: Optional[int], conn: Optional[_Conn]) -> None:
        self._probes.pop(peer_id, None)
        if not self._probes:
            samples = self.collector.collect(self.engine, self._links, None, now_ms())
            self._control.send(b"".join(
                encode_message(make_metric_event(s)).encode("utf-8") for s in samples))

    # --- media plane ---

    def _connect(self, address: str, on_data: Callable, on_close: Callable) -> _Conn:
        """Non-blocking connect; its completion or failure shows up on the loop."""
        conn = _Conn(self._loop, socket.socket(socket.AF_INET, socket.SOCK_STREAM),
                     on_data, on_close)
        try:
            conn.sock.connect_ex(parse_hostport(address))
        except OSError:  # the address does not resolve
            self._loop.call_later(0.0, conn.close)
        return conn

    def _on_hello(self, conn: _Conn) -> None:
        """Hello line decides the role; then the socket carries media frames."""
        line = conn.pop_line()
        if line is None:
            return
        hello = decode_message(line)
        if hello["kind"] == "probe":
            conn.send_msg(make_probe_reply(self.config.reflector_id, self.engine.routing.epoch))
            conn.close()
            return
        role = hello["role"] if hello["kind"] == "hello" else None
        if role == "client":
            client = hello["client"]
            self.engine.attach_client(client, conn)
            for room in hello.get("rooms", ()):
                self.engine.join_room(client, room)
            self._advertise()
            conn.on_data = partial(self._on_media, NO_ID, client)
            conn.on_close = partial(self._drop_client, client)
        elif role == "peer":
            peer = hello["reflector"]
            self._peer_conns.setdefault(peer, conn)
            conn.on_data = partial(self._on_media, peer, None)
            conn.on_close = partial(self._drop_peer, peer)
        else:
            conn.close()
            return
        conn.on_data(conn)  # frames that came with the hello

    def _on_media(self, from_peer: int, sender: Optional[int], conn: _Conn) -> None:
        """Check each whole frame's header, then relay its original bytes.

        The header is read in place (wire.read_header): no packet is built,
        and each relayed frame is copied once, into the bytes every
        destination shares. Frames are queued on their destinations, and
        each destination is flushed once when the pass ends, many frames to
        a sendmsg. A client connection may send only under the id
        it said hello with; a frame with another `src` is dropped and
        counted in `src_mismatch_drops`, and the connection stays open.
        Peer connections (`sender` None) relay any `src`.
        """
        buf = conn.inbuf
        offset = 0
        dests: dict = {}  # the destinations this pass queued for, in first-use order
        try:
            with memoryview(buf) as view:  # released before the consumed bytes are cut
                while len(buf) - offset >= HEADER_SIZE:
                    try:
                        room, src, _, _, _, _, end = read_header(buf, offset)
                    except Truncated:
                        break
                    start, offset = offset, end
                    if sender is not None and src != sender:
                        self.src_mismatch_drops += 1
                        continue
                    frame = bytes(view[start:end])
                    clients, peers, _ = self.engine.forward(room, src, end - start, from_peer)
                    for client in clients:
                        dest = self.engine.endpoint(client)
                        if dest is not None:
                            dest.put(frame)
                            dests[dest] = None
                    for peer in peers:
                        dest = self._peer_conn(peer)
                        if dest is not None:
                            dest.put(frame)
                            dests[dest] = None
        finally:  # a malformed frame still lets the good ones before it go out
            for dest in dests:
                dest._flush()
        del buf[:offset]

    def _peer_conn(self, peer: int) -> Optional[_Conn]:
        conn = self._peer_conns.get(peer)
        if conn is not None or peer not in self.peers:
            return conn
        conn = self._peer_conns[peer] = self._connect(
            self.peers[peer], partial(self._on_media, peer, None),
            partial(self._drop_peer, peer))
        conn.send_msg(make_hello_peer(self.config.reflector_id))
        return conn

    def _drop_client(self, client: int, conn: _Conn) -> None:
        # A later hello with the same id took over the endpoint: keep the client.
        if self.engine.endpoint(client) is conn:
            self.engine.detach_client(client)
            self._advertise()

    def _drop_peer(self, peer: int, conn: _Conn) -> None:
        if self._peer_conns.get(peer) is conn:
            del self._peer_conns[peer]
