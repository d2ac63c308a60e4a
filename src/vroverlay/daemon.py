"""Socket daemons: a registry service and a reflector process.

Both speak the newline-delimited JSON control protocol (protocol.md). The
registry accepts reflector registrations, heartbeats, membership adverts,
and uplinked metric events; it publishes topology snapshots and fans
metric/notification events out to subscribers, and supervises reflectors
by heartbeat age. Link quality, the optimizer cycle, routing install and
gateway flow run in the shared ControlPlane (control.py), the same one the
simulator drives, over links derived from uplinked peer metrics.

A reflector daemon keeps one control connection to the registry, serves a
media port where clients and peer reflectors connect (one JSON hello line,
then framed media packets), applies pushed routing tables, and uplinks its
monitoring samples every collection interval.

Daemon mode reuses the exact module code the simulator drives, but runs on
wall clock and real sockets, so it sits outside the determinism guarantees.
"""
from __future__ import annotations

import logging
import queue
import socket
import socketserver
import threading
import time
from typing import Optional

from .config import OverlayConfig
from .control import ControlPlane
from .errors import (
    ConfigError,
    DuplicateId,
    OverlayError,
    RegistryUnreachable,
    SchemaError,
    UnknownReflector,
)
from .model import LinkStats, link_key
from .monitor import MetricCollector, MetricSample, MonitorService
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
from .reflector import DeliverLocal, LocalClient, Peer, ReflectorEngine
from .registry import RegistryEntry
from .supervisor import HealthState, JsonLinesSink, NotificationEvent, ProbeResult, RestartCommand
from .wire import encode_media_packet, frame_size, read_media_packet

log = logging.getLogger("vroverlay.daemon")


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


class _LineConn:
    """One protocol connection: blocking reader, queued writer."""

    def __init__(self, sock: socket.socket, queue_size: int = 1024):
        self.sock = sock
        self.rfile = sock.makefile("r", encoding="utf-8", newline="\n")
        self._out: "queue.Queue" = queue.Queue(maxsize=queue_size)
        self.dropped = 0
        self.closed = threading.Event()
        self._writer = threading.Thread(target=self._drain, daemon=True)
        self._writer.start()

    def send(self, msg: dict) -> None:
        line = encode_message(msg)
        while True:
            try:
                self._out.put_nowait(line)
                return
            except queue.Full:
                try:
                    self._out.get_nowait()
                    self.dropped += 1
                except queue.Empty:
                    pass

    def _drain(self) -> None:
        while not self.closed.is_set():
            try:
                line = self._out.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                self.sock.sendall(line.encode("utf-8"))
            except OSError:
                self.close()
                return

    def readline(self) -> Optional[str]:
        try:
            line = self.rfile.readline()
        except OSError:
            return None
        return line if line else None

    def close(self) -> None:
        if self.closed.is_set():
            return
        self.closed.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class RegistryDaemon:
    """Registry, monitor fanout, optimizer, and supervisor over TCP."""

    DEFAULT_LINK_CAPACITY_KBPS = 10_000.0

    def __init__(self, config: OverlayConfig, listen: Optional[str] = None,
                 notification_stream=None):
        self.config = config
        self.listen_address = parse_hostport(listen or config.registry_address)
        self.monitor = MonitorService(config.series_capacity, config.budget_bytes)
        sink = JsonLinesSink(notification_stream) if notification_stream else _LogSink()
        self.control = ControlPlane(config, self._push_table, sink)
        self.registry = self.control.registry
        self.supervisor = self.control.supervisor
        self._notify_conns: set = set()
        self._lock = threading.RLock()
        self._conns: set = set()
        self._by_reflector: dict = {}     # reflector id -> _LineConn
        self._subscribers: dict = {}      # _LineConn -> Subscription
        self._server: Optional[socketserver.ThreadingTCPServer] = None
        self._stop = threading.Event()
        self._threads: list = []

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> None:
        daemon = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                daemon._serve_conn(self.request)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server(self.listen_address, Handler)
        self._threads = [
            threading.Thread(target=self._server.serve_forever, daemon=True),
            threading.Thread(target=self._periodic_loop, daemon=True),
        ]
        for t in self._threads:
            t.start()
        log.info("registry listening on %s:%d", *self._server.server_address[:2])

    def stop(self) -> None:
        self._stop.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def run_forever(self) -> None:
        try:
            while not self._stop.wait(0.5):
                pass
        except KeyboardInterrupt:
            self.stop()

    # --- connection handling ---

    def _serve_conn(self, sock: socket.socket) -> None:
        conn = _LineConn(sock, queue_size=self.config.subscriber_queue)
        with self._lock:
            self._conns.add(conn)
        reflector_id = None
        try:
            while True:
                line = conn.readline()
                if line is None:
                    break
                if not line.strip():
                    continue
                try:
                    msg = decode_message(line)
                except SchemaError as exc:
                    conn.send(make_ack(False, error="SchemaError: %s" % exc))
                    continue
                reflector_id = self._dispatch(conn, msg, reflector_id)
        finally:
            with self._lock:
                self._conns.discard(conn)
                self._subscribers.pop(conn, None)
                self._notify_conns.discard(conn)
                if reflector_id is not None and self._by_reflector.get(reflector_id) is conn:
                    del self._by_reflector[reflector_id]
            conn.close()

    def _dispatch(self, conn: _LineConn, msg: dict, reflector_id):
        kind = msg["kind"]
        with self._lock:
            if kind == "register":
                try:
                    epoch = self.registry.register(
                        RegistryEntry(
                            reflector=msg["reflector"],
                            control_address=msg["address"],
                            region=msg.get("region", ""),
                            registered_at=now_ms(),
                            last_heartbeat=now_ms(),
                        )
                    )
                except (DuplicateId, OverlayError) as exc:
                    conn.send(make_ack(False, error="%s: %s" % (type(exc).__name__, exc)))
                    return reflector_id
                self._by_reflector[msg["reflector"]] = conn
                record = self.supervisor.watch(msg["reflector"])
                if record.state is HealthState.FAILED:
                    # A restarted reflector re-registering is the only way
                    # out of Failed in daemon mode.
                    self.supervisor.clear_failed(msg["reflector"])
                conn.send(make_ack(True, epoch=epoch))
                return msg["reflector"]
            if kind == "deregister":
                try:
                    self.control.deregister(msg["reflector"])
                except UnknownReflector as exc:
                    conn.send(make_ack(False, error=str(exc)))
                    return reflector_id
                self._by_reflector.pop(msg["reflector"], None)
                conn.send(make_ack(True))
                return None
            if kind == "heartbeat":
                try:
                    self.registry.heartbeat(msg["reflector"], msg.get("at") or now_ms())
                except UnknownReflector:
                    conn.send(make_ack(False, error="UnknownReflector"))
                return reflector_id
            if kind == "advertise":
                try:
                    self.registry.advertise_membership(msg["reflector"], set(msg["rooms"]))
                except UnknownReflector:
                    conn.send(make_ack(False, error="UnknownReflector"))
                return reflector_id
            if kind == "subscribe":
                try:
                    sub = self.monitor.subscribe(
                        msg["filter"],
                        reflectors=msg.get("reflectors"),
                        min_interval_ms=msg.get("min_interval_ms", 0.0),
                    )
                except OverlayError as exc:
                    conn.send(make_ack(False, error="BadPattern: %s" % exc))
                    return reflector_id
                self._subscribers[conn] = sub
                self._notify_conns.add(conn)
                conn.send(make_ack(True))
                for sample in sub.drain():
                    conn.send(make_metric_event(sample))
                snap = self.registry.latest_snapshot
                if snap is not None:
                    conn.send(make_snapshot(snap))
                return reflector_id
            if kind == "snapshot":
                snap = self.registry.latest_snapshot
                if snap is None:
                    snap = self.registry.publish_snapshot(now_ms())
                conn.send(make_snapshot(snap))
                return reflector_id
            if kind == "event" and msg.get("event") == "metric":
                sample = metric_sample_from_event(msg)
                self.monitor.record(sample)
                self._derive_link(sample)
                self._flush_subscribers()
                return reflector_id
            if kind == "probe":
                conn.send(make_probe_reply(0, self.registry.routing_epoch))
                return reflector_id
        conn.send(make_ack(False, error="unsupported kind %r" % kind))
        return reflector_id

    def _derive_link(self, sample: MetricSample) -> None:
        """Uplinked peer.<id>.rtt_ms samples define the overlay's link table."""
        parts = sample.name.split(".")
        if len(parts) != 3 or parts[0] != "peer" or parts[2] != "rtt_ms":
            return
        try:
            peer = int(parts[1])
        except ValueError:
            return
        if peer == sample.reflector:
            return
        current = self.control.observe_link(
            LinkStats(
                link=link_key(sample.reflector, peer),
                rtt_ms=max(sample.value, 0.0),
                loss_fraction=0.0,
                capacity_kbps=self.DEFAULT_LINK_CAPACITY_KBPS,
                sampled_at=sample.at,
            )
        )
        self.monitor.record(
            MetricSample(sample.reflector, "peer.%d.quality" % peer, current.q, sample.at)
        )

    def _flush_subscribers(self) -> None:
        for conn, sub in list(self._subscribers.items()):
            for sample in sub.drain():
                conn.send(make_metric_event(sample))

    # --- periodic work (publish, optimize, supervise) ---

    def _periodic_loop(self) -> None:
        interval_s = min(
            self.config.publish_interval_ms,
            self.config.optimizer_period_ms,
            self.config.probe_interval_ms,
        ) / 1000.0
        interval_s = max(0.05, min(interval_s, 1.0))
        last_publish = last_optimize = last_probe = 0.0
        while not self._stop.wait(interval_s):
            now = now_ms()
            with self._lock:
                if now - last_publish >= self.config.publish_interval_ms:
                    last_publish = now
                    snap = self.registry.publish_snapshot(now)
                    for conn in list(self._subscribers):
                        conn.send(make_snapshot(snap))
                if now - last_optimize >= self.config.optimizer_period_ms:
                    last_optimize = now
                    report = self.control.cycle(now)
                    if report is not None:
                        log.info("routing epoch %d installed (%d acks, %d failures)",
                                 report.epoch, len(report.acks), len(report.failures))
                if now - last_probe >= self.config.probe_interval_ms:
                    last_probe = now
                    self._supervise(now)
                self._flush_subscribers()

    def _push_table(self, rid: int, table) -> None:
        conn = self._by_reflector.get(rid)
        if conn is None or conn.closed.is_set():
            raise RegistryUnreachable("no control connection for reflector %d" % rid)
        conn.send(make_install_routing(rid, table))

    def _supervise(self, now: float) -> None:
        stale_after = self.config.heartbeat_interval_ms + self.config.probe_deadline_ms
        results = {}
        for rid in self.supervisor.probe_targets():
            entry = next((e for e in self.registry.entries() if e.reflector == rid), None)
            alive = entry is not None and now - entry.last_heartbeat <= stale_after
            results[rid] = ProbeResult.OK if alive else ProbeResult.NO_ANSWER
        for action in self.supervisor.supervise_tick(results, now):
            if isinstance(action, RestartCommand):
                log.warning("restart requested for reflector %d (attempt %d); no restart "
                            "command configured", action.reflector, action.attempt)
            elif isinstance(action, NotificationEvent):
                msg = make_notification_event(
                    action.reflector, action.reason, action.at, action.recipients
                )
                for conn in list(self._notify_conns):
                    conn.send(msg)


class _LogSink:
    def send(self, event) -> None:
        log.error("notification: reflector %d %s (to %s)",
                  event.reflector, event.reason, ", ".join(event.recipients) or "<nobody>")


class ReflectorDaemon:
    """One reflector process: control link, media port, monitoring uplink."""

    def __init__(self, config: OverlayConfig, peers: Optional[dict] = None):
        if config.reflector_id < 1:
            raise ConfigError("reflector_id must be set (>= 1)")
        self.config = config
        self.engine = ReflectorEngine(config.reflector_id,
                                      on_membership_change=self._advertise)
        self.collector = MetricCollector(config.reflector_id, started_at=now_ms())
        self.peers = dict(peers or {})      # peer id -> "host:port"
        self._peer_conns: dict = {}         # peer id -> socket
        self._client_conns: dict = {}       # client id -> socket
        self._control: Optional[_LineConn] = None
        self._listener: Optional[socket.socket] = None
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self.registered = threading.Event()
        self.register_error: Optional[str] = None

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def start(self) -> None:
        host, port = parse_hostport(self.config.listen)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)

        sock = socket.create_connection(parse_hostport(self.config.registry_address), timeout=5.0)
        self._control = _LineConn(sock)
        self._control.send(
            make_register(
                self.config.reflector_id,
                "%s:%d" % (host, self.port),
                self.config.region,
            )
        )
        threading.Thread(target=self._control_loop, daemon=True).start()
        if not self.registered.wait(timeout=5.0):
            raise RegistryUnreachable("no registration ack from registry")
        if self.register_error:
            raise RegistryUnreachable(self.register_error)
        threading.Thread(target=self._accept_loop, daemon=True).start()
        threading.Thread(target=self._heartbeat_loop, daemon=True).start()
        threading.Thread(target=self._collect_loop, daemon=True).start()
        log.info("reflector %d listening on %s:%d", self.config.reflector_id, host, self.port)

    def shutdown(self) -> None:
        """Deregister cleanly and stop all loops."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self._control is not None and not self._control.closed.is_set():
            self._control.send(make_deregister(self.config.reflector_id))
            time.sleep(0.1)  # let the writer flush the goodbye
            self._control.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            for sock in list(self._client_conns.values()) + list(self._peer_conns.values()):
                try:
                    sock.close()
                except OSError:
                    pass

    def run_forever(self) -> None:
        try:
            while not self._stop.wait(0.5):
                pass
        except KeyboardInterrupt:
            self.shutdown()

    # --- control plane ---

    def _control_loop(self) -> None:
        first_ack = True
        while not self._stop.is_set():
            line = self._control.readline()
            if line is None:
                break
            try:
                msg = decode_message(line)
            except SchemaError:
                continue
            if msg["kind"] == "ack" and first_ack:
                first_ack = False
                if not msg["ok"]:
                    self.register_error = msg.get("error", "registration rejected")
                self.registered.set()
            elif msg["kind"] == "install_routing" and msg["reflector"] == self.config.reflector_id:
                table = routing_table_from_message(msg)
                try:
                    self.engine.swap_routing_table(table)
                except OverlayError as exc:
                    log.warning("rejected routing table: %s", exc)

    def _advertise(self, rooms) -> None:
        if self._control is not None and not self._control.closed.is_set():
            self._control.send(make_advertise(self.config.reflector_id, rooms))

    def _heartbeat_loop(self) -> None:
        interval = self.config.heartbeat_interval_ms / 1000.0
        while not self._stop.wait(min(interval, 1.0)):
            self._control.send(make_heartbeat(self.config.reflector_id, now_ms()))

    def _collect_loop(self) -> None:
        interval = self.config.monitor_interval_ms / 1000.0
        while not self._stop.wait(min(interval, 1.0)):
            links = self._probe_peers()
            for sample in self.collector.collect(self.engine, links, None, now_ms()):
                self._control.send(make_metric_event(sample))

    def _probe_peers(self) -> list:
        """Measure peer RTT over short probe connections."""
        links = []
        for peer_id, address in sorted(self.peers.items()):
            started = time.monotonic()
            try:
                with socket.create_connection(parse_hostport(address), timeout=2.0) as sock:
                    sock.sendall(encode_message(make_probe()).encode("utf-8"))
                    reply = sock.makefile("r").readline()
                rtt_ms = (time.monotonic() - started) * 1000.0
                decode_message(reply)
            except (OSError, SchemaError):
                continue
            links.append(
                LinkStats(
                    link=link_key(self.config.reflector_id, peer_id),
                    rtt_ms=rtt_ms,
                    loss_fraction=0.0,
                    capacity_kbps=RegistryDaemon.DEFAULT_LINK_CAPACITY_KBPS,
                    sampled_at=now_ms(),
                )
            )
        return links

    # --- media plane ---

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_media, args=(sock,), daemon=True).start()

    def _serve_media(self, sock: socket.socket) -> None:
        """Hello line decides the role; then the socket carries media frames."""
        rfile = sock.makefile("rb")
        hello_line = rfile.readline()
        if not hello_line:
            sock.close()
            return
        try:
            hello = decode_message(hello_line.decode("utf-8"))
        except (SchemaError, UnicodeDecodeError):
            sock.close()
            return
        if hello["kind"] == "probe":
            try:
                sock.sendall(
                    encode_message(
                        make_probe_reply(self.config.reflector_id, self.engine.routing.epoch)
                    ).encode("utf-8")
                )
            except OSError:
                pass
            sock.close()
            return
        if hello["kind"] != "hello":
            sock.close()
            return
        if hello["role"] == "client":
            client = hello["client"]
            with self._lock:
                self._client_conns[client] = sock
            self.engine.attach_client(client, sock)
            for room in hello.get("rooms", ()):
                self.engine.join_room(client, room)
            self._media_read_loop(rfile, LocalClient(client), cleanup=client)
        elif hello["role"] == "peer":
            peer = hello["reflector"]
            with self._lock:
                self._peer_conns.setdefault(peer, sock)
            self._media_read_loop(rfile, Peer(peer), cleanup=None)
        else:
            sock.close()

    def _media_read_loop(self, rfile, ingress, cleanup) -> None:
        buf = b""
        try:
            while not self._stop.is_set():
                size = frame_size(buf)
                while size is None or len(buf) < size:
                    chunk = rfile.read1(65536)
                    if not chunk:
                        return
                    buf += chunk
                    size = frame_size(buf)
                packet, consumed = read_media_packet(buf)
                buf = buf[consumed:]
                self._handle_packet(packet, ingress)
        except (OSError, OverlayError) as exc:
            log.debug("media connection closed: %s", exc)
        finally:
            if cleanup is not None:
                with self._lock:
                    self._client_conns.pop(cleanup, None)
                self.engine.detach_client(cleanup)

    def _handle_packet(self, packet, ingress) -> None:
        frame = encode_media_packet(packet)
        for action in sorted(
            self.engine.forward(packet, ingress),
            key=lambda a: (0, a.client) if isinstance(a, DeliverLocal) else (1, a.reflector),
        ):
            if isinstance(action, DeliverLocal):
                sock = self._client_conns.get(action.client)
                if sock is not None:
                    try:
                        sock.sendall(frame)
                    except OSError:
                        pass
            else:
                sock = self._peer_sock(action.reflector)
                if sock is not None:
                    try:
                        sock.sendall(frame)
                    except OSError:
                        with self._lock:
                            self._peer_conns.pop(action.reflector, None)

    def _peer_sock(self, peer: int):
        with self._lock:
            sock = self._peer_conns.get(peer)
        if sock is not None:
            return sock
        address = self.peers.get(peer)
        if address is None:
            return None
        try:
            sock = socket.create_connection(parse_hostport(address), timeout=2.0)
            sock.sendall(
                encode_message(make_hello_peer(self.config.reflector_id)).encode("utf-8")
            )
        except OSError:
            return None
        with self._lock:
            self._peer_conns[peer] = sock
        threading.Thread(
            target=self._media_read_loop,
            args=(sock.makefile("rb"), Peer(peer), None),
            daemon=True,
        ).start()
        return sock
