"""Daemon integration over real sockets: registration, media, routing, metrics."""
import json
import logging
import selectors
import socket
import struct
import threading
import time
import types

import pytest

from vroverlay import daemon as daemon_module
from vroverlay.config import load_config
from vroverlay.daemon import ReflectorDaemon, RegistryDaemon, now_ms
from vroverlay.errors import RegistryUnreachable, Truncated
from vroverlay.model import MediaPacket, PayloadType
from vroverlay.monitor import MetricSample
from vroverlay.protocol import (
    decode_message,
    encode_message,
    make_advertise,
    make_deregister,
    make_heartbeat,
    make_hello_client,
    make_metric_event,
    make_probe,
    make_register,
    make_snapshot_request,
    make_subscribe,
    routing_table_from_message,
)
from vroverlay.supervisor import HealthState
from vroverlay.wire import encode_media_packet, read_media_packet

FAST = {
    "heartbeat_interval_ms": 150,
    "publish_interval_ms": 150,
    "monitor_interval_ms": 200,
    "optimizer_period_ms": 250,
    "probe_interval_ms": 400,
}


@pytest.fixture
def registry():
    daemon = RegistryDaemon(load_config(None, dict(FAST)), listen="127.0.0.1:0")
    daemon.start()
    yield daemon
    daemon.stop()


def reflector(registry, rid, peers=None, **overrides):
    cfg = load_config(None, {**FAST, "registry_address": "127.0.0.1:%d" % registry.port,
                             "reflector_id": rid, "listen": "127.0.0.1:0",
                             "region": "EU" if rid % 2 else "US", **overrides})
    daemon = ReflectorDaemon(cfg, peers=peers)
    daemon.start()
    return daemon


def wait_for(predicate, timeout=8.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def client_socket(port, client_id, rooms):
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    sock.sendall(encode_message(make_hello_client(client_id, rooms)).encode())
    return sock


def recv_frame(sock, timeout=8.0):
    sock.settimeout(timeout)
    buf = b""
    while True:
        try:
            return read_media_packet(buf)[0]
        except Truncated:
            pass
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("media socket closed before a full frame")
        buf += chunk


def test_local_clients_relay_through_one_reflector(registry):
    ref = reflector(registry, 1)
    try:
        c1 = client_socket(ref.port, 1, [5])
        c2 = client_socket(ref.port, 2, [5])
        assert wait_for(lambda: ref.engine.client_count() == 2)
        packet = MediaPacket(room=5, src=1, seq=1, timestamp_ms=1,
                             payload_type=PayloadType.AUDIO_G711U, payload=b"hi")
        c1.sendall(encode_media_packet(packet))
        assert recv_frame(c2) == packet
        c1.close()
        c2.close()
    finally:
        ref.shutdown()


def test_media_crosses_peered_reflectors_after_routing_install(registry):
    ref1 = reflector(registry, 1)
    ref2 = reflector(registry, 2, peers={1: "127.0.0.1:%d" % ref1.port})
    ref1.peers[2] = "127.0.0.1:%d" % ref2.port
    try:
        c1 = client_socket(ref1.port, 1, [5])
        c2 = client_socket(ref2.port, 2, [5])
        # Peer RTT metrics flow up, the optimizer installs a tree, and both
        # engines learn their pruned egress for room 5.
        assert wait_for(lambda: ref1.engine.routing.epoch >= 1
                        and ref2.engine.routing.epoch >= 1)
        # The first epoch can be edgeless (installed before any peer link is
        # measured), so wait for the egress that actually crosses the link.
        assert wait_for(lambda: ref1.engine.routing.room_egress.get(5) == {2}
                        and ref2.engine.routing.room_egress.get(5) == {1})
        packet = MediaPacket(room=5, src=1, seq=1, timestamp_ms=9,
                             payload_type=PayloadType.VIDEO_H261, payload=b"frame")
        c1.sendall(encode_media_packet(packet))
        assert recv_frame(c2) == packet
        c1.close()
        c2.close()
    finally:
        ref1.shutdown()
        ref2.shutdown()


def test_registry_snapshot_lists_links_derived_from_metrics(registry):
    ref1 = reflector(registry, 1)
    ref2 = reflector(registry, 2, peers={1: "127.0.0.1:%d" % ref1.port})
    try:
        def snapshot_links():
            with socket.create_connection(("127.0.0.1", registry.port), timeout=5) as sock:
                sock.sendall(encode_message(make_snapshot_request()).encode())
                line = sock.makefile("r").readline()
            return decode_message(line)["snapshot"]["links"]

        assert wait_for(lambda: any(
            {l["a"], l["b"]} == {1, 2} for l in snapshot_links()))
        link = next(l for l in snapshot_links() if {l["a"], l["b"]} == {1, 2})
        assert 0.0 < link["quality"] <= 1.0
        assert link["rtt_ms"] >= 0.0
        # The derived quality also lands in the metric store as a series.
        assert wait_for(lambda: registry.monitor.query_range(2, "peer.1.quality", 0, 1e18))
        quality_samples = registry.monitor.query_range(2, "peer.1.quality", 0, 1e18)
        assert all(0.0 < s.value <= 1.0 for s in quality_samples)
    finally:
        ref1.shutdown()
        ref2.shutdown()


def probe(port):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(encode_message(make_probe()).encode())
        return decode_message(sock.makefile("r").readline())


def test_probe_reply_carries_reflector_and_epoch(registry):
    ref = reflector(registry, 3)
    try:
        assert wait_for(lambda: ref.engine.routing.epoch >= 1)
        reply = probe(ref.port)
        assert reply["kind"] == "probe_reply"
        assert reply["reflector"] == 3
        assert reply["epoch"] == ref.engine.routing.epoch
        # The registry answers for itself: reflector 0, its last install's epoch.
        reply = probe(registry.port)
        assert reply["kind"] == "probe_reply"
        assert reply["reflector"] == 0
        assert reply["epoch"] >= 1
    finally:
        ref.shutdown()


def test_subscriber_streams_uplinked_metrics(registry):
    ref = reflector(registry, 4)
    try:
        sock = socket.create_connection(("127.0.0.1", registry.port), timeout=5)
        sock.sendall(encode_message(make_subscribe("vrvs.*")).encode())
        reader = sock.makefile("r")
        sock.settimeout(8)
        seen = []
        while len(seen) < 2:
            msg = decode_message(reader.readline())
            if msg["kind"] == "event" and msg.get("event") == "metric":
                seen.append(msg)
        assert all(m["reflector"] == 4 for m in seen)
        assert {m["name"] for m in seen} <= {
            "vrvs.clients", "vrvs.rooms", "vrvs.unknown_room_drops",
        }
        sock.close()
    finally:
        ref.shutdown()


def send_metrics(sock, reflector, name, ats):
    sock.sendall(b"".join(
        encode_message(make_metric_event(MetricSample(reflector, name, 1.0, at))).encode()
        for at in ats))


def test_closed_subscriber_leaves_no_subscription(registry):
    feeder = socket.create_connection(("127.0.0.1", registry.port), timeout=5)
    sub = socket.create_connection(("127.0.0.1", registry.port), timeout=5)
    try:
        send_metrics(feeder, 5, "vrvs.clients", [1.0])
        assert wait_for(lambda: registry.monitor.store.head(5, "vrvs.clients") is not None
                        and registry.registry.latest_snapshot is not None)
        reader = sub.makefile("r")
        sub.sendall(encode_message(make_subscribe("vrvs.*")).encode())
        # The ack, then the head of every matching series, then the snapshot.
        replies = [decode_message(reader.readline()) for _ in range(3)]
        assert [m["kind"] for m in replies] == ["ack", "event", "snapshot"]
        assert replies[0]["ok"]
        assert (replies[1]["reflector"], replies[1]["name"]) == (5, "vrvs.clients")
        # Subscribing again replaces the connection's subscription.
        sub.sendall(encode_message(make_subscribe("sys.*")).encode())
        while (msg := decode_message(reader.readline()))["kind"] != "ack":
            pass
        assert msg["ok"]
        assert wait_for(lambda: len(registry.monitor._subs) == 1)
        reader.close()  # the socket stays open while its file is
        sub.close()
        send_metrics(feeder, 5, "vrvs.clients", [float(at) for at in range(2, 50)])
        assert wait_for(lambda: registry.monitor.store.head(5, "vrvs.clients").at == 49.0)
        assert wait_for(lambda: not registry.monitor._subs)
    finally:
        feeder.close()
        sub.close()


def test_mistyped_fields_are_nacked_and_spare_the_uplinking_reflector(registry):
    # A subscribe whose min_interval_ms is a string and a metric event whose
    # at is a string, both matching series that reflector 6 uplinks. Had
    # either been accepted, recording the reflector's next sample would
    # raise and close its control connection. A metric with an empty name
    # would close the connection that sent it.
    other = socket.create_connection(("127.0.0.1", registry.port), timeout=5)
    try:
        other.sendall(
            b'{"filter":"vrvs.*","kind":"subscribe","min_interval_ms":"x","v":3}\n'
            b'{"at":"x","event":"metric","kind":"event","name":"vrvs.rooms",'
            b'"reflector":6,"v":3,"value":1.0}\n'
            b'{"at":1.0,"event":"metric","kind":"event","name":"",'
            b'"reflector":6,"v":3,"value":1.0}\n')
        reader = other.makefile("r")
        replies = [decode_message(reader.readline()) for _ in range(3)]
        ref = reflector(registry, 6)
        try:
            store = registry.monitor.store
            assert wait_for(lambda: min(store.series_length(6, "vrvs.clients"),
                                        store.series_length(6, "vrvs.rooms")) >= 3)
            assert type(store.head(6, "vrvs.rooms").at) is float
            assert store.regressions == 0
            assert not ref._control.closed
            assert not registry._by_reflector[6].closed
        finally:
            ref.shutdown()
        assert [(m["kind"], m["ok"]) for m in replies] == [("ack", False)] * 3
        assert replies[0]["error"].startswith("SchemaError: field min_interval_ms: ")
        assert replies[1]["error"].startswith("SchemaError: field at: ")
        assert replies[2]["error"] == ("SchemaError: field name: expected a non-empty string, "
                                       "got str")
        assert not registry._subscribers
        reader.close()
    finally:
        other.close()


@pytest.fixture
def idle_registry():
    # Default intervals: no timer runs during a test, so a stalled loop
    # next handles exactly what arrived on its sockets meanwhile.
    daemon = RegistryDaemon(load_config(None, {}), listen="127.0.0.1:0")
    daemon.start()
    yield daemon
    daemon.stop()


def stall_loop(daemon, seconds, via):
    """Return once the daemon's loop is blocked for ``seconds``.

    A probe on the connected socket ``via`` wakes the loop to run the stall.
    """
    stalled = threading.Event()

    def stall():
        stalled.set()
        time.sleep(seconds)

    daemon._loop.call_later(0.0, stall)
    via.sendall(encode_message(make_probe()).encode())
    assert stalled.wait(5.0)


def reset(sock):
    """Close with SO_LINGER 0, so the peer gets a reset and its next send fails."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def test_reset_subscriber_does_not_close_the_feeder(idle_registry):
    registry = idle_registry
    feeder = socket.create_connection(("127.0.0.1", registry.port), timeout=5)
    gone = socket.create_connection(("127.0.0.1", registry.port), timeout=5)
    kept = socket.create_connection(("127.0.0.1", registry.port), timeout=5)
    try:
        reader = kept.makefile("r")
        for sub in (gone, kept):
            sub.sendall(encode_message(make_subscribe("m.*")).encode())
        assert decode_message(reader.readline())["ok"]
        assert wait_for(lambda: len(registry._subscribers) == 2)
        # The samples and the reset arrive while the loop is busy: delivering
        # the first sample fails on the reset socket and closes it mid-fanout.
        stall_loop(registry, 0.3, via=feeder)
        count = 200
        send_metrics(feeder, 5, "m.x", [float(at) for at in range(1, count + 1)])
        reset(gone)
        ats = []
        while not ats or ats[-1] != count:
            msg = decode_message(reader.readline())
            if msg["kind"] == "event":
                ats.append(msg["at"])
        assert ats == [float(at) for at in range(1, count + 1)]
        assert registry.monitor.store.series_length(5, "m.x") == count
        assert len(registry.monitor._subs) == len(registry._subscribers) == 1
        # The feeder's connection is still open: it answers a second probe.
        feeder.sendall(encode_message(make_probe()).encode())
        replies = feeder.makefile("r")
        assert [decode_message(replies.readline())["kind"] for _ in range(2)] == [
            "probe_reply", "probe_reply"]
        replies.close()
        reader.close()
    finally:
        feeder.close()
        kept.close()


def test_subscriber_reset_before_its_ack_leaves_no_subscription(idle_registry):
    registry = idle_registry
    with socket.create_connection(("127.0.0.1", registry.port), timeout=5) as feeder:
        send_metrics(feeder, 5, "m.x", [1.0])
        assert wait_for(lambda: registry.monitor.store.head(5, "m.x") is not None)
    sub = socket.create_connection(("127.0.0.1", registry.port), timeout=5)
    # The subscribe is read after the reset: sending its ack fails.
    stall_loop(registry, 0.3, via=sub)
    sub.sendall(encode_message(make_subscribe("m.*")).encode())
    reset(sub)
    assert wait_for(lambda: not registry._loop.conns)
    assert not registry._subscribers
    assert not registry.monitor._subs


def test_stalled_subscriber_loses_its_oldest_messages_on_its_connection():
    # Default intervals: no snapshot push joins the metric stream.
    daemon = RegistryDaemon(load_config(None, {"subscriber_queue": 8}), listen="127.0.0.1:0")
    daemon.start()
    feeder = socket.create_connection(("127.0.0.1", daemon.port), timeout=5)
    sub = socket.socket()
    sub.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    try:
        sub.connect(("127.0.0.1", daemon.port))
        sub.sendall(encode_message(make_subscribe("big.*")).encode())
        assert wait_for(lambda: daemon._subscribers)
        # About 6 MB of events, more than the kernel buffers hold while no one reads.
        name, count = "big." + "x" * 1000, 6000
        send_metrics(feeder, 5, name, [float(at) for at in range(1, count + 1)])
        assert wait_for(lambda: (head := daemon.monitor.store.head(5, name)) is not None
                        and head.at == count)
        conn = next(iter(daemon._subscribers))
        assert conn.dropped > 0
        reader = sub.makefile("r")
        assert decode_message(reader.readline())["ok"]
        ats = [0.0]
        while ats[-1] != count:
            ats.append(decode_message(reader.readline())["at"])
        assert ats == sorted(set(ats))  # the newest survive, in order
        assert len(ats) - 1 + conn.dropped == count
        reader.close()
    finally:
        feeder.close()
        sub.close()
        daemon.stop()


def test_failed_reflector_notifies_subscriber_and_stderr_once(capsys):
    daemon = RegistryDaemon(
        load_config(None, {**FAST, "k_miss": 1, "probe_interval_ms": 100,
                           "probe_deadline_ms": 100, "admins": "ops@example.net"}),
        listen="127.0.0.1:0")
    daemon.start()
    control = socket.create_connection(("127.0.0.1", daemon.port), timeout=5)
    sub = socket.create_connection(("127.0.0.1", daemon.port), timeout=5)
    try:
        reader = sub.makefile("r")
        sub.sendall(encode_message(make_subscribe("none.*")).encode())
        assert decode_message(reader.readline())["ok"]
        # Reflector 9 registers and never heartbeats: one missed probe, two
        # restarts that do not happen, then Failed.
        control.sendall(encode_message(make_register(9, "127.0.0.1:9")).encode())
        assert wait_for(lambda: 9 in daemon.supervisor.failed())
        notices = []
        deadline = time.time() + 0.5  # five more probe intervals: one Failed episode, one notice
        while time.time() < deadline:  # snapshot pushes keep each read short
            msg = decode_message(reader.readline())
            if msg["kind"] == "event" and msg["event"] == "notification":
                notices.append(msg)
        assert len(notices) == 1
        notice = notices[0]
        assert (notice["reflector"], notice["recipients"]) == (9, ["ops@example.net"])
        assert notice["reason"] == "reflector failed to restart 2 times"
        err_lines = [line for line in capsys.readouterr().err.splitlines()
                     if line.startswith("{")]
        assert err_lines == [json.dumps({"at": notice["at"], "reason": notice["reason"],
                                         "recipients": ["ops@example.net"], "reflector": 9},
                                        sort_keys=True)]
    finally:
        control.close()
        sub.close()
        daemon.stop()


def test_duplicate_registration_raises(registry):
    ref = reflector(registry, 6)
    try:
        with pytest.raises(RegistryUnreachable) as err:
            reflector(registry, 6)
        assert "DuplicateId" in str(err.value)
    finally:
        ref.shutdown()


def test_requests_for_an_unknown_reflector_are_nacked_with_the_error_type(registry):
    with socket.create_connection(("127.0.0.1", registry.port), timeout=5) as sock:
        sock.sendall(b"".join(encode_message(msg).encode() for msg in (
            make_deregister(9), make_heartbeat(9, 1.0), make_advertise(9, {1}))))
        reader = sock.makefile("r")
        replies = [decode_message(reader.readline()) for _ in range(3)]
    assert [(m["kind"], m["ok"]) for m in replies] == [("ack", False)] * 3
    assert all(m["error"].startswith("UnknownReflector: ") for m in replies), replies


def test_client_disconnect_detaches_and_advertises(registry):
    ref = reflector(registry, 7)
    try:
        c1 = client_socket(ref.port, 1, [5])
        assert wait_for(lambda: ref.engine.client_count() == 1)
        assert wait_for(lambda: registry.registry.room_members().get(5) == {7})
        c1.close()
        assert wait_for(lambda: ref.engine.client_count() == 0)
        assert wait_for(lambda: 5 not in registry.registry.room_members())
    finally:
        ref.shutdown()


def test_client_hello_and_disconnect_advertise_once_each(registry, monkeypatch):
    ref = reflector(registry, 7)
    adverts = []
    advertise = registry.registry.advertise_membership

    def counted(rid, rooms):
        adverts.append((rid, set(rooms)))
        advertise(rid, rooms)

    monkeypatch.setattr(registry.registry, "advertise_membership", counted)
    try:
        c1 = client_socket(ref.port, 1, [5, 6])
        assert wait_for(lambda: registry.registry.room_members() == {5: {7}, 6: {7}})
        c1.close()
        assert wait_for(lambda: not registry.registry.room_members())
        assert adverts == [(7, {5, 6}), (7, set())]
    finally:
        ref.shutdown()


def test_reregistration_clears_failed_and_rejoins_tree():
    daemon = RegistryDaemon(load_config(None, {**FAST, "probe_deadline_ms": 100}),
                            listen="127.0.0.1:0")
    daemon.start()
    ref = reflector(daemon, 1)
    sock = socket.create_connection(("127.0.0.1", daemon.port), timeout=5)
    register = encode_message(make_register(9, "127.0.0.1:9")).encode()
    try:
        sock.sendall(register)
        assert decode_message(sock.makefile("r").readline())["ok"]
        # Reflector 9 never heartbeats: it expires, misses its probes and
        # fails both restarts, so the tree shrinks to reflector 1 alone.
        assert wait_for(lambda: 9 in daemon.supervisor.failed())
        assert wait_for(lambda: daemon.registry.tree.covers == {1})
        sock.sendall(register)
        assert wait_for(lambda: 9 in daemon.registry.tree.covers)
        assert daemon.supervisor.records[9].state is not HealthState.FAILED
    finally:
        sock.close()
        ref.shutdown()
        daemon.stop()


class StandIn:
    """A control connection that keeps the kinds of the messages sent on it."""

    closed = False

    def __init__(self):
        self.kinds = []

    def send_msg(self, msg):
        self.kinds.append(msg["kind"])


def test_reflector_registering_again_gets_its_installed_table_back():
    daemon = RegistryDaemon(load_config(None, {}), listen="127.0.0.1:0")

    def dispatch(conn, msg):
        daemon._dispatch(conn, decode_message(encode_message(msg)))

    def observe_link():
        dispatch(one, make_metric_event(MetricSample(1, "peer.2.rtt_ms", 5.0, now_ms())))

    one, two, again = StandIn(), StandIn(), StandIn()
    try:
        dispatch(one, make_register(1, "127.0.0.1:1"))
        dispatch(two, make_register(2, "127.0.0.1:2"))
        observe_link()
        assert daemon.registry.cycle(now_ms()).epoch == 1
        assert two.kinds == ["ack", "install_routing"]
        # Reflector 2 restarts within one optimizer period.
        dispatch(two, make_deregister(2))
        dispatch(again, make_register(2, "127.0.0.1:2"))
        observe_link()
        assert again.kinds == ["ack", "install_routing"]
        assert daemon.registry.cycle(now_ms()) is None
        assert daemon.registry.publish_snapshot(now_ms()).tree_edges == {(1, 2)}
    finally:
        daemon._loop.close()


def test_lease_runs_on_the_registry_clock():
    daemon = RegistryDaemon(load_config(None, {
        "heartbeat_interval_ms": 100, "publish_interval_ms": 100, "optimizer_period_ms": 100,
        "probe_interval_ms": 100, "probe_deadline_ms": 100}), listen="127.0.0.1:0")
    daemon.start()
    behind = socket.create_connection(("127.0.0.1", daemon.port), timeout=5)
    ahead = socket.create_connection(("127.0.0.1", daemon.port), timeout=5)
    try:
        for sock, rid in ((behind, 9), (ahead, 8)):
            sock.sendall(encode_message(make_register(rid, "127.0.0.1:%d" % rid)).encode())
            with sock.makefile("r") as reader:
                assert decode_message(reader.readline())["ok"]
        # Reflector 8's clock runs an hour ahead, and it goes silent after
        # one heartbeat. Reflector 9's clock runs a minute behind, and it
        # heartbeats every 50 ms for one second.
        hour, minute = 3_600_000, 60_000
        ahead.sendall(encode_message(make_heartbeat(8, now_ms() + hour)).encode())
        live = []
        for _ in range(20):
            behind.sendall(encode_message(make_heartbeat(9, now_ms() - minute)).encode())
            time.sleep(0.05)
            live.append(daemon.registry.is_live(9))
        assert all(live), live
        assert daemon.supervisor.records[9].state is HealthState.UP
        assert not daemon.registry.is_live(8)
        assert daemon.supervisor.records[8].state is not HealthState.UP
    finally:
        behind.close()
        ahead.close()
        daemon.stop()


def test_reflector_dropped_by_another_connection_registers_again(registry, caplog,
                                                                   monkeypatch):
    caplog.set_level(logging.WARNING, logger="vroverlay.daemon")
    epochs = []

    def received(msg):
        epochs.append(msg["epoch"])
        return routing_table_from_message(msg)

    monkeypatch.setattr(daemon_module, "routing_table_from_message", received)
    ref = reflector(registry, 9)
    client = client_socket(ref.port, 1, [5])
    try:
        assert wait_for(lambda: registry.registry.room_members() == {5: {9}}
                        and ref.engine.routing.epoch >= 1)
        held = ref.engine.routing.epoch
        with socket.create_connection(("127.0.0.1", registry.port), timeout=5) as other:
            other.sendall(encode_message(make_deregister(9)).encode())
            with other.makefile("r") as reader:
                assert decode_message(reader.readline())["ok"]
        pushed = len(epochs)
        # Its next heartbeat is nacked: it registers again, advertises its
        # rooms, and the registry hands it the table it already holds. Its
        # rooms came back, so a prompt install under a later epoch may follow.
        assert wait_for(lambda: registry.registry.is_live(9) and len(epochs) > pushed, 3.0)
        assert wait_for(lambda: registry.registry.room_members() == {5: {9}}, 3.0)
        assert epochs[pushed] == held <= ref.engine.routing.epoch
        assert not [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    finally:
        client.close()
        ref.shutdown()


def recv_frames(sock, count, buf, timeout=5.0):
    """Read up to `count` frames, keeping a partial frame in `buf` for the next call.

    Stops early when `timeout` passes with no data.
    """
    sock.settimeout(timeout)
    packets = []
    while len(packets) < count:
        try:
            packet, consumed = read_media_packet(buf)
        except Truncated:
            try:
                chunk = sock.recv(1 << 16)
            except socket.timeout:
                break
            if not chunk:
                break
            buf += chunk
            continue
        packets.append(packet)
        del buf[:consumed]
    return packets


def relayed_within(sender, receiver, packet, seconds):
    """Send `packet` every 50 ms until `receiver` gets it; False after `seconds`."""
    data = encode_media_packet(packet)
    buf = bytearray()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        sender.sendall(data)
        if recv_frames(receiver, 1, buf, 0.05) == [packet]:
            return True
    return False


# With the periods at a minute, only the prompt, event-driven work can route
# anything within the tests' few seconds.
SLOW = {"monitor_interval_ms": 60_000, "optimizer_period_ms": 60_000}


def test_room_joined_after_the_first_install_relays_at_once():
    daemon = RegistryDaemon(load_config(None, {**FAST, "optimizer_period_ms": 60_000}),
                            listen="127.0.0.1:0")
    daemon.start()
    ref1 = reflector(daemon, 1)
    ref2 = reflector(daemon, 2, peers={1: "127.0.0.1:%d" % ref1.port})
    clients = []
    try:
        clients += [client_socket(ref1.port, 1, [5]), client_socket(ref2.port, 2, [5])]
        assert wait_for(lambda: ref1.engine.routing.room_egress.get(5) == {2}
                        and ref2.engine.routing.room_egress.get(5) == {1}, 2.0)
        clients += [client_socket(ref2.port, 3, [7]), client_socket(ref1.port, 4, [7])]
        packet = MediaPacket(room=7, src=3, seq=1, timestamp_ms=1,
                             payload_type=PayloadType.AUDIO_G711U, payload=b"late")
        assert relayed_within(clients[2], clients[3], packet, 2.0)
    finally:
        for sock in clients:
            sock.close()
        ref1.shutdown()
        ref2.shutdown()
        daemon.stop()


def test_peered_pair_relays_within_two_seconds_of_start():
    started = time.monotonic()
    daemon = RegistryDaemon(load_config(None, {**FAST, **SLOW}), listen="127.0.0.1:0")
    daemon.start()
    ref1 = reflector(daemon, 1, **SLOW)
    ref2 = reflector(daemon, 2, peers={1: "127.0.0.1:%d" % ref1.port}, **SLOW)
    receiver = client_socket(ref1.port, 1, [5])
    sender = client_socket(ref2.port, 2, [5])
    try:
        packet = MediaPacket(room=5, src=2, seq=1, timestamp_ms=1,
                             payload_type=PayloadType.AUDIO_G711U, payload=b"first")
        assert relayed_within(sender, receiver, packet, 2.0 - (time.monotonic() - started))
    finally:
        sender.close()
        receiver.close()
        ref1.shutdown()
        ref2.shutdown()
        daemon.stop()


def test_an_advertise_storm_in_one_write_costs_at_most_two_installs():
    daemon = RegistryDaemon(load_config(None, {**FAST, **SLOW, "heartbeat_interval_ms": 60_000}),
                            listen="127.0.0.1:0")
    daemon.start()
    try:
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as sock, \
                sock.makefile("r") as reader:
            sock.sendall(encode_message(make_register(3, "127.0.0.1:1")).encode())
            assert decode_message(reader.readline())["ok"]
            assert decode_message(reader.readline())["epoch"] == 1  # the registration's install
            sock.sendall("".join(encode_message(make_advertise(3, [room]))
                                 for room in range(1, 51)).encode())
            epochs = []
            sock.settimeout(1.0)
            try:
                while True:
                    msg = decode_message(reader.readline())
                    if msg["kind"] == "install_routing":
                        epochs.append(msg["epoch"])
            except socket.timeout:
                pass
        assert 1 <= len(epochs) <= 2, epochs
        assert daemon.registry.room_members() == {50: {3}}
    finally:
        daemon.stop()


def test_stalled_receiver_does_not_starve_the_others(registry):
    ref = reflector(registry, 8)
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    try:
        stalled.connect(("127.0.0.1", ref.port))
        stalled.sendall(encode_message(make_hello_client(3, [5])).encode())
        healthy = client_socket(ref.port, 2, [5])
        sender = client_socket(ref.port, 1, [5])
        assert wait_for(lambda: ref.engine.client_count() == 3)
        packets = [MediaPacket(room=5, src=1, seq=i, timestamp_ms=i,
                               payload_type=PayloadType.VIDEO_H261,
                               payload=bytes([i % 256]) * 60_000) for i in range(400)]
        # The sender runs at most two batches of 50 ahead of the healthy
        # receiver, far below the media queue bound, so a frame the receiver
        # misses was held up behind the stalled client, not dropped.
        window = threading.Semaphore(2)

        def send_all():
            try:
                for start in range(0, len(packets), 50):
                    if not window.acquire(timeout=10):
                        return
                    sender.sendall(b"".join(encode_media_packet(p)
                                            for p in packets[start:start + 50]))
            except OSError:
                pass  # the reflector stopped reading; the receiver count shows it

        thread = threading.Thread(target=send_all, daemon=True)
        thread.start()
        got, buf = [], bytearray()
        while len(got) < len(packets):
            batch = recv_frames(healthy, 50, buf)
            got += batch
            window.release()
            if len(batch) < 50:
                break
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(got) == len(packets)
        assert got == packets
        healthy.close()
        sender.close()
    finally:
        stalled.close()
        ref.shutdown()


@pytest.mark.parametrize("index, value", [(0, 0x58), (2, 0x02), (3, 0x07), (20, 0x09)],
                         ids=["magic", "version", "frame-type", "payload-tag"])
def test_malformed_frame_closes_only_its_own_connection(registry, index, value):
    ref = reflector(registry, 9)
    try:
        bad = client_socket(ref.port, 1, [5])
        good = client_socket(ref.port, 2, [5])
        receiver = client_socket(ref.port, 3, [5])
        assert wait_for(lambda: ref.engine.client_count() == 3)
        packet = MediaPacket(room=5, src=2, seq=7, timestamp_ms=70,
                             payload_type=PayloadType.AUDIO_G711U, payload=b"x" * 300)
        frame = encode_media_packet(packet)
        broken = frame[:index] + bytes([value]) + frame[index + 1:]
        bad.sendall(broken[:10])
        time.sleep(0.05)
        bad.sendall(broken[10:])
        assert wait_for(lambda: ref.engine.client_count() == 2)
        for cut in (7, 30, 200):
            good.sendall(frame[:cut])
            time.sleep(0.05)
            good.sendall(frame[cut:])
        assert recv_frames(receiver, 3, bytearray()) == [packet] * 3
        for sock in (bad, good, receiver):
            sock.close()
    finally:
        ref.shutdown()


def test_reflector_timers_follow_intervals_above_one_second(registry):
    cfg = load_config(None, {**FAST, "registry_address": "127.0.0.1:%d" % registry.port,
                             "reflector_id": 4, "listen": "127.0.0.1:0",
                             "heartbeat_interval_ms": 2500, "monitor_interval_ms": 2500})
    ref = ReflectorDaemon(cfg)
    started = time.monotonic()
    ref.start()
    try:
        # The heartbeat and the probe round repeat, both first due one whole
        # interval after start. The probe round also runs once as the loop
        # starts, so its uplink reaches the registry long before that.
        delays = [due - started for due, _, _ in list(ref._loop._timers)]
        assert sum(2.5 <= delay < 3.5 for delay in delays) == 2, delays
        assert wait_for(lambda: registry.monitor.store.head(4, "vrvs.clients") is not None, 1.0)
    finally:
        ref.shutdown()


def test_closing_a_replaced_client_connection_keeps_the_new_one(registry):
    ref = reflector(registry, 6)
    try:
        first = client_socket(ref.port, 4, [5])
        assert wait_for(lambda: ref.engine.endpoint(4) is not None)
        first_conn = ref.engine.endpoint(4)
        second = client_socket(ref.port, 4, [5])
        assert wait_for(lambda: ref.engine.endpoint(4) not in (None, first_conn))
        first.close()
        assert wait_for(lambda: first_conn.closed)
        sender = client_socket(ref.port, 1, [5])
        assert wait_for(lambda: ref.engine.client_count() == 2)
        packet = MediaPacket(room=5, src=1, seq=1, timestamp_ms=1,
                             payload_type=PayloadType.AUDIO_G711U, payload=b"still here")
        sender.sendall(encode_media_packet(packet))
        assert recv_frame(second) == packet
        second.close()
        sender.close()
    finally:
        ref.shutdown()


def test_client_frame_under_another_id_is_dropped_and_counted(registry):
    ref = reflector(registry, 5)
    try:
        c7 = client_socket(ref.port, 7, [5])
        c8 = client_socket(ref.port, 8, [5])
        assert wait_for(lambda: ref.engine.client_count() == 2)
        spoofed = MediaPacket(room=5, src=8, seq=1, timestamp_ms=1,
                              payload_type=PayloadType.AUDIO_G711U, payload=b"not mine")
        own = MediaPacket(room=5, src=7, seq=1, timestamp_ms=2,
                          payload_type=PayloadType.AUDIO_G711U, payload=b"mine")
        c7.sendall(encode_media_packet(spoofed))
        # The connection stays open: a frame under its own id still goes out.
        c7.sendall(encode_media_packet(own))
        assert recv_frames(c8, 2, bytearray(), timeout=1.0) == [own]
        assert recv_frames(c7, 1, bytearray(), timeout=0.5) == []
        assert ref.src_mismatch_drops == 1
        c7.close()
        c8.close()
    finally:
        ref.shutdown()


def test_probe_round_closes_at_the_configured_deadline(registry):
    # The peer accepts but never answers, so each probe round stays open
    # until probe_deadline_ms and only then uplinks its collection.
    silent = socket.create_server(("127.0.0.1", 0))
    sub = socket.create_connection(("127.0.0.1", registry.port), timeout=5)
    sub.sendall(encode_message(make_subscribe("vrvs.clients", reflectors=[3])).encode())
    reader = sub.makefile("r")
    cfg = load_config(None, {**FAST, "registry_address": "127.0.0.1:%d" % registry.port,
                             "reflector_id": 3, "listen": "127.0.0.1:0",
                             "probe_deadline_ms": 150})
    ref = ReflectorDaemon(cfg, peers={8: "127.0.0.1:%d" % silent.getsockname()[1]})
    ref.start()
    try:
        deadline = time.monotonic() + 1.5
        uplinks = 0
        while uplinks < 3 and deadline > time.monotonic():
            sub.settimeout(deadline - time.monotonic())
            try:
                msg = decode_message(reader.readline())
            except TimeoutError:
                break
            if msg["kind"] == "event" and msg["event"] == "metric":
                uplinks += 1
        assert uplinks >= 3
    finally:
        ref.shutdown()
        reader.close()
        sub.close()
        silent.close()


def test_hello_without_its_role_field_closes_quietly(registry, caplog):
    caplog.set_level(logging.DEBUG, logger="vroverlay.daemon")
    ref = reflector(registry, 7)
    try:
        receiver = client_socket(ref.port, 1, [5])
        assert wait_for(lambda: ref.engine.client_count() == 1)
        bad = [socket.create_connection(("127.0.0.1", ref.port), timeout=5) for _ in range(2)]
        bad[0].sendall(b'{"kind":"hello","role":"client","rooms":[5],"v":3}\n')
        bad[1].sendall(b'{"kind":"hello","role":"peer","v":3}\n')
        assert [sock.recv(1) for sock in bad] == [b"", b""]  # closed by the reflector
        sender = client_socket(ref.port, 2, [5])
        assert wait_for(lambda: ref.engine.client_count() == 2)
        packet = MediaPacket(room=5, src=2, seq=1, timestamp_ms=1,
                             payload_type=PayloadType.OPAQUE, payload=b"after")
        sender.sendall(encode_media_packet(packet))
        assert recv_frame(receiver) == packet
        for sock in (*bad, receiver, sender):
            sock.close()
    finally:
        ref.shutdown()
    messages = [r.getMessage() for r in caplog.records]
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR], messages
    assert any("required for role 'client'" in m for m in messages), messages
    assert any("required for role 'peer'" in m for m in messages), messages


def test_a_burst_beyond_the_media_queue_reaches_a_reader_that_keeps_up(registry):
    ref = reflector(registry, 10)
    try:
        receiver = client_socket(ref.port, 2, [5])
        sender = client_socket(ref.port, 1, [5])
        assert wait_for(lambda: ref.engine.client_count() == 2)
        count = daemon_module.MEDIA_QUEUE + 44
        packets = [MediaPacket(room=5, src=1, seq=i, timestamp_ms=i,
                               payload_type=PayloadType.AUDIO_G711U,
                               payload=bytes([i % 256]) * 160) for i in range(count)]
        # One write of 300 frames of 184 bytes: a pass can queue more frames
        # for the receiver than its queue holds, and the socket takes them all.
        sender.sendall(b"".join(map(encode_media_packet, packets)))
        assert recv_frames(receiver, count, bytearray()) == packets
        assert ref.engine.endpoint(2).dropped == 0
        receiver.close()
        sender.close()
    finally:
        ref.shutdown()


def test_frames_before_a_malformed_one_still_go_out(registry):
    ref = reflector(registry, 11)
    try:
        receiver = client_socket(ref.port, 2, [5])
        sender = client_socket(ref.port, 1, [5])
        assert wait_for(lambda: ref.engine.client_count() == 2)
        packets = [MediaPacket(room=5, src=1, seq=i, timestamp_ms=i,
                               payload_type=PayloadType.AUDIO_G711U, payload=b"ok")
                   for i in range(3)]
        frames = [encode_media_packet(p) for p in packets]
        sender.sendall(b"".join(frames) + b"X" + frames[0][1:])  # bad magic last
        assert recv_frames(receiver, 4, bytearray(), timeout=1.0) == packets
        assert wait_for(lambda: ref.engine.client_count() == 1)
        receiver.close()
        sender.close()
    finally:
        ref.shutdown()


def test_over_long_control_line_closes_its_connection(idle_registry):
    registry = idle_registry
    # A line of MAX_LINE bytes, newline included, is still read and answered.
    pad = daemon_module.MAX_LINE - len(encode_message({**make_probe(), "pad": ""}))
    with socket.create_connection(("127.0.0.1", registry.port), timeout=5) as sock:
        sock.sendall(encode_message({**make_probe(), "pad": "x" * pad}).encode())
        with sock.makefile("r") as reader:
            assert decode_message(reader.readline())["kind"] == "probe_reply"
    hostile = socket.create_connection(("127.0.0.1", registry.port), timeout=5)
    try:
        try:
            hostile.sendall(b"x" * daemon_module.MAX_LINE)  # one byte more, no newline
        except OSError:
            pass  # closed while the line was still arriving
        assert wait_for(lambda: not registry._loop.conns)
        try:
            assert hostile.recv(1) == b""
        except ConnectionResetError:
            pass
    finally:
        hostile.close()


class FakeSocket:
    """Takes the chosen byte counts from successive sendmsg calls, then blocks."""

    def __init__(self, takes=()):
        self.takes = list(takes)
        self.sent = bytearray()
        self.calls = []             # buffers per sendmsg call

    def setsockopt(self, *args):
        pass

    def setblocking(self, flag):
        pass

    def sendmsg(self, buffers):
        self.calls.append(len(buffers))
        if not self.takes:
            raise BlockingIOError
        data = b"".join(buffers)
        taken = min(self.takes.pop(0), len(data))
        self.sent += data[:taken]
        return taken


class FakeSelector:
    def __init__(self):
        self.mask = None

    def register(self, sock, mask, data):
        self.mask = mask

    modify = register


def fake_conn(takes=(), limit=daemon_module.MEDIA_QUEUE):
    loop = types.SimpleNamespace(sel=FakeSelector(), conns=set())
    return daemon_module._Conn(loop, FakeSocket(takes), on_data=None, limit=limit)


def writing(conn):
    return bool(conn.loop.sel.mask & selectors.EVENT_WRITE)


@pytest.mark.parametrize("first", [4, 10, 25], ids=["inside-head", "frame-boundary",
                                                    "inside-a-later-frame"])
def test_flush_stops_anywhere_and_resumes_with_the_rest(first):
    frames = [bytes([i]) * 10 for i in range(1, 5)]
    conn = fake_conn([first])
    for frame in frames:
        conn.put(frame)
    conn._flush()
    assert bytes(conn.sock.sent) == b"".join(frames)[:first]
    assert conn.head is not None and writing(conn)
    assert len(conn.head) == 10 - first % 10  # the whole next frame, or what is left of it
    assert len(conn.queue) == 3 - first // 10
    conn.sock.takes = [3]  # stops inside the head again
    conn._flush()
    assert conn.head is not None and writing(conn)
    conn.sock.takes = [1000]
    conn._flush()
    assert bytes(conn.sock.sent) == b"".join(frames)
    assert conn.head is None and not conn.queue and not writing(conn)


def test_flush_sends_at_most_iov_max_buffers_per_call():
    frames = [b"%05d" % i for i in range(2500)]
    conn = fake_conn([10, 1 << 20, 1 << 20, 1 << 20], limit=len(frames))
    for frame in frames:
        conn.put(frame)
    conn._flush()
    assert bytes(conn.sock.sent) == b"".join(frames)
    assert max(conn.sock.calls) == daemon_module.IOV_MAX
    assert conn.head is None and not conn.queue and not writing(conn)
    assert conn.dropped == 0


def test_full_queue_drops_only_what_the_socket_cannot_take():
    conn = fake_conn([1000], limit=2)
    for frame in (b"a", b"b", b"c"):  # the third put flushes the first two
        conn.put(frame)
    assert conn.dropped == 0 and bytes(conn.sock.sent) == b"ab"
    for frame in (b"d", b"e"):  # the socket takes no more; "c" goes out as head
        conn.put(frame)
    conn.put(b"f")  # "c" is started and kept; "d" is dropped
    assert conn.dropped == 1 and bytes(conn.head) == b"c" and list(conn.queue) == [b"e", b"f"]
    conn.sock.takes = [1000]
    conn._flush()
    assert bytes(conn.sock.sent) == b"abcef"
