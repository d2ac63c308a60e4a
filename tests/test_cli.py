"""CLI: exit-code contract, sim runs, export parity, daemon integration."""
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from vroverlay.cli import (
    EXIT_CONNECT,
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    main,
)
from vroverlay.config import load_config
from vroverlay.daemon import MAX_LINE, RegistryDaemon, ReflectorDaemon
from vroverlay.model import LinkStats
from vroverlay.monitor import MetricSample
from vroverlay.protocol import encode_message, make_metric_event, make_register, snapshot_to_dict
from vroverlay.quality import QualityFactor
from vroverlay.registry import LinkRecord, RegistryEntry, TopologySnapshot

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
FAST = {
    "heartbeat_interval_ms": 150,
    "publish_interval_ms": 150,
    "monitor_interval_ms": 200,
    "optimizer_period_ms": 250,
    "probe_interval_ms": 400,
}


@pytest.fixture
def registry():
    cfg = load_config(None, dict(FAST))
    daemon = RegistryDaemon(cfg, listen="127.0.0.1:0")
    daemon.start()
    yield daemon
    daemon.stop()


def registry_addr(daemon):
    return "127.0.0.1:%d" % daemon.port


# --- sim run ---

def test_sim_run_line3_exit_zero(capsys):
    code = main(["sim", "run", os.path.join(SCENARIOS, "line3.json")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "violations: none" in out
    assert "injected=10 delivered=20" in out


def test_sim_run_restart_fail_reports_one_notification(capsys):
    code = main(["sim", "run", os.path.join(SCENARIOS, "restart-fail.json")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "notifications: 1" in out


def test_sim_run_bad_schema_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "duration_ms": 100}')
    code = main(["sim", "run", str(bad)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "reflectors" in err


def test_sim_run_bad_event_value_exit_two(tmp_path, capsys):
    with open(os.path.join(SCENARIOS, "line3.json")) as f:
        doc = json.load(f)
    doc["events"].insert(0, {"t": 500, "action": "set_link", "a": 1, "b": 2, "latency_ms": -5})
    path = tmp_path / "negative-latency.json"
    path.write_text(json.dumps(doc))
    code = main(["sim", "run", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "events[0].latency_ms" in err


def test_sim_run_invariant_violation_exit_one(tmp_path, capsys):
    # Expecting two notifications when the scenario produces none fails the run.
    with open(os.path.join(SCENARIOS, "line3.json")) as f:
        doc = json.load(f)
    doc["expect"]["notifications"] = 2
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = main(["sim", "run", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_INVARIANT
    assert "violations (1):" in out


def test_sim_run_seed_override_changes_hash(tmp_path, capsys):
    path = os.path.join(SCENARIOS, "line3.json")
    main(["sim", "run", path])
    first = capsys.readouterr().out
    main(["sim", "run", path, "--seed", "99"])
    second = capsys.readouterr().out
    assert "seed 11" in first and "seed 99" in second


def test_sim_run_writes_trace_file(tmp_path, capsys):
    out_path = tmp_path / "trace.jsonl"
    code = main(["sim", "run", os.path.join(SCENARIOS, "line3.json"),
                 "--trace", str(out_path)])
    assert code == EXIT_OK
    lines = out_path.read_text().strip().split("\n")
    events = [json.loads(line) for line in lines]
    assert any(e["kind"] == "deliver" for e in events)
    assert any(e["kind"] == "routing" for e in events)


def test_sim_run_no_monitoring_still_delivers(capsys):
    code = main(["sim", "run", os.path.join(SCENARIOS, "line3.json"), "--no-monitoring"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "injected=10 delivered=20" in out


def test_sim_snapshot_out_feeds_offline_export(tmp_path, capsys):
    snap_file = tmp_path / "snap.json"
    code = main(["sim", "run", os.path.join(SCENARIOS, "eu-us-backup.json"),
                 "--snapshot-out", str(snap_file)])
    capsys.readouterr()
    assert code == EXIT_OK
    code = main(["topo", "export", "--format", "dot", "--snapshot", str(snap_file)])
    dot = capsys.readouterr().out
    assert code == EXIT_OK
    # After the transatlantic cut the backup link carries the tree.
    assert "R3 -- R6 [style=bold" in dot
    doc = json.loads(snap_file.read_text())
    assert doc["flow"] is not None and doc["flow"]["value"] > 0


def test_line3_trace_matches_golden_file(tmp_path):
    out_path = tmp_path / "trace.jsonl"
    code = main(["sim", "run", os.path.join(SCENARIOS, "line3.json"),
                 "--trace", str(out_path)])
    assert code == EXIT_OK
    golden = os.path.join(os.path.dirname(__file__), "golden", "line3.trace.jsonl")
    with open(golden) as f:
        assert out_path.read_text() == f.read()


# --- topo export ---

def test_topo_export_offline_and_live_parity(registry, tmp_path, capsys):
    cfg = load_config(None, {**FAST, "registry_address": registry_addr(registry),
                             "reflector_id": 1, "listen": "127.0.0.1:0", "region": "EU"})
    reflector = ReflectorDaemon(cfg)
    reflector.start()
    try:
        deadline = time.time() + 5
        while time.time() < deadline:
            code = main(["topo", "export", "--format", "json",
                         "--registry", registry_addr(registry)])
            live = capsys.readouterr().out
            assert code == EXIT_OK
            if '"id": 1' in live:
                break
            time.sleep(0.1)
        assert '"id": 1' in live
        snap_file = tmp_path / "snap.json"
        snap_file.write_text(live)
        code = main(["topo", "export", "--format", "json", "--snapshot", str(snap_file)])
        offline = capsys.readouterr().out
        assert code == EXIT_OK
        assert offline == live  # byte-identical offline/online documents
        code = main(["topo", "export", "--format", "dot", "--snapshot", str(snap_file)])
        dot = capsys.readouterr().out
        assert code == EXIT_OK
        assert dot.startswith("graph overlay {")
        assert '"id": 1' not in dot and "R1" in dot
    finally:
        reflector.shutdown()


def test_topo_export_unreachable_registry_exit_four(capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    code = main(["topo", "export", "--registry", "127.0.0.1:%d" % free_port])
    assert code == EXIT_CONNECT


def snapshot_document():
    """A valid two-reflector snapshot document."""
    return snapshot_to_dict(TopologySnapshot(
        epoch=4,
        reflectors=(RegistryEntry(1, "10.0.0.1:7000", "EU"), RegistryEntry(2, "10.0.0.2:7000")),
        links=(LinkRecord(LinkStats((1, 2), 20.0, 0.0, 1000.0, 0.0),
                          QualityFactor(link=(1, 2), q=0.9)),),
        tree_edges=frozenset({(1, 2)}),
        room_members={},
    ))


def mistyped(field):
    """The snapshot document with reflectors[0].id or links[0].quality mistyped."""
    doc = snapshot_document()
    if field == "reflectors[0].id":
        doc["reflectors"][0]["id"] = "x"
    else:
        doc["links"][0]["quality"] = "q"
    return doc


def test_topo_export_bad_snapshot_file_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["topo", "export", "--snapshot", str(path)]) == EXIT_INPUT
    for field in ("reflectors[0].id", "links[0].quality"):
        path.write_text(json.dumps(mistyped(field)))
        capsys.readouterr()
        for fmt in ("dot", "json"):
            assert main(["topo", "export", "--format", fmt, "--snapshot", str(path)]) == EXIT_INPUT
            assert "error: field %s: " % field in capsys.readouterr().err


def test_topo_export_mistyped_live_snapshot_exit_two(capsys):
    # A one-shot registry answers the snapshot request with a mistyped document.
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)

    def answer_once():
        conn, _ = server.accept()
        with conn, conn.makefile("r") as reader:
            reader.readline()
            reply = {"v": 3, "kind": "snapshot", "epoch": 4,
                     "snapshot": mistyped("reflectors[0].id")}
            conn.sendall(encode_message(reply).encode("utf-8"))

    thread = threading.Thread(target=answer_once, daemon=True)
    thread.start()
    try:
        code = main(["topo", "export", "--registry", "127.0.0.1:%d" % server.getsockname()[1]])
    finally:
        thread.join(timeout=5)
        server.close()
    assert not thread.is_alive()
    assert code == EXIT_INPUT
    assert "error: field reflectors[0].id: expected an integer, got str" in capsys.readouterr().err


# --- metrics tail ---

def test_metrics_tail_bad_pattern_exit_two(capsys):
    assert main(["metrics", "tail", "--filter", "[", "--registry", "127.0.0.1:1"]) == EXIT_INPUT


def test_metrics_tail_waits_through_a_quiet_stream(monkeypatch, capsys):
    # The connect timeout must not carry over to the stream: with default
    # intervals the registry stays silent longer than it, and the tail
    # must still print the sample that comes after the silence.
    daemon = RegistryDaemon(load_config(None, {}), listen="127.0.0.1:0")
    daemon.start()
    connect = socket.create_connection
    monkeypatch.setattr("vroverlay.cli.socket.create_connection",
                        lambda address, timeout=None: connect(address, timeout=0.2))
    feeder = connect(("127.0.0.1", daemon.port), timeout=5)
    tail_done = threading.Event()

    def feed():
        time.sleep(0.5)
        sample = MetricSample(reflector=7, name="vrvs.clients", value=1.0, at=1000.0)
        feeder.sendall(encode_message(make_metric_event(sample)).encode())
        if not tail_done.wait(5.0):
            daemon.stop()  # ends a tail that missed the sample instead of hanging

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    try:
        code = main(["metrics", "tail", "--registry", registry_addr(daemon), "--limit", "1"])
    finally:
        tail_done.set()
        thread.join(timeout=10)
        feeder.close()
        daemon.stop()
    assert code == EXIT_OK
    assert " 7 vrvs.clients 1" in capsys.readouterr().out


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_metrics_tail_quiet_stream_stops_on_signal(signum):
    # With no stream timeout, only the stop handler can end a tail that
    # waits on an idle registry; it must do so at once, not at the next sample.
    daemon = RegistryDaemon(load_config(None, {}), listen="127.0.0.1:0")
    daemon.start()
    # The with block closes the pipes and reaps the process.
    with subprocess.Popen(
        [sys.executable, "-m", "vroverlay.cli", "metrics", "tail",
         "--registry", registry_addr(daemon)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=os.path.join(os.path.dirname(__file__), ".."),
    ) as proc:
        try:
            deadline = time.time() + 10
            while time.time() < deadline and not daemon._subscribers:
                time.sleep(0.05)
            assert daemon._subscribers, "tail never subscribed"
            time.sleep(0.5)
            proc.send_signal(signum)
            assert proc.wait(timeout=2) == EXIT_OK, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
            daemon.stop()


def test_metrics_tail_streams_filtered_samples(registry, capsys):
    # The feeder reflector registers only after the tail is attached; its
    # samples must appear in the stream without restarting the tail.
    addr = registry_addr(registry)
    feeder = socket.create_connection(("127.0.0.1", registry.port), timeout=5)

    def feed():
        try:
            time.sleep(0.4)
            feeder.sendall(encode_message(make_register(7, "127.0.0.1:9", "EU")).encode())
            for i in range(5):
                sample = MetricSample(reflector=7, name="vrvs.clients", value=float(i), at=1000.0 * i)
                feeder.sendall(encode_message(make_metric_event(sample)).encode())
                other = MetricSample(reflector=7, name="sys.load", value=0.5, at=1000.0 * i)
                feeder.sendall(encode_message(make_metric_event(other)).encode())
                time.sleep(0.05)
        except OSError:
            pass  # tail finished and the socket went away first

    import threading

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    code = main(["metrics", "tail", "--filter", "vrvs.*",
                 "--registry", addr, "--limit", "3"])
    out = capsys.readouterr().out
    thread.join(timeout=5)
    feeder.close()
    assert code == EXIT_OK
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 3
    for line in lines:
        assert " 7 vrvs.clients " in line
        assert line.startswith("19")  # ISO timestamp (epoch-ms based)


@pytest.mark.parametrize("command", [("metrics", "tail"), ("topo", "export")],
                         ids=["metrics-tail", "topo-export"])
def test_registry_line_longer_than_max_line_exits_two(command):
    # A fake registry sends MAX_LINE bytes with no newline and keeps the
    # connection open: the CLI must give the line up, not wait for its end.
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    finished = threading.Event()

    def flood():
        conn, _ = server.accept()
        with conn:
            try:
                conn.sendall(b"x" * MAX_LINE)
            except OSError:
                pass  # the CLI gave up and closed first
            finished.wait(30)

    thread = threading.Thread(target=flood, daemon=True)
    thread.start()
    try:
        result = run_cli(*command, "--registry", "127.0.0.1:%d" % server.getsockname()[1],
                         timeout=10)
    finally:
        finished.set()
        thread.join(timeout=5)
        server.close()
    assert result.returncode == EXIT_INPUT, result.stderr
    assert "longer than %d bytes" % MAX_LINE in result.stderr


# --- daemon exit codes via subprocess ---

def run_cli(*args, timeout=30):
    return subprocess.run(
        [sys.executable, "-m", "vroverlay.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=os.path.join(os.path.dirname(__file__), ".."),
    )


def test_subprocess_sim_run_exit_zero():
    result = run_cli("sim", "run", os.path.join(SCENARIOS, "line3.json"))
    assert result.returncode == EXIT_OK, result.stderr
    assert "exactly" not in result.stderr


def test_reflector_duplicate_id_exit_four(registry):
    addr = registry_addr(registry)
    cfg = load_config(None, {**FAST, "registry_address": addr, "reflector_id": 5,
                             "listen": "127.0.0.1:0"})
    first = ReflectorDaemon(cfg)
    first.start()
    try:
        result = run_cli("run-reflector", "--id", "5", "--registry", addr,
                         "--listen", "127.0.0.1:0")
        assert result.returncode == EXIT_CONNECT
        assert "DuplicateId" in result.stderr
    finally:
        first.shutdown()


def test_reflector_registry_unreachable_exit_four():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    result = run_cli("run-reflector", "--id", "1",
                     "--registry", "127.0.0.1:%d" % free_port,
                     "--listen", "127.0.0.1:0")
    assert result.returncode == EXIT_CONNECT


def test_reflector_sigterm_deregisters_and_exits_zero(registry):
    addr = registry_addr(registry)
    # The with block closes the pipes and reaps the process.
    with subprocess.Popen(
        [sys.executable, "-m", "vroverlay.cli", "run-reflector",
         "--id", "9", "--registry", addr, "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=os.path.join(os.path.dirname(__file__), ".."),
    ) as proc:
        try:
            deadline = time.time() + 10
            while time.time() < deadline and not registry.registry.is_live(9):
                time.sleep(0.1)
            assert registry.registry.is_live(9), (proc.stderr.read() if proc.poll()
                                                  else "not registered")
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=10)
            assert code == EXIT_OK
            deadline = time.time() + 5
            while time.time() < deadline and registry.registry.is_live(9):
                time.sleep(0.1)
            assert not registry.registry.is_live(9)  # deregistration message arrived
        finally:
            if proc.poll() is None:
                proc.kill()


def test_config_error_exit_two(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("alpha = fast\n")
    result = run_cli("run-registry", "--config", str(bad))
    assert result.returncode == EXIT_INPUT


def test_registry_bind_error_exit_three():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        result = run_cli("run-registry", "--listen", "127.0.0.1:%d" % port)
        assert result.returncode == 3
        assert "cannot bind" in result.stderr
    finally:
        blocker.close()


def test_reflector_bind_error_exit_three():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        # Listener binds before the registry is dialed, so the bind error wins:
        # a port in use, and an address of no local interface (TEST-NET-1).
        for listen in ("127.0.0.1:%d" % port, "192.0.2.1:0"):
            result = run_cli("run-reflector", "--id", "1",
                             "--registry", "127.0.0.1:1",
                             "--listen", listen)
            assert result.returncode == 3, result.stderr
            assert "cannot bind %s" % listen in result.stderr
    finally:
        blocker.close()


def test_daemon_imports_load_no_simulator_module():
    # The daemons never run the simulator; `sim` subcommands import it when
    # they run, which keeps it out of a daemon's memory. -S keeps installed
    # packages out, so the modules come from this checkout's src/.
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import vroverlay.cli, vroverlay.daemon\n"
        "print(sorted(m for m in sys.modules if m.startswith('vroverlay.sim')))" % src
    )
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
