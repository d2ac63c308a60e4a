"""Self-tests of the benchmark (not collected by the program's own suite).

    python3 -m pytest -q bench/selftest.py

They run every workload at smoke size, check that every named metric is
emitted, that the output checks fail on corrupted output, and that
daemon-relay leaves no process or listening port behind, also when a
session fails half-way.
"""
import json
import os
import shutil
import socket
import struct
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import relay  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seconds", "2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_the_metrics_run_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_scenarios_follow_the_seed():
    for build, sizes in ((scenarios.media_scenario, scenarios.MEDIA_SIZES),
                         (scenarios.control_scenario, scenarios.CONTROL_SIZES)):
        assert build(3, **sizes["smoke"]) == build(3, **sizes["smoke"])
        assert build(3, **sizes["smoke"]) != build(4, **sizes["smoke"])


def _sim_rep(**changes):
    rep = {"trace_hash": "a" * 64, "inject_skipped": 0, "unexpected_deliveries": 0,
           "injected": 48, "delivered": 432, "violations": 0, "violation_kinds": [],
           "failed_pairs": 0}
    rep.update(changes)
    return rep


@pytest.mark.parametrize("bad, message", [
    (dict(trace_hash="b" * 64), "trace hash differs"),
    (dict(delivered=431), "delivered 431"),
    (dict(violations=1), "invariant violations"),
    (dict(unexpected_deliveries=1), "outside the room"),
])
def test_sim_checks_fail_on_corrupted_output(bad, message):
    checks = run.Checks()
    run.check_sim("sim-media", 99, "smoke", [_sim_rep(), _sim_rep(**bad)], checks)
    assert any(message in f for f in checks.failures), checks.failures


def test_sim_checks_reject_unknown_violations_on_sim_control():
    checks = run.Checks()
    rep = _sim_rep(injected=24, violation_kinds=["routing loop", "expected 0 notifications"])
    run.check_sim("sim-control", 99, "smoke", [rep, rep], checks)
    assert set(checks.failures) == {
        "violations beyond the known defect: ['expected 0 notifications']"}


def test_golden_hash_mismatch_fails_the_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    golden = tmp_path / "bench" / "golden.json"
    doc = json.loads(golden.read_text())
    doc["sim-media"]["smoke"] = "0" * 64
    golden.write_text(json.dumps(doc))
    proc = bench("--workload", "sim-media", "--seconds", "1", "--smoke",
                 cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert "is not the recorded" in proc.stdout


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "sim-media", "--seconds", "1", cwd=tmp_path,
                 script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def receiver():
    """A Generator whose receiver socket is fed by the test."""
    feed, sock = socket.socketpair()
    gen = relay.Generator.__new__(relay.Generator)
    gen.noise = bytes(range(256)) * 17
    gen.sent, gen.received, gen.next_seq, gen.buf = {}, set(), 1, bytearray()
    gen.receiver = sock
    gen.sender = socket.socket()
    sock.setblocking(False)
    gen.sel = relay.selectors.DefaultSelector()
    gen.sel.register(sock, relay.selectors.EVENT_READ)
    yield gen, feed
    gen.close()
    feed.close()


def test_relay_accepts_an_intact_frame(receiver):
    gen, feed = receiver
    seq, data = gen.frame(123)
    feed.sendall(data)
    assert [s for s, _ in gen.poll(1.0)] == [seq]


@pytest.mark.parametrize("corrupt, message", [
    (lambda data: data[:30] + bytes([data[30] ^ 1]) + data[31:], "does not match"),
    (lambda data: data[:4] + struct.pack(">I", 6) + data[8:], "corrupt header"),
    (lambda data: data + data, "delivered twice"),
])
def test_relay_checks_fail_on_corrupted_output(receiver, corrupt, message):
    gen, feed = receiver
    _, data = gen.frame(123)
    feed.sendall(corrupt(data))
    with pytest.raises(relay.RelayError, match=message):
        gen.poll(1.0)


class _Recording(relay.Daemons):
    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _Recording.made.append(self)


def _assert_nothing_left(daemons):
    assert daemons.procs, "no daemon was started"
    for proc in daemons.procs.values():
        assert proc.poll() is not None
    for port in daemons.ports.values():
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=2.0).close()


@pytest.mark.parametrize("fail", [False, True])
def test_relay_leaves_no_process_or_port_behind(tmp_path, monkeypatch, fail):
    _Recording.made.clear()
    monkeypatch.setattr(relay, "Daemons", _Recording)
    if fail:
        def broken(self, frames):
            raise relay.RelayError("injected failure")

        monkeypatch.setattr(relay.Generator, "closed_loop", broken)
        with pytest.raises(relay.RelayError, match="injected failure"):
            relay.run_session(1, run.SRC, str(tmp_path), 0.2, 100, traced=True)
    else:
        result = relay.run_session(1, run.SRC, str(tmp_path), 0.2, 100, traced=True)
        assert result["failed"] == 0
    (daemons,) = _Recording.made
    _assert_nothing_left(daemons)
