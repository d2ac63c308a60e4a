"""daemon-relay: a registry and two peered reflector daemons on loopback.

Each session starts three `vroverlay` processes (through launch.py): the
registry, reflector 1 and reflector 2, with reflector 1 as reflector 2's
`--peer`. One generator thread holds two client connections in room 5: a
sender on reflector 2 and a receiver on reflector 1, so every frame crosses
client -> reflector 2 -> reflector 1 -> client.

* set-up: from the first spawn until a probe frame is relayed end to end
  (process start, registration, peer probing and the first route install);
* phase A, open loop: frames due at a fixed rate, each timed from its due
  time to its receipt, so a stall also delays the frames queued behind it;
* phase B, closed loop: a fixed number of frames with a fixed window in
  flight, timed from first send to last receipt.

Frames are encoded and checked with the benchmark's own struct layout (the
24-byte header in protocol.md), not with the program's codec.
"""
import json
import os
import random
import re
import selectors
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time
from time import perf_counter_ns

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(HERE, "relay.conf")
LAUNCH = os.path.join(HERE, "launch.py")

HEADER = struct.Struct(">2sBBIIIIBBH")
MAGIC, VERSION, FRAME_MEDIA, AUDIO = b"VR", 3, 1, 2
ROOM, SENDER, RECEIVER = 5, 1, 2
PAYLOAD_BYTES = 160
RATE = 2000          # phase A frames per second, about 100 G.711 streams
WINDOW = 64          # phase B frames in flight
SIZES = {
    # phase A seconds, phase B frames
    "full": (3.0, 20_000),
    "smoke": (0.3, 500),
}
SESSION_S = 10       # a full-size session, start to stop
START_TIMEOUT_S = 20.0
DRAIN_S = 2.0
PHASE_B_TIMEOUT_S = 30.0


class RelayError(Exception):
    """The relay did not deliver what was sent, or a daemon misbehaved."""


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_status(pid, key):
    with open("/proc/%d/status" % pid) as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise RelayError("no %s in /proc/%d/status" % (key, pid))


class Daemons:
    """The three daemon processes of one session; always stopped on exit."""

    def __init__(self, src_dir, run_dir, spans_prefix=None):
        self.src_dir = src_dir
        self.run_dir = run_dir
        self.spans_prefix = spans_prefix
        self.procs = {}
        self.logs = []
        self.ports = {}

    def spawn(self, name, args, ready):
        cmd = [sys.executable, LAUNCH]
        if self.spans_prefix is not None:
            cmd += ["--spans", self.spans_path(name)]
        cmd += ["--", *args]
        env = dict(os.environ, PYTHONPATH=self.src_dir, PYTHONUNBUFFERED="1")
        log = open(os.path.join(self.run_dir, name + ".log"), "wb")
        self.logs.append(log)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=env,
                                cwd=self.run_dir)
        self.procs[name] = proc
        line = self._readline(proc, START_TIMEOUT_S)
        match = re.search(ready, line)
        if match is None:
            raise RelayError("%s did not start: %r" % (name, line))
        self.ports[name] = int(match.group(1))
        return self.ports[name]

    @staticmethod
    def _readline(proc, timeout):
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RelayError("daemon printed nothing within %.0f s" % timeout)
        return proc.stdout.readline().decode("utf-8", "replace")

    def start(self):
        conf = ["--config", CONFIG]
        registry = self.spawn("registry", ["run-registry", *conf, "--listen", "127.0.0.1:0"],
                              r"listening on [\d.]+:(\d+)")
        reflector = ["run-reflector", *conf, "--registry", "127.0.0.1:%d" % registry,
                     "--listen", "127.0.0.1:0"]
        port1 = self.spawn("reflector1", [*reflector, "--id", "1", "--region", "EU"],
                           r"listening on port (\d+)")
        self.spawn("reflector2", [*reflector, "--id", "2", "--region", "US",
                                  "--peer", "1=127.0.0.1:%d" % port1],
                   r"listening on port (\d+)")

    def spans_path(self, name):
        return os.path.join(self.run_dir, "%s.%s.json" % (self.spans_prefix, name))

    def reflector_pids(self):
        return [self.procs["reflector1"].pid, self.procs["reflector2"].pid]

    def stop(self):
        """SIGTERM reflectors, then the registry; SIGKILL whatever lingers."""
        failures = []
        for name in ("reflector2", "reflector1", "registry"):
            proc = self.procs.get(name)
            if proc is None:
                continue
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                failures.append("%s ignored SIGTERM" % name)
                continue
            if code != 0:
                failures.append("%s exited %d" % (name, code))
        for proc in self.procs.values():
            proc.stdout.close()
        for log in self.logs:
            log.close()
        return failures


class Generator:
    """The sender and receiver clients, driven from one thread."""

    def __init__(self, seed, sender_port, receiver_port):
        self.noise = random.Random(seed).randbytes(4096 + PAYLOAD_BYTES)
        self.sent = {}          # seq -> payload
        self.received = set()   # seqs
        self.next_seq = 1
        self.buf = bytearray()
        self.receiver = self._connect(receiver_port, RECEIVER)
        self.sender = self._connect(sender_port, SENDER)
        self.receiver.setblocking(False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.receiver, selectors.EVENT_READ)

    @staticmethod
    def _connect(port, client):
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = '{"client": %d, "kind": "hello", "role": "client", "rooms": [%d], "v": 3}\n'
        sock.sendall((hello % (client, ROOM)).encode())
        return sock

    def close(self):
        self.sel.close()
        for sock in (self.sender, self.receiver):
            sock.close()

    def frame(self, due_ns):
        seq = self.next_seq
        self.next_seq += 1
        start = (seq * 131) % 4096
        payload = struct.pack(">Q", due_ns) + self.noise[start + 8:start + PAYLOAD_BYTES]
        self.sent[seq] = payload
        header = HEADER.pack(MAGIC, VERSION, FRAME_MEDIA, ROOM, SENDER, seq,
                             (due_ns // 1_000_000) & 0xFFFFFFFF, AUDIO, 0, PAYLOAD_BYTES)
        return seq, header + payload

    def poll(self, timeout):
        """Read what has arrived; returns [(seq, receipt ns)] of new frames."""
        if not self.sel.select(max(timeout, 0.0)):
            return []
        try:
            chunk = self.receiver.recv(1 << 16)
        except BlockingIOError:
            return []
        now = perf_counter_ns()
        if not chunk:
            raise RelayError("reflector 1 closed the receiver connection")
        self.buf += chunk
        out = []
        offset = 0
        while len(self.buf) - offset >= HEADER.size:
            magic, version, ftype, room, src, seq, _, ptype, flags, size = HEADER.unpack_from(
                self.buf, offset)
            end = offset + HEADER.size + size
            if len(self.buf) < end:
                break
            payload = bytes(self.buf[offset + HEADER.size:end])
            offset = end
            if (magic, version, ftype, room, src, ptype, flags) != (
                    MAGIC, VERSION, FRAME_MEDIA, ROOM, SENDER, AUDIO, 0):
                raise RelayError("frame %d arrived with a corrupt header" % seq)
            if self.sent.get(seq) != payload:
                raise RelayError("frame %d does not match any frame sent" % seq)
            if seq in self.received:
                raise RelayError("frame %d delivered twice" % seq)
            self.received.add(seq)
            out.append((seq, now))
        del self.buf[:offset]
        return out

    def first_relay(self, timeout):
        """Send a probe frame every 20 ms until one comes through."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, data = self.frame(perf_counter_ns())
            self.sender.sendall(data)
            if self.poll(0.02):
                return
        raise RelayError("no frame relayed within %.0f s of start-up" % timeout)

    def settle(self, quiet_s=0.2):
        """Wait until no late probe frame has arrived for `quiet_s`."""
        while self.poll(quiet_s):
            pass

    def open_loop(self, seconds):
        """Phase A. Returns (latencies ms, max lateness ms, sent seqs)."""
        period = 1e9 / RATE
        count = int(seconds * RATE)
        t0 = perf_counter_ns() + 1_000_000
        due = {}
        latencies = []
        late_ms = 0.0
        i = 0
        while i < count:
            now = perf_counter_ns()
            batch = []
            while i < count and t0 + int(i * period) <= now:
                when = t0 + int(i * period)
                seq, data = self.frame(when)
                due[seq] = when
                batch.append(data)
                late_ms = max(late_ms, (now - when) / 1e6)
                i += 1
            if batch:
                self.sender.sendall(b"".join(batch))
            wait_ns = t0 + int(i * period) - perf_counter_ns()
            for seq, at in self.poll(wait_ns / 1e9 if i < count else 0.0):
                if seq in due:
                    latencies.append((at - due[seq]) / 1e6)
        deadline = time.monotonic() + DRAIN_S
        while len(latencies) < count and time.monotonic() < deadline:
            for seq, at in self.poll(0.05):
                if seq in due:
                    latencies.append((at - due[seq]) / 1e6)
        return latencies, late_ms, count

    def closed_loop(self, frames):
        """Phase B. Returns (seconds from first send to last receipt, delivered)."""
        sent = got = 0
        pending = set()
        started = perf_counter_ns()
        deadline = time.monotonic() + PHASE_B_TIMEOUT_S
        while got < frames and time.monotonic() < deadline:
            batch = []
            while sent < frames and len(pending) < WINDOW:
                seq, data = self.frame(perf_counter_ns())
                pending.add(seq)
                batch.append(data)
                sent += 1
            if batch:
                self.sender.sendall(b"".join(batch))
            for seq, _ in self.poll(0.05):
                if seq in pending:
                    pending.discard(seq)
                    got += 1
        return (perf_counter_ns() - started) / 1e9, got


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_session(seed, src_dir, run_dir, phase_a_s, phase_b_frames, traced):
    """One start-to-stop session; returns its measurements."""
    prefix = "spans" if traced else None
    daemons = Daemons(src_dir, run_dir, prefix)
    gen = None
    try:
        started = time.perf_counter()
        daemons.start()
        gen = Generator(seed, daemons.ports["reflector2"], daemons.ports["reflector1"])
        gen.first_relay(START_TIMEOUT_S)
        setup_s = time.perf_counter() - started
        gen.settle()

        pids = daemons.reflector_pids()
        snaps_before = _span_marks(daemons) if traced else None
        cpu0 = sum(proc_cpu_s(pid) for pid in pids)
        latencies, late_ms, attempted = gen.open_loop(phase_a_s)
        cpu_a = sum(proc_cpu_s(pid) for pid in pids) - cpu0
        threads = sum(proc_status(pid, "Threads") for pid in pids)
        snaps_after = _span_marks(daemons) if traced else None

        run_s, delivered_b = gen.closed_loop(phase_b_frames)
        peak_rss_mib = sum(proc_status(pid, "VmHWM") for pid in pids) / 1024.0
    finally:
        if gen is not None:
            gen.close()
        failures = daemons.stop()
    if failures:
        raise RelayError("; ".join(failures))
    result = {
        "setup_s": setup_s,
        "latencies_ms": latencies,
        "late_ms": late_ms,
        "attempted": attempted + phase_b_frames,
        "failed": (attempted - len(latencies)) + (phase_b_frames - delivered_b),
        "delivered_a": len(latencies),
        "cpu_a_s": cpu_a,
        "threads": threads,
        "run_s": run_s,
        "delivered_b": delivered_b,
        "peak_rss_mib": peak_rss_mib,
    }
    if traced:
        result["phase_a_spans"] = {
            name: spans.diff(snaps_after[name], snaps_before[name]) for name in snaps_after
        }
        result["spans"] = {name: _read_json(daemons.spans_path(name)) for name in daemons.procs}
    return result


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _span_marks(daemons):
    """SIGUSR1 each reflector and collect the span statistics it writes."""
    out = {}
    for name in ("reflector1", "reflector2"):
        proc = daemons.procs[name]
        base = daemons.spans_path(name)
        n = 1
        while os.path.exists("%s.%d" % (base, n)):
            n += 1
        proc.send_signal(signal.SIGUSR1)
        path = "%s.%d" % (base, n)
        deadline = time.monotonic() + 5.0
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RelayError("%s wrote no span statistics" % name)
            time.sleep(0.01)
        out[name] = _read_json(path)["spans"]
    return out


def fresh_run_dir(root):
    path = os.path.join(root, "relay-%d" % os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
