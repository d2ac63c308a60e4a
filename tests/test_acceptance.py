"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPT <nn> <name>: PASS` line on success (pytest -s
shows them); any failure fails the suite. Tolerances are pinned here and
never loosened at runtime.
"""
import itertools
import os
import random
import time

import pytest

from vroverlay.model import MediaPacket, PayloadType
from vroverlay.monitor import MetricSample, MetricStore
from vroverlay.optimizer import EdgeAttrs, WeightedGraph, max_flow, min_spanning_tree
from vroverlay.quality import QualityFactor, update_ewma
from vroverlay.sim import OverlaySim, load_scenario, load_scenario_file
from vroverlay.supervisor import (
    HealthState,
    NotificationEvent,
    ProbeResult,
    RestartCommand,
    Supervisor,
)
from vroverlay.wire import decode_media_packet, encode_media_packet

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def report(number, name, detail=""):
    suffix = " (%s)" % detail if detail else ""
    print("ACCEPT %02d %s: PASS%s" % (number, name, suffix))


# ---------------------------------------------------------------- criterion 1

def scale_scenario(n_reflectors=70, n_rooms=200, n_clients=2000, seed=1900):
    rng = random.Random(seed)
    reflectors = [{"id": i} for i in range(1, n_reflectors + 1)]
    links = []
    for i in range(2, n_reflectors + 1):
        links.append({
            "a": rng.randrange(1, i), "b": i,
            "latency_ms": rng.choice((5, 10, 15, 20)),
            "bandwidth_kbps": 100_000,
        })
    seen = {(min(l["a"], l["b"]), max(l["a"], l["b"])) for l in links}
    while len(links) < n_reflectors + 34:
        a, b = rng.sample(range(1, n_reflectors + 1), 2)
        key = (min(a, b), max(a, b))
        if key not in seen:
            seen.add(key)
            links.append({"a": key[0], "b": key[1], "latency_ms": 12,
                          "bandwidth_kbps": 100_000})
    clients = [
        {"id": c, "reflector": (c - 1) % n_reflectors + 1}
        for c in range(1, n_clients + 1)
    ]
    per_room = n_clients // n_rooms
    rooms = []
    events = []
    for r in range(1, n_rooms + 1):
        members = list(range((r - 1) * per_room + 1, r * per_room + 1))
        rooms.append({"id": r, "members": members})
        t0 = 1000 + r * 37  # bursts stay clear of the 10 s control cadence
        events.append({"t": t0, "action": "inject", "room": r, "src": members[0],
                       "count": 1, "payload_bytes": 120})
        events.append({"t": t0 + 211, "action": "inject", "room": r,
                       "src": members[-1], "count": 1, "payload_bytes": 120})
    events.sort(key=lambda e: e["t"])
    return {
        "name": "scale-70",
        "seed": seed,
        "duration_ms": 15000,
        "reflectors": reflectors,
        "links": links,
        "clients": clients,
        "rooms": rooms,
        "events": events,
        "expect": {"exactly_once": True, "notifications": 0},
    }


def test_criterion_01_scale_run_exactly_once():
    started = time.monotonic()
    doc = scale_scenario()
    report_obj = OverlaySim(load_scenario(doc)).run()
    elapsed = time.monotonic() - started
    assert report_obj.ok(), report_obj.violations[:5]
    assert report_obj.media.injected == 400
    per_packet = 2000 // 200 - 1  # co-room members per packet
    assert report_obj.media.delivered == 400 * per_packet
    assert not any(v.startswith("routing loop") for v in report_obj.violations)
    assert elapsed < 120.0
    report(1, "scale-run-70-reflectors",
           "%d deliveries, %.1f s wall" % (report_obj.media.delivered, elapsed))


# ---------------------------------------------------------------- criterion 2

def _count_components(vertices, edge_keys):
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_keys:
        parent[find(a)] = find(b)
    return len({find(v) for v in vertices})


def _acyclic(vertices, edge_keys):
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_keys:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
    return True


def _random_graph(rng, integer_caps=False):
    n = rng.randrange(2, 9)
    vertices = list(range(1, n + 1))
    pairs = list(itertools.combinations(vertices, 2))
    rng.shuffle(pairs)
    m = rng.randrange(0, min(12, len(pairs)) + 1)
    edges = {}
    for pair in pairs[:m]:
        cap = float(rng.randrange(0, 11)) if integer_caps else rng.random() * 10.0
        edges[pair] = EdgeAttrs(rng.randrange(0, 40) / 10.0, cap)
    return WeightedGraph(vertices=frozenset(vertices), edges=edges)


def test_criterion_02_mst_oracle_1000_graphs():
    rng = random.Random(31415)
    started = time.monotonic()
    for case in range(1000):
        g = _random_graph(rng)
        tree = min_spanning_tree(g)
        vertices = sorted(g.vertices)
        keys = sorted(g.edges)
        target = len(vertices) - _count_components(vertices, keys)
        best = 0.0 if target == 0 else min(
            (
                sum(g.edges[k].weight for k in subset)
                for subset in itertools.combinations(keys, target)
                if _acyclic(vertices, subset)
            ),
        )
        assert tree.total_weight == pytest.approx(best, abs=1e-9), "case %d" % case
        assert _acyclic(vertices, sorted(tree.edges))
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(2, "mst-brute-force-oracle", "1000 graphs in %.1f s" % elapsed)


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_max_flow_oracle_1000_graphs():
    rng = random.Random(27182)
    for case in range(1000):
        g = _random_graph(rng, integer_caps=True)
        vertices = sorted(g.vertices)
        s, t = vertices[0], vertices[-1]
        result = max_flow(g, s, t)
        others = vertices[1:-1]
        best = None
        for mask in range(2 ** len(others)):
            side = {s} | {v for i, v in enumerate(others) if mask >> i & 1}
            cut = sum(
                attrs.capacity
                for (a, b), attrs in g.edges.items()
                if (a in side) != (b in side)
            )
            best = cut if best is None else min(best, cut)
        assert result.value == best, "case %d" % case  # integer caps: exact
        net = {v: 0.0 for v in vertices}
        for (a, b), flow in result.edge_flows.items():
            assert abs(flow) <= g.edges[(a, b)].capacity, "capacity violated, case %d" % case
            net[a] -= flow
            net[b] += flow
        for v in vertices:
            expected = -result.value if v == s else result.value if v == t else 0.0
            assert net[v] == expected, "conservation violated at %d, case %d" % (v, case)
    report(3, "max-flow-min-cut-oracle", "1000 graphs, exact")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_ewma_convergence_bound():
    alpha = 0.25
    starts = (0.0, 0.03, 0.42, 0.87, 1.0)
    targets = (0.0, 0.11, 0.5, 0.93, 1.0)
    for start, c in itertools.product(starts, targets):
        state = QualityFactor(link=(1, 2), q=start, alpha=alpha, sample_count=1)
        for n in range(1, 51):
            state = update_ewma(state, c)
            assert abs(state.q - c) <= (1.0 - alpha) ** n, (start, c, n)
    report(4, "ewma-geometric-convergence", "exact for n in 1..50")


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_self_healing_and_escalation():
    ok_scenario = load_scenario_file(os.path.join(SCENARIOS, "restart-ok.json"))
    sim = OverlaySim(ok_scenario)
    rep = sim.run()
    assert rep.ok(), rep.violations
    kill_t = next(e["t"] for e in rep.trace if e["kind"] == "kill")
    restart_t = next(e["t"] for e in rep.trace if e["kind"] == "restart" and e["ok"])
    up_by = restart_t + sim.config.probe_interval_ms  # next probe confirms Up
    bound = kill_t + (sim.config.k_miss + 2) * sim.config.probe_interval_ms
    assert up_by <= bound
    assert sim.supervisor.records[3].state is HealthState.UP
    assert rep.notifications == []

    fail_scenario = load_scenario_file(os.path.join(SCENARIOS, "restart-fail.json"))
    sim2 = OverlaySim(fail_scenario)
    rep2 = sim2.run()
    assert rep2.ok(), rep2.violations
    assert len(rep2.notifications) == 1
    assert sim2.supervisor.records[3].state is HealthState.FAILED

    # 500 randomized probe-outcome sequences against a reference machine.
    rng = random.Random(500500)
    for case in range(500):
        k_miss = rng.choice((1, 2, 3))
        sup = Supervisor(k_miss=k_miss)
        sup.watch(1)
        state, misses, attempts, notified, restarts = "up", 0, 0, 0, 0
        actual_restarts = actual_notified = 0
        for step in range(rng.randrange(1, 80)):
            ok = rng.random() < 0.5
            if sup.records[1].state is HealthState.FAILED:
                actions = sup.supervise_tick({}, float(step))
            else:
                actions = sup.supervise_tick(
                    {1: ProbeResult.OK if ok else ProbeResult.NO_ANSWER}, float(step)
                )
            actual_restarts += sum(
                1 for a in actions if isinstance(a, RestartCommand)
            )
            actual_notified += sum(
                1 for a in actions if isinstance(a, NotificationEvent)
            )
            if state != "failed":
                if ok:
                    state, misses, attempts = "up", 0, 0
                elif state in ("up", "unresponsive"):
                    misses += 1
                    if misses >= k_miss:
                        state, attempts, restarts = "restarting", 1, restarts + 1
                    else:
                        state = "unresponsive"
                elif state == "restarting":
                    if attempts == 1:
                        attempts, restarts = 2, restarts + 1
                    else:
                        state, notified = "failed", notified + 1
        assert sup.records[1].state.value == state, "case %d" % case
        assert actual_notified == notified, "case %d" % case
        assert actual_restarts == restarts, "case %d" % case
    report(5, "self-healing-restart-escalation",
           "recovery in bound; 1 notification after 2 failures; 500 fuzz cases")


# ---------------------------------------------------------------- criterion 6

def _reroute_doc():
    return {
        "name": "reroute",
        "seed": 6,
        "duration_ms": 60000,
        "reflectors": [{"id": 1}, {"id": 2}, {"id": 3}],
        "links": [
            {"a": 1, "b": 2, "latency_ms": 10},
            {"a": 2, "b": 3, "latency_ms": 10},
            {"a": 1, "b": 3, "latency_ms": 30},
        ],
        "clients": [
            {"id": 1, "reflector": 1},
            {"id": 2, "reflector": 2},
            {"id": 3, "reflector": 3},
        ],
        "rooms": [{"id": 1, "members": [1, 2, 3]}],
        "events": [
            {"t": 1100, "action": "inject", "room": 1, "src": 1, "count": 100,
             "interval_ms": 500, "payload_bytes": 100},
            {"t": 15000, "action": "set_link", "a": 1, "b": 2, "loss": 0.95},
        ],
        "expect": {"min_routing_epochs": 2, "max_routing_epochs": 2},
    }


def test_criterion_06_rerouting_and_hysteresis():
    rep = OverlaySim(load_scenario(_reroute_doc())).run()
    assert rep.ok(), rep.violations
    routing = [e for e in rep.trace if e["kind"] == "routing"]
    assert len(routing) == 2
    assert routing[1]["t"] <= 15000 + 10000      # within one optimizer cycle
    assert [1, 2] not in routing[1]["edges"]     # degraded link evicted
    # Delivery stays exactly-once across the swap for packets after it.
    by_packet = {}
    for e in rep.trace:
        if e["kind"] == "deliver":
            by_packet.setdefault((e["src"], e["seq"]), []).append(e["client"])
    swaps = routing[1]["t"]
    late = {k: v for k, v in by_packet.items() if any(
        e["kind"] == "inject" and (e["src"], e["seq"]) == k and e["t"] > swaps
        for e in rep.trace)}
    assert late
    for receivers in late.values():
        assert sorted(receivers) == sorted(set(receivers))
        assert len(set(receivers)) == 2

    # Jitter below delta: no epoch after the first across 100 cycles.
    events = [
        {"t": 5000 + i * 10_000, "action": "set_link", "a": 1, "b": 2,
         "loss": 0.05 if i % 2 == 0 else 0.06}
        for i in range(100)
    ]
    doc = _reroute_doc()
    doc.update(duration_ms=1_010_000, events=events,
               expect={"min_routing_epochs": 1, "max_routing_epochs": 1})
    doc["links"] = [
        {"a": 1, "b": 2, "latency_ms": 10, "loss": 0.05},
        {"a": 2, "b": 3, "latency_ms": 10},
        {"a": 1, "b": 3, "latency_ms": 10, "loss": 0.055},
    ]
    jitter = OverlaySim(load_scenario(doc)).run()
    assert jitter.ok(), jitter.violations
    assert jitter.routing_epochs == [1]
    report(6, "dynamic-rerouting-hysteresis",
           "reroute within 1 cycle; 0 installs under jitter over 100 cycles")


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_auto_appearance_within_one_publish():
    doc = _reroute_doc()
    doc.update(duration_ms=60000, events=[], expect={})
    sim = OverlaySim(load_scenario(doc))
    register_at = 25000.0
    sim.schedule(register_at,
                 lambda: sim.add_reflector(71, region="US", link_to=1, latency_ms=20.0))
    rep = sim.run()
    # Each published snapshot is traced with its live reflectors.
    first = next(e["t"] for e in rep.trace
                 if e["kind"] == "snapshot" and 71 in e["reflectors"])
    assert first - register_at <= sim.config.publish_interval_ms
    report(7, "auto-appearance", "visible %.0f ms after registration" % (first - register_at))


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_monitoring_bounds_and_non_interference():
    store = MetricStore()  # documented defaults: C=4096, budget 8 MiB
    total = 1_000_000
    n_reflectors, n_names = 8, 8
    tick = n_reflectors * n_names  # one sample of every series
    for start in range(0, total, tick):
        store.record([
            MetricSample(
                reflector=i % n_reflectors + 1,
                name="m.%d" % (i // n_reflectors % n_names),
                value=float(i),
                at=float(i),
            )
            for i in range(start, start + tick)
        ])
    assert store.footprint_bytes() <= store.budget_bytes
    assert store.footprint_bytes() <= 16 * 1024 * 1024  # the stated memory target
    assert max(store.series_lengths().values()) <= store.series_capacity

    doc = _reroute_doc()
    doc["links"][0]["loss"] = 0.25
    doc["expect"] = {}
    on = OverlaySim(load_scenario(doc), monitoring=True).run()
    off = OverlaySim(load_scenario(doc), monitoring=False).run()
    deliveries_on = sorted(
        (e["src"], e["seq"], e["client"], e["t"]) for e in on.trace if e["kind"] == "deliver"
    )
    deliveries_off = sorted(
        (e["src"], e["seq"], e["client"], e["t"]) for e in off.trace if e["kind"] == "deliver"
    )
    assert deliveries_on == deliveries_off
    report(8, "monitoring-bounds",
           "footprint %.1f MiB <= budget; delivery sets identical on/off"
           % (store.footprint_bytes() / 1048576.0))


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_wire_codec_round_trip_and_goldens():
    rng = random.Random(90909)
    for _ in range(10_000):
        p = MediaPacket(
            room=rng.randrange(1, 2**32),
            src=rng.randrange(1, 2**32),
            seq=rng.randrange(0, 2**32),
            timestamp_ms=rng.randrange(0, 2**32),
            payload_type=PayloadType(rng.randrange(3)),
            flags=rng.randrange(256),
            payload=rng.randbytes(rng.randrange(0, 256)),
        )
        encoded = encode_media_packet(p)
        assert decode_media_packet(encoded) == p
    golden = bytes.fromhex(
        "5652" "0301" "00000005" "00000007" "00000001" "000003E8" "02" "00" "0001" "AA"
    )
    worked = MediaPacket(room=5, src=7, seq=1, timestamp_ms=1000,
                         payload_type=PayloadType.AUDIO_G711U, flags=0, payload=b"\xaa")
    assert encode_media_packet(worked) == golden
    assert decode_media_packet(golden) == worked
    empty = MediaPacket(room=1, src=1, seq=0, timestamp_ms=0)
    assert len(encode_media_packet(empty)) == 24
    report(9, "wire-codec", "10^4 round trips bit-exact; goldens match")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_bundled_scenario_determinism():
    names = ("line3", "eu-us-backup", "restart-fail", "restart-ok")
    for name in names:
        path = os.path.join(SCENARIOS, "%s.json" % name)
        h1 = OverlaySim(load_scenario_file(path)).run().trace_hash()
        h2 = OverlaySim(load_scenario_file(path)).run().trace_hash()
        assert h1 == h2, name
    report(10, "determinism", "%d scenarios, identical trace hashes" % len(names))
