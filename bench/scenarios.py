"""Scenario documents for the simulator workloads, generated from a seed.

Both builders return plain scenario dicts, the same input format
`vroverlay sim run` reads, so the benchmark hands the program only
generated inputs. The same (size, seed) always gives the same document.

The topology and the rooms come from a fixed seed per workload; the run's
seed draws the traffic and the link churn. Different random topologies
differ in tree depth, so they would make different amounts of work (up to
a fifth apart in trace events on sim-media) and runs at different seeds
could not be compared; with one topology every seed makes the same kind
and nearly the same amount of work.
"""
import random

MEDIA_TOPOLOGY_SEED = 1900   # criterion 01's scale topology
CONTROL_TOPOLOGY_SEED = 300

# Full and smoke sizes. Smoke keeps every feature of a workload (bursts,
# latency changes, gateway flow) at a size that runs in well under a second.
MEDIA_SIZES = {
    "full": dict(n_reflectors=70, n_rooms=200, n_clients=2000, burst=20, duration_ms=60_000),
    "smoke": dict(n_reflectors=12, n_rooms=8, n_clients=80, burst=3, duration_ms=12_000),
}
CONTROL_SIZES = {
    "full": dict(n_reflectors=300, n_links=1200, n_rooms=600, hosts_per_room=5,
                 changes_per_tick=30, packets_per_room=4, duration_ms=300_000),
    "smoke": dict(n_reflectors=20, n_links=60, n_rooms=12, hosts_per_room=4,
                  changes_per_tick=4, packets_per_room=2, duration_ms=130_000),
}


def media_scenario(seed, n_reflectors, n_rooms, n_clients, burst, duration_ms):
    """Criterion 01's scale topology with 20-packet bursts per source.

    A random recursive tree plus 34 extra links, all lossless and steady,
    ten clients per room spread round-robin over the reflectors, and two
    sources per room (drawn from the seed) each sending one burst at 50 ms
    spacing, at a start time jittered by the seed.
    """
    rng = random.Random(MEDIA_TOPOLOGY_SEED)
    traffic = random.Random(seed)
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
        # Bursts stay clear of the 10 s control cadence.
        t0 = 1000 + r * 37 + traffic.randrange(0, 37)
        for src, offset in zip(traffic.sample(members, 2), (0, 211)):
            events.append({"t": t0 + offset, "action": "inject", "room": r, "src": src,
                           "count": burst, "interval_ms": 50, "payload_bytes": 120})
    events.sort(key=lambda e: e["t"])
    return {
        "name": "bench-sim-media",
        "seed": seed,
        "duration_ms": duration_ms,
        "reflectors": reflectors,
        "links": links,
        "clients": clients,
        "rooms": rooms,
        "events": events,
        "expect": {"exactly_once": True, "notifications": 0},
    }


def control_scenario(seed, n_reflectors, n_links, n_rooms, hosts_per_room,
                     changes_per_tick, packets_per_room, duration_ms):
    """A large, churning topology that keeps the optimizer busy.

    A random spanning tree plus extra links; every 10 s a batch of links
    gets a fresh latency, so the optimizer re-weighs every cycle and
    installs a new tree whenever the gain clears the hysteresis. Each room
    sends one audio packet a minute, so forwarding runs across epoch swaps.
    The seed draws the churn and each room's source and start time.
    """
    rng = random.Random(CONTROL_TOPOLOGY_SEED)
    traffic = random.Random(seed)
    ids = list(range(1, n_reflectors + 1))
    reflectors = [{"id": i} for i in ids]
    order = ids[:]
    rng.shuffle(order)
    seen = set()
    links = []

    def add(a, b):
        key = (min(a, b), max(a, b))
        if a == b or key in seen:
            return False
        seen.add(key)
        links.append({"a": key[0], "b": key[1], "latency_ms": rng.randint(5, 160),
                      "bandwidth_kbps": 50_000})
        return True

    for i in range(1, n_reflectors):
        add(order[rng.randrange(0, i)], order[i])
    while len(links) < n_links:
        add(rng.choice(ids), rng.choice(ids))

    clients = []
    rooms = []
    events = []
    next_client = 1
    for r in range(1, n_rooms + 1):
        members = []
        for host in sorted(rng.sample(ids, hosts_per_room)):
            clients.append({"id": next_client, "reflector": host})
            members.append(next_client)
            next_client += 1
        rooms.append({"id": r, "members": members})
        events.append({"t": 2000 + traffic.randrange(0, 60_000), "action": "inject", "room": r,
                       "src": traffic.choice(members), "count": packets_per_room,
                       "interval_ms": 60_000,
                       "payload_bytes": 160, "payload_type": "audio"})
    link_keys = sorted(seen)
    for t in range(10_000, duration_ms, 10_000):
        # 1 ms past the control tick, so the optimizer sees it next cycle.
        for a, b in traffic.sample(link_keys, changes_per_tick):
            events.append({"t": t + 1, "action": "set_link", "a": a, "b": b,
                           "latency_ms": traffic.randint(5, 160)})
    events.sort(key=lambda e: e["t"])
    return {
        "name": "bench-sim-control",
        "seed": seed,
        "duration_ms": duration_ms,
        "reflectors": reflectors,
        "links": links,
        "clients": clients,
        "rooms": rooms,
        "gateway_pair": [1, n_reflectors],
        "events": events,
        "expect": {"exactly_once": True},
    }
