"""Simulator core: event ordering, link arithmetic, loss statistics, schema."""
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from vroverlay.errors import LinkDown, SchemaError, TimeRegression
from vroverlay.sim import (
    EventLoop,
    OverlaySim,
    SimLink,
    SimNetwork,
    deliver_or_drop,
    link_stream_seed,
    load_scenario,
)
from vroverlay.sim.scenario import InjectTraffic, KillReflector, Partition, SetLink


# --- event loop ---

def test_empty_loop_advances_clock():
    loop = EventLoop()
    assert loop.run_until(100.0) == 0
    assert loop.now == 100.0


def test_events_fire_in_time_then_insertion_order():
    loop = EventLoop()
    order = []
    loop.schedule(5.0, lambda: order.append("b"))
    loop.schedule(1.0, lambda: order.append("a"))
    loop.schedule(5.0, lambda: order.append("c"))
    loop.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_schedule_in_past_rejected():
    loop = EventLoop()
    loop.run_until(50.0)
    with pytest.raises(TimeRegression):
        loop.schedule(49.0, lambda: None)
    with pytest.raises(TimeRegression):
        loop.run_until(10.0)


def test_nested_scheduling_during_run():
    loop = EventLoop()
    seen = []
    loop.schedule(1.0, lambda: loop.schedule(2.0, lambda: seen.append(loop.now)))
    loop.run_until(5.0)
    assert seen == [2.0]


# --- links ---

def test_latency_contract():
    loop = EventLoop()
    net = SimNetwork(loop, seed=1)
    net.add_link(SimLink(a=1, b=2, latency_ms=50.0, bandwidth_kbps=1e12))
    times = []
    net.transmit(1, 2, 0, lambda: times.append(loop.now))
    loop.run_until(100.0)
    assert times == [50.0]


def test_serialization_delay_arithmetic():
    # 1500 bytes at 1000 kbps = 12 ms on the wire, plus 10 ms latency.
    link = SimLink(a=1, b=2, latency_ms=10.0, bandwidth_kbps=1000.0)
    rng = random.Random(0)
    at = deliver_or_drop(link, 1500, rng, now=0.0)
    assert at == pytest.approx(22.0)


def test_zero_loss_always_delivers():
    link = SimLink(a=1, b=2, loss_probability=0.0)
    rng = random.Random(1)
    assert all(deliver_or_drop(link, 10, rng, 0.0) is not None for _ in range(1000))


def test_full_loss_never_delivers():
    loop = EventLoop()
    net = SimNetwork(loop, seed=1)
    net.add_link(SimLink(a=1, b=2, loss_probability=1.0))
    for _ in range(50):
        assert net.transmit(1, 2, 10, lambda: None) is None
    loop.run_until(1000.0)
    counters = net.counters[(1, 2)]
    assert counters.sent == 50
    assert counters.lost == 50
    assert counters.delivered == 0


def test_loss_statistics_with_fixed_seed():
    # 10000 draws at p=0.5 land within 0.5 +/- 0.02 for this seed.
    link = SimLink(a=1, b=2, loss_probability=0.5)
    rng = random.Random(link_stream_seed(123, 1, 2))
    drops = sum(1 for _ in range(10_000) if deliver_or_drop(link, 10, rng, 0.0) is None)
    assert abs(drops / 10_000 - 0.5) <= 0.02


def test_link_down_raises():
    link = SimLink(a=1, b=2, up=False)
    with pytest.raises(LinkDown):
        deliver_or_drop(link, 10, random.Random(0), 0.0)


def test_link_substreams_independent_of_other_links():
    # Adding a second link must not perturb the first link's draws.
    def draws(with_extra_link):
        loop = EventLoop()
        net = SimNetwork(loop, seed=42)
        net.add_link(SimLink(a=1, b=2, loss_probability=0.5))
        if with_extra_link:
            net.add_link(SimLink(a=2, b=3, loss_probability=0.5))
            for _ in range(7):
                net.transmit(2, 3, 10, lambda: None)
        outcomes = []
        for _ in range(100):
            outcomes.append(net.transmit(1, 2, 10, lambda: None) is not None)
        return outcomes

    assert draws(False) == draws(True)


def test_link_stream_seed_is_stable_and_order_insensitive():
    assert link_stream_seed(7, 1, 2) == link_stream_seed(7, 2, 1)
    assert link_stream_seed(7, 1, 2) != link_stream_seed(7, 1, 3)
    assert link_stream_seed(7, 1, 2) != link_stream_seed(8, 1, 2)


def test_conservation_under_loss():
    loop = EventLoop()
    net = SimNetwork(loop, seed=3)
    net.add_link(SimLink(a=1, b=2, loss_probability=0.3, latency_ms=5.0))
    delivered = []
    for _ in range(500):
        net.transmit(1, 2, 100, lambda: delivered.append(1))
    loop.run_until(10_000.0)
    counters = net.counters[(1, 2)]
    assert counters.sent == 500
    assert counters.sent == counters.delivered + counters.lost
    assert len(delivered) == counters.delivered


def test_loss_turned_on_later_draws_the_links_one_stream():
    # A lossless link makes its substream only when loss turns positive, and
    # turning loss off and on again goes on with the same stream.
    loop = EventLoop()
    net = SimNetwork(loop, seed=9)
    net.add_link(SimLink(a=1, b=2))
    stream = random.Random(link_stream_seed(9, 1, 2))
    got, want = [], []
    for loss, count in ((0.0, 5), (0.5, 20), (0.0, 3), (0.5, 20)):
        net.set_link(2, 1, loss_probability=loss)
        for _ in range(count):
            got.append(net.transmit(1, 2, 10, lambda: None) is not None)
            want.append(loss == 0.0 or stream.random() >= loss)
    assert got == want
    assert got.count(False) > 0


def test_a_lossless_link_holds_no_random_stream():
    # A seeded random.Random costs about 2.5 KiB; a lossless link never draws.
    net = SimNetwork(EventLoop(), seed=7)
    links = [SimLink(a=1, b=b) for b in range(2, 1002)]
    tracemalloc.start()
    try:
        for link in links:
            net.add_link(link)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / len(links) < 1000


def test_set_link_checks_every_value_before_changing_any():
    loop = EventLoop()
    net = SimNetwork(loop, seed=1)
    link = net.add_link(SimLink(a=1, b=2, latency_ms=10.0, bandwidth_kbps=1e12))
    with pytest.raises(ValueError):
        net.set_link(1, 2, loss_probability=0.5, latency_ms=-5)
    with pytest.raises(ValueError):
        net.set_link(2, 1, bandwidth_kbps=0)
    with pytest.raises(ValueError):
        net.set_link(1, 2, latency_ms=5.0, jitter_ms=1.0)
    assert link == SimLink(a=1, b=2, latency_ms=10.0, bandwidth_kbps=1e12)
    # A change that passes is the one the next transmission sees.
    net.set_link(2, 1, latency_ms=25.0)
    assert net.transmit(2, 1, 0, lambda: None) == 25.0
    net.set_link(1, 2, up=False)
    with pytest.raises(LinkDown):
        net.transmit(1, 2, 0, lambda: None)
    with pytest.raises(KeyError):
        net.transmit(1, 3, 0, lambda: None)


# --- scenario loading ---

def minimal_doc(**extra):
    doc = {
        "name": "minimal",
        "duration_ms": 1000,
        "reflectors": [{"id": 1, "region": "EU"}],
    }
    doc.update(extra)
    return doc


def test_minimal_scenario_loads():
    scenario = load_scenario(minimal_doc())
    assert scenario.name == "minimal"
    assert scenario.seed == 0
    assert scenario.reflector_ids() == {1}


def test_seed_override():
    assert load_scenario(minimal_doc(seed=5), seed_override=9).seed == 9
    assert load_scenario(minimal_doc(seed=5)).seed == 5


def test_events_out_of_order_rejected():
    doc = minimal_doc(
        events=[
            {"t": 10, "action": "kill_reflector", "reflector": 1},
            {"t": 5, "action": "kill_reflector", "reflector": 1},
        ]
    )
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert "events[1].t" in str(err.value)


def test_unknown_action_rejected():
    doc = minimal_doc(events=[{"t": 1, "action": "explode"}])
    with pytest.raises(SchemaError):
        load_scenario(doc)


def test_missing_required_top_level_field():
    with pytest.raises(SchemaError) as err:
        load_scenario({"name": "x", "reflectors": [{"id": 1}]})
    assert "duration_ms" in str(err.value)


def test_link_referencing_unknown_reflector():
    doc = minimal_doc(links=[{"a": 1, "b": 9}])
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert "links[0]" in str(err.value)


def test_room_with_unknown_client():
    doc = minimal_doc(
        clients=[{"id": 1, "reflector": 1}],
        rooms=[{"id": 1, "members": [1, 2]}],
    )
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert "rooms[0].members" in str(err.value)


def test_inject_src_must_be_room_member():
    doc = minimal_doc(
        clients=[{"id": 1, "reflector": 1}, {"id": 2, "reflector": 1}],
        rooms=[{"id": 1, "members": [1]}],
        events=[{"t": 0, "action": "inject", "room": 1, "src": 2}],
    )
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert "events[0].src" in str(err.value)


def test_event_with_unexpected_field_rejected():
    doc = minimal_doc(
        events=[{"t": 0, "action": "kill_reflector", "reflector": 1, "bogus": 1}]
    )
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert "bogus" in str(err.value)


def test_typed_events_parse():
    doc = minimal_doc(
        reflectors=[{"id": 1}, {"id": 2}],
        links=[{"a": 1, "b": 2}],
        clients=[{"id": 1, "reflector": 1}],
        rooms=[{"id": 1, "members": [1]}],
        events=[
            {"t": 0, "action": "inject", "room": 1, "src": 1, "count": 3,
             "interval_ms": 50, "payload_bytes": 10, "payload_type": "audio"},
            {"t": 1, "action": "set_link", "a": 1, "b": 2, "loss": 0.5},
            {"t": 2, "action": "partition", "isolated": [2]},
            {"t": 3, "action": "kill_reflector", "reflector": 2},
        ],
    )
    scenario = load_scenario(doc)
    inject, set_link, partition, kill = scenario.events
    assert isinstance(inject, InjectTraffic) and inject.count == 3
    assert isinstance(set_link, SetLink) and set_link.params == (("loss_probability", 0.5),)
    assert isinstance(partition, Partition) and partition.isolated == frozenset({2})
    assert isinstance(kill, KillReflector) and kill.reflector == 2


def test_gateway_pair_validation():
    doc = minimal_doc(reflectors=[{"id": 1}, {"id": 2}], gateway_pair=[1, 2])
    assert load_scenario(doc).gateway_pair == (1, 2)
    assert OverlaySim(load_scenario(doc)).config.gateway_pair == (1, 2)
    with pytest.raises(SchemaError):
        load_scenario(minimal_doc(gateway_pair=[1, 1]))
    with pytest.raises(SchemaError):
        load_scenario(minimal_doc(gateway_pair=[1, 9]))
    # Set in `config` instead, it is checked at load too and reaches the simulator.
    doc = minimal_doc(reflectors=[{"id": 1}, {"id": 2}], config={"gateway_pair": "2,1"})
    scenario = load_scenario(doc)
    assert scenario.config == {"gateway_pair": "2,1"}
    assert OverlaySim(scenario).config.gateway_pair == (2, 1)


def two_reflector_doc(*events, **extra):
    doc = minimal_doc(
        reflectors=[{"id": 1}, {"id": 2}],
        links=[{"a": 1, "b": 2}],
        clients=[{"id": 1, "reflector": 1}, {"id": 2, "reflector": 2}],
        rooms=[{"id": 1, "members": [1, 2]}],
        events=list(events),
    )
    doc.update(extra)
    return doc


def set_link(**fields):
    return {"t": 0, "action": "set_link", "a": 1, "b": 2, **fields}


def inject(**fields):
    return {"t": 0, "action": "inject", "room": 1, "src": 1, **fields}


# Fields of the wrong type or range: each must be rejected when the file loads,
# naming the field, not misbehave or crash during the run.
BAD_VALUES = [
    ("events[0].latency_ms", two_reflector_doc(set_link(latency_ms=-5))),
    ("events[0].loss", two_reflector_doc(set_link(loss="abc"))),
    ("events[0].up", two_reflector_doc(set_link(up="no"))),
    ("events[0].interval_ms", two_reflector_doc(inject(interval_ms="abc"))),
    ("events[0].interval_ms", two_reflector_doc(inject(interval_ms=-100))),
    ("events[0].count", two_reflector_doc(inject(count=True))),
    ("events[0].payload_bytes", two_reflector_doc(inject(payload_bytes=True))),
    ("events[0].isolated[0]", two_reflector_doc({"t": 0, "action": "partition",
                                                 "isolated": [True]})),
    ("events[0].reflector", two_reflector_doc({"t": 0, "action": "kill_reflector",
                                               "reflector": True})),
    ("events[0].room", two_reflector_doc(inject(room=True))),
    ("events[0].src", two_reflector_doc(inject(src=1.0))),
    ("events[0].a", two_reflector_doc(set_link(a=1.0, loss=0.5))),
    ("reflectors[0].id", two_reflector_doc(reflectors=[{"id": 1.0}, {"id": 2}])),
    ("clients[1].reflector", two_reflector_doc(clients=[{"id": 1, "reflector": 1},
                                                        {"id": 2, "reflector": 2.0}])),
    ("rooms[0].members[1]", two_reflector_doc(rooms=[{"id": 1, "members": [1, 2.0]}])),
    ("links[0].latency_ms", two_reflector_doc(links=[{"a": 1, "b": 2,
                                                      "latency_ms": float("nan")}])),
    ("duration_ms", minimal_doc(duration_ms=float("inf"))),
    ("config.k_miss", minimal_doc(config={"k_miss": 0})),
    ("config.gateway_pair", minimal_doc(reflectors=[{"id": 1}, {"id": 2}, {"id": 3}],
                                        gateway_pair=[1, 2], config={"gateway_pair": "2,3"})),
    ("config.gateway_pair", minimal_doc(config={"gateway_pair": "5,9"})),
]


@pytest.mark.parametrize("path, doc", BAD_VALUES, ids=[path for path, _ in BAD_VALUES])
def test_bad_value_rejected_at_load_with_its_path(path, doc):
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert str(err.value).startswith("field %s: " % path)


def test_loading_a_scenario_imports_no_third_party_module():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys\n"
        "from vroverlay.sim import load_scenario_file\n"
        "load_scenario_file(sys.argv[1])\n"
        "assert 'jsonschema' not in sys.modules\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}\n"
        "             - set(sys.stdlib_module_names) - {'__main__', 'vroverlay'}))\n"
    )
    # -S keeps site-packages hooks out, so every module left is one the import pulled in.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, os.path.join(root, "scenarios", "line3.json")],
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
