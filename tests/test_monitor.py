"""Monitoring: ring bounds, budget eviction, subscriptions, collection."""
import heapq
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vroverlay.errors import BadPattern
from vroverlay.model import LinkStats
from vroverlay.monitor import (
    SAMPLE_COST_BYTES,
    MetricCollector,
    MetricSample,
    MetricStore,
    MonitorService,
    compile_pattern,
)
from vroverlay.quality import QualityFactor
from vroverlay.reflector import ReflectorEngine


def sample(name="sys.load", value=1.0, at=0.0, reflector=1):
    return MetricSample(reflector=reflector, name=name, value=value, at=at)


# --- ring semantics ---

def test_ring_keeps_last_capacity_samples():
    store = MetricStore(series_capacity=3)
    for i in range(4):
        store.record([sample(value=float(i), at=float(i))])
    kept = store.query_range(1, "sys.load", 0.0, 10.0)
    assert [s.value for s in kept] == [1.0, 2.0, 3.0]


def test_timestamp_regression_dropped_and_counted():
    store = MetricStore()
    store.record([sample(at=10.0)])
    assert store.record([sample(at=5.0)]) == []
    assert store.regressions == 1
    assert [s.at for s in store.query_range(1, "sys.load", 0.0, 99.0)] == [10.0]


def test_equal_timestamps_allowed():
    store = MetricStore()
    assert store.record([sample(at=10.0), sample(at=10.0)]) == [sample(at=10.0)] * 2


def test_query_range_empty_store():
    store = MetricStore()
    assert store.query_range(1, "nope", 0.0, 1e9) == []


def test_query_range_full_and_filtered():
    store = MetricStore()
    for at in (1.0, 2.0, 3.0):
        store.record([sample(at=at)])
    assert [s.at for s in store.query_range(1, "sys.load", 0.0, 10.0)] == [1.0, 2.0, 3.0]
    assert [s.at for s in store.query_range(1, "sys.load", 2.0, 2.5)] == [2.0]


def test_query_never_resurrects_evicted_samples():
    # Shadow log keeps everything; the store must agree on the retained tail.
    store = MetricStore(series_capacity=5)
    shadow = []
    rng = random.Random(42)
    t = 0.0
    for _ in range(200):
        t += rng.random()
        s = sample(at=t, value=rng.random())
        shadow.append(s)
        store.record([s])
    expected = shadow[-5:]
    got = store.query_range(1, "sys.load", 0.0, t + 1)
    assert got == expected


@settings(max_examples=100)
@given(st.lists(st.floats(0.0, 1e6), max_size=60), st.integers(1, 7))
def test_ring_bound_property(ats, capacity):
    store = MetricStore(series_capacity=capacity)
    for at in sorted(ats):
        store.record([sample(at=at)])
    assert store.series_length(1, "sys.load") <= capacity


# --- global budget ---

def test_budget_evicts_globally_oldest_first():
    budget = SAMPLE_COST_BYTES * 10
    store = MetricStore(series_capacity=100, budget_bytes=budget)
    for i in range(8):
        store.record([sample(name="a", at=float(i))])
    for i in range(8):
        store.record([sample(name="b", at=float(i))])
    assert store.total_samples() == 10
    assert store.footprint_bytes() <= budget
    # series "a" lost its oldest six samples first
    assert [s.at for s in store.query_range(1, "a", 0, 99)] == [6.0, 7.0]
    assert store.series_length(1, "b") == 8


def test_sample_cost_estimate_upper_bounds_reality():
    # The estimated footprint must dominate the measured one, otherwise the
    # budget would not really bound memory: for a few long series and for
    # many short ones (300 reflectors x 30 series, a 300-reflector
    # simulation's shape), recorded a tick at a time past the first eviction.
    import tracemalloc

    for n_reflectors, n_names in ((16, 8), (300, 30)):
        series = list(itertools.product(range(1000, 1000 + n_reflectors),
                                        ["peer.%d.rtt_ms" % k for k in range(n_names)]))
        tracemalloc.start()
        store = MetricStore()
        i = 0
        while i < store.max_total * 5 // 4:
            store.record([sample(name=name, reflector=r, value=i + k + 0.5, at=float(i))
                          for k, (r, name) in enumerate(series)])
            i += len(series)
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert store.evictions > 0
        assert current <= store.footprint_bytes() <= store.budget_bytes, (n_reflectors, n_names)


def test_budget_holds_under_many_series():
    budget = SAMPLE_COST_BYTES * 50
    store = MetricStore(series_capacity=10, budget_bytes=budget)
    rng = random.Random(9)
    for i in range(2000):
        store.record(
            [sample(name="m.%d" % rng.randrange(20), reflector=rng.randrange(1, 5), at=float(i))]
        )
        assert store.footprint_bytes() <= budget
    assert store.total_samples() <= 50


class HeapStore:
    """Reference store: evicts the globally oldest sample via a heap of series heads."""

    def __init__(self, series_capacity, budget_bytes):
        self.series_capacity = series_capacity
        self.max_total = max(1, budget_bytes // SAMPLE_COST_BYTES)
        self.regressions = 0
        self.evictions = 0
        self._series = {}
        self._arrival = itertools.count()
        self._heads = []
        self._total = 0

    def record(self, samples):
        """Returns the samples stored, as MetricStore.record does."""
        return [s for s in samples if self._record(s)]

    def _record(self, sample):
        key = (sample.reflector, sample.name)
        ring = self._series.setdefault(key, deque())
        if ring and sample.at < ring[-1][1].at:
            self.regressions += 1
            return False
        arrival = next(self._arrival)
        if not ring:
            heapq.heappush(self._heads, (arrival, key))
        ring.append((arrival, sample))
        self._total += 1
        if len(ring) > self.series_capacity:
            ring.popleft()
            self._total -= 1
            self.evictions += 1
            heapq.heappush(self._heads, (ring[0][0], key))
        while self._total > self.max_total:
            arrival, key = heapq.heappop(self._heads)
            ring = self._series.get(key)
            if not ring or ring[0][0] != arrival:
                continue
            ring.popleft()
            self._total -= 1
            self.evictions += 1
            if ring:
                heapq.heappush(self._heads, (ring[0][0], key))
            else:
                del self._series[key]
        return True

    def query_range(self, reflector, name, t_from, t_to):
        ring = self._series.get((reflector, name))
        return [s for _, s in ring if t_from <= s.at <= t_to] if ring else []

    def heads(self):
        return [ring[-1][1] for ring in self._series.values() if ring]


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 4),
    budget_samples=st.integers(1, 8),
    ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(-2, 3)), max_size=120
    ),
)
def test_fifo_store_matches_heap_reference(capacity, budget_samples, ops):
    # Small budgets empty series that later come back; negative steps
    # produce timestamp regressions.
    budget = SAMPLE_COST_BYTES * budget_samples
    store = MetricStore(series_capacity=capacity, budget_bytes=budget)
    reference = HeapStore(capacity, budget)
    clocks = [0.0] * 4
    for i, (series, step) in enumerate(ops):
        clocks[series] += step
        s = sample(name="m.%d" % series, reflector=series % 2 + 1, value=float(i),
                   at=clocks[series])
        assert store.record([s]) == reference.record([s])
        for k in range(4):
            args = (k % 2 + 1, "m.%d" % k, float("-inf"), float("inf"))
            assert store.query_range(*args) == reference.query_range(*args)
        assert store.heads() == reference.heads()
        assert store.evictions == reference.evictions
        assert store.regressions == reference.regressions
        assert store.total_samples() == reference._total


def test_bookkeeping_bounded_when_rings_do_the_evicting():
    # Three series of capacity 4 never reach the budget, so every eviction
    # is a ring eviction; the eviction order must not grow with them.
    store = MetricStore(series_capacity=4)
    for i in range(100_000):
        store.record([sample(name="m.%d" % (i % 3), at=float(i))])
        assert len(store._order) <= 2 * store.total_samples()
    assert store.total_samples() == 12
    assert store.evictions == 100_000 - 12


# --- patterns and subscriptions ---

def test_bad_pattern_rejected():
    with pytest.raises(BadPattern):
        compile_pattern("[")
    with pytest.raises(BadPattern):
        compile_pattern("peer.[0-9.loss")
    with pytest.raises(BadPattern):
        compile_pattern("")


def test_pattern_globbing():
    regex = compile_pattern("peer.*.loss")
    assert regex.match("peer.3.loss")
    assert not regex.match("sys.load")
    assert not regex.match("peer.3.rtt_ms")


def test_subscription_receives_matching_sample():
    svc = MonitorService()
    got = []
    svc.subscribe("vrvs.*", got.append, min_interval_ms=0.0)
    svc.record([sample(name="vrvs.clients", value=5.0, at=1.0)])
    svc.record([sample(name="sys.load", value=0.5, at=1.0)])
    assert [s.name for s in got] == ["vrvs.clients"]
    assert got[0].value == 5.0


def test_subscription_reflector_filter():
    svc = MonitorService()
    got = []
    svc.subscribe("*", got.append, reflectors={2})
    svc.record([sample(reflector=1, at=1.0)])
    svc.record([sample(reflector=2, at=1.0)])
    assert [s.reflector for s in got] == [2]


def test_subscription_min_interval_rate_limit():
    svc = MonitorService()
    got = []
    svc.subscribe("sys.load", got.append, min_interval_ms=30_000.0)
    for i in range(7):  # every 10 s for 60 s
        svc.record([sample(at=i * 10_000.0)])
    assert [s.at for s in got] == [0.0, 30_000.0, 60_000.0]


def test_only_a_rate_limited_subscription_remembers_its_series():
    # With no min_interval nothing reads the last delivery time, so a
    # long-lived subscriber must not keep one per series it ever saw.
    svc = MonitorService()
    plain = svc.subscribe("*", lambda sample: None)
    limited = svc.subscribe("*", lambda sample: None, min_interval_ms=5.0)
    svc.record([sample(name="m.%d" % i, at=float(i)) for i in range(50)])
    assert plain._last_sent == {}
    assert len(limited._last_sent) == 50


def test_subscription_catch_up_heads_on_subscribe():
    svc = MonitorService()
    svc.record([sample(name="vrvs.rooms", value=1.0, at=1.0)])
    svc.record([sample(name="vrvs.rooms", value=2.0, at=2.0)])
    svc.record([sample(name="sys.load", value=0.1, at=2.0)])
    got = []
    svc.subscribe("vrvs.*", got.append)
    assert [(s.name, s.value) for s in got] == [("vrvs.rooms", 2.0)]


def test_subscription_completeness_exactly_once():
    svc = MonitorService()
    got = []
    svc.subscribe("m.*", got.append, min_interval_ms=0.0)
    sent = []
    for i in range(500):
        s = sample(name="m.%d" % (i % 7), at=float(i))
        sent.append(s)
        svc.record([s])
    assert got == sent


def test_unsubscribe_stops_delivery():
    svc = MonitorService()
    got = []
    sub = svc.subscribe("*", got.append)
    svc.unsubscribe(sub.id)
    svc.record([sample(at=1.0)])
    assert got == []


def test_unsubscribing_during_delivery_spares_the_other_subscribers():
    svc = MonitorService()
    got = []
    first = svc.subscribe("*", lambda sample: svc.unsubscribe(first.id))
    svc.subscribe("*", got.append)
    for at in (1.0, 2.0):
        svc.record([sample(at=at)])
    assert [s.at for s in got] == [1.0, 2.0]
    assert list(svc._subs) == [2]


def test_unsubscribing_during_catch_up_ends_it_and_detaches():
    svc = MonitorService()
    svc.record([sample(name="vrvs.rooms", at=1.0), sample(name="vrvs.clients", at=1.0)])
    got = []

    def deliver(s):
        got.append(s)
        svc.unsubscribe(1)  # the id of a fresh service's first subscription

    svc.subscribe("vrvs.*", deliver)
    svc.record([sample(name="vrvs.rooms", at=2.0)])
    assert [(s.name, s.at) for s in got] == [("vrvs.rooms", 1.0)]
    assert not svc._subs


def test_bad_pattern_on_subscribe():
    svc = MonitorService()
    with pytest.raises(BadPattern):
        svc.subscribe("[", lambda sample: None)


# --- collection ---

def engine_with_room():
    eng = ReflectorEngine(1)
    eng.attach_client(1)
    eng.attach_client(2)
    eng.join_room(1, 7)
    eng.join_room(2, 7)
    return eng


def test_collect_counts_clients_and_rooms():
    eng = engine_with_room()
    collector = MetricCollector(1)
    by_name = {s.name: s for s in collector.collect(eng, now=10_000.0)}
    assert by_name["vrvs.clients"].value == 2.0
    assert by_name["vrvs.rooms"].value == 1.0
    assert "sys.load" in by_name


def test_collect_samples_host_load_by_default(monkeypatch):
    monkeypatch.setattr("os.getloadavg", lambda: (2.5, 0.0, 0.0))
    by_name = {s.name: s for s in MetricCollector(1).collect(engine_with_room(), now=1.0)}
    assert by_name["sys.load"].value == 2.5


def test_collect_no_peers_no_peer_samples():
    eng = engine_with_room()
    collector = MetricCollector(1)
    names = [s.name for s in collector.collect(eng, now=1.0)]
    assert not any(n.startswith("peer.") for n in names)


def test_collect_reports_unknown_room_drops():
    eng = engine_with_room()
    eng.forward(99, 5, 24)
    collector = MetricCollector(1)
    by_name = {s.name: s for s in collector.collect(eng, now=1.0)}
    assert by_name["vrvs.unknown_room_drops"].value == 1.0


def test_collect_per_peer_link_samples():
    eng = engine_with_room()
    collector = MetricCollector(1)
    links = [
        LinkStats(link=(1, 2), rtt_ms=20.0, loss_fraction=0.1, capacity_kbps=1000.0, sampled_at=0.0),
        LinkStats(link=(1, 5), rtt_ms=40.0, loss_fraction=0.0, capacity_kbps=1000.0, sampled_at=0.0),
    ]
    quality = {
        (1, 2): QualityFactor(link=(1, 2), q=0.9, sample_count=1),
        (1, 5): QualityFactor(link=(1, 5), q=0.8, sample_count=1),
    }
    by_name = {s.name: s for s in collector.collect(eng, links, quality, now=1.0)}
    assert by_name["peer.2.loss"].value == 0.1
    assert by_name["peer.2.rtt_ms"].value == 20.0
    assert by_name["peer.2.quality"].value == 0.9
    assert by_name["peer.5.quality"].value == 0.8


def test_collect_traffic_rate_from_byte_counters():
    # 10 packets of 100 wire bytes over one second = 8000 bits/s = 8 kbps.
    eng = ReflectorEngine(1)
    eng.attach_client(1)
    eng.join_room(1, 7)
    collector = MetricCollector(1, started_at=0.0)
    for _ in range(10):
        eng.forward(7, 9, 100)
    by_name = {s.name: s for s in collector.collect(eng, now=1000.0)}
    assert by_name["net.in_kbps"].value == pytest.approx(8.0, rel=0.01)
