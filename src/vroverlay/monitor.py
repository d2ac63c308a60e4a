"""Per-reflector monitoring: bounded metric store, subscriptions, collection.

Samples are ingested in batches, one per monitoring tick: ``record`` takes
a sequence and leaves the store, and every subscriber, as recording the
samples one by one would.

The embedded store is a ring per (reflector, metric name) series, bounded
two ways: at most ``series_capacity`` samples per series, and a global byte
budget estimated as retained-samples * SAMPLE_COST_BYTES. Over budget, the
globally oldest retained sample goes first: a FIFO of rings in record
order, skipping entries whose sample the ring already dropped. A ring is a
list, so a series costs about its length: the budget holds for many short
series as for a few long ones (see SAMPLE_COST_BYTES).

Subscribers attach a glob filter over metric names, an optional reflector
set and a delivery callable. Each matching sample is handed to the callable
once its batch is stored, so the callable must not block: the registry
daemon's callable puts the sample on the connection's bounded drop-oldest
send queue.
"""
from __future__ import annotations

import fnmatch
import itertools
import os
import re
import sys
from collections import deque
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .errors import BadPattern
from .model import LinkStats, ReflectorId

# Flat per-retained-sample footprint estimate. Measured CPython cost: about
# 120 B per sample (tuple, value float, ring and FIFO slots; 175 B when its
# time and reflector id are objects of its own, as decoded samples' are) plus
# about 190 B per series (key, dict slot, ring). So the estimate bounds the
# real footprint while series average three samples or more.
SAMPLE_COST_BYTES = 256
DEFAULT_SERIES_CAPACITY = 4096
DEFAULT_BUDGET_BYTES = 8 * 1024 * 1024


class MetricSample(NamedTuple):
    """One timestamped measurement of a named parameter on one reflector.

    Names repeat endlessly, so whoever builds samples from foreign strings
    interns the name (see ``protocol.metric_sample_from_event``).
    """

    reflector: ReflectorId
    name: str
    value: float
    at: float


def compile_pattern(pattern: str) -> "re.Pattern":
    """Compile a glob over metric names; unbalanced brackets are rejected."""
    if not pattern:
        raise BadPattern("empty pattern")
    i = 0
    while i < len(pattern):
        if pattern[i] == "[":
            j = i + 1
            if j < len(pattern) and pattern[j] == "!":
                j += 1
            if j < len(pattern) and pattern[j] == "]":
                j += 1
            j = pattern.find("]", j)
            if j < 0:
                raise BadPattern("unbalanced '[' in pattern %r" % pattern)
            i = j
        i += 1
    return re.compile(fnmatch.translate(pattern))


class Subscription:
    """One attached consumer: filters, rate limit, and its delivery callable."""

    def __init__(
        self,
        sub_id: int,
        pattern: str,
        deliver: Callable[[MetricSample], None],
        reflectors: Optional[Iterable[ReflectorId]] = None,
        min_interval_ms: float = 0.0,
    ):
        self.id = sub_id
        self._regex = compile_pattern(pattern)
        self.deliver = deliver
        self.reflectors = frozenset(reflectors) if reflectors is not None else None
        self.min_interval_ms = min_interval_ms
        self._last_sent: dict = {}  # (reflector, name) -> at of last delivery, if rate-limited

    def matches(self, sample: MetricSample) -> bool:
        if self.reflectors is not None and sample.reflector not in self.reflectors:
            return False
        return self._regex.match(sample.name) is not None

    def offer(self, sample: MetricSample) -> None:
        """Deliver a matching sample, honoring min_interval per series."""
        if self.min_interval_ms > 0:
            key = (sample.reflector, sample.name)
            last = self._last_sent.get(key)
            if last is not None and sample.at - last < self.min_interval_ms:
                return
            self._last_sent[key] = sample.at
        self.deliver(sample)


class _Ring(list):
    """One series' retained samples, oldest first.

    ``stale`` counts this ring's leading FIFO entries whose sample the ring
    itself already dropped at capacity.
    """

    __slots__ = ("stale",)


class MetricStore:
    """Bounded embedded store: one ring per series plus a global byte budget."""

    def __init__(
        self,
        series_capacity: int = DEFAULT_SERIES_CAPACITY,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
    ):
        if series_capacity < 1:
            raise ValueError("series_capacity must be >= 1")
        self.series_capacity = series_capacity
        self.budget_bytes = budget_bytes
        self.max_total = max(1, budget_bytes // SAMPLE_COST_BYTES)
        self.regressions = 0
        self.evictions = 0
        self._series: dict = {}        # (reflector, name) -> _Ring, never empty
        self._order: deque = deque()   # the ring of every recorded sample, oldest first
        self._total = 0

    def record(self, samples: Iterable[MetricSample]) -> list:
        """Append samples in order, evicting per the ring and budget bounds.

        A sample older than the newest retained sample of its series is
        dropped and counted (timestamps per series are nondecreasing).
        Returns the samples stored, in order.
        """
        series, order = self._series, self._order
        capacity, max_total = self.series_capacity, self.max_total
        total, evictions, regressions = self._total, self.evictions, self.regressions
        stored = []
        try:
            for sample in samples:
                reflector, name, _, at = sample
                ring = series.get((reflector, name))
                if ring is None:
                    if not name:
                        raise ValueError("metric name must be nonempty")
                    ring = series[reflector, name] = _Ring()
                    ring.stale = 0
                elif at < ring[-1].at:
                    regressions += 1
                    continue
                if len(ring) == capacity:  # the ring drops its oldest
                    del ring[0]
                    ring.stale += 1
                    evictions += 1
                else:
                    total += 1
                ring.append(sample)
                order.append(ring)
                stored.append(sample)
                while total > max_total:  # evict the globally oldest
                    oldest = order.popleft()
                    if oldest.stale:  # this entry's sample already left its ring
                        oldest.stale -= 1
                        continue
                    total -= 1
                    evictions += 1
                    if len(oldest) == 1:
                        del series[oldest[0].reflector, oldest[0].name]
                    else:
                        del oldest[0]
                if len(order) > 2 * total:
                    order = self._order = self._compacted()
        finally:
            self._total, self.evictions, self.regressions = total, evictions, regressions
        return stored

    def _compacted(self) -> deque:
        """The order without the entries of samples their ring already dropped."""
        kept = deque()
        for ring in self._order:
            if ring.stale:
                ring.stale -= 1
            else:
                kept.append(ring)
        return kept

    def query_range(self, reflector: ReflectorId, name: str, t_from: float, t_to: float) -> list:
        """Retained samples with t_from <= at <= t_to, ascending by time."""
        return [s for s in self._series.get((reflector, name), ()) if t_from <= s.at <= t_to]

    def head(self, reflector: ReflectorId, name: str) -> Optional[MetricSample]:
        ring = self._series.get((reflector, name))
        return ring[-1] if ring else None

    def heads(self) -> list:
        """Newest retained sample of every series, in series-creation order."""
        return [ring[-1] for ring in self._series.values()]

    def total_samples(self) -> int:
        return self._total

    def footprint_bytes(self) -> int:
        return self._total * SAMPLE_COST_BYTES

    def series_length(self, reflector: ReflectorId, name: str) -> int:
        return len(self._series.get((reflector, name), ()))

    def series_lengths(self) -> dict:
        return {key: len(ring) for key, ring in self._series.items()}


class MonitorService:
    """Record-and-stream facade: the store plus subscription fanout."""

    def __init__(
        self,
        series_capacity: int = DEFAULT_SERIES_CAPACITY,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
    ):
        self.store = MetricStore(series_capacity, budget_bytes)
        self._subs: dict = {}
        self._next_sub = itertools.count(1)

    def record(self, samples: Iterable[MetricSample]) -> list:
        """Store a batch, then hand each subscriber its matching samples in order."""
        stored = self.store.record(samples)
        subs = self._subs
        if subs and stored:
            # A snapshot: delivering may close a subscriber, which unsubscribes
            # it and so ends its deliveries.
            for sub in tuple(subs.values()):
                for sample in stored:
                    if sub.matches(sample):
                        if sub.id not in subs:
                            break
                        sub.offer(sample)
        return stored

    def subscribe(
        self,
        pattern: str,
        deliver: Callable[[MetricSample], None],
        reflectors: Optional[Iterable[ReflectorId]] = None,
        min_interval_ms: float = 0.0,
    ) -> Subscription:
        """Attach a subscriber, then deliver it the current heads of matching series."""
        sub = Subscription(next(self._next_sub), pattern, deliver, reflectors, min_interval_ms)
        self._subs[sub.id] = sub
        for sample in self.store.heads():
            if sub.matches(sample):
                if sub.id not in self._subs:  # a delivery unsubscribed it
                    break
                sub.offer(sample)
        return sub

    def unsubscribe(self, sub_id: int) -> None:
        self._subs.pop(sub_id, None)

    def query_range(self, reflector: ReflectorId, name: str, t_from: float, t_to: float) -> list:
        return self.store.query_range(reflector, name, t_from, t_to)


class MetricCollector:
    """Derives one reflector's overlay metrics each monitoring tick.

    Traffic rates come from the engine's byte counters differenced over the
    tick interval; system load comes from a pluggable sampler, by default the
    host's 1-minute load average, so simulated runs can stay deterministic.
    """

    def __init__(self, reflector_id: ReflectorId,
                 load_sampler=lambda rid, now: os.getloadavg()[0], started_at: float = 0.0):
        self.reflector_id = reflector_id
        self.load_sampler = load_sampler
        self._prev_at = started_at
        self._prev_bytes_in = 0
        self._prev_bytes_out = 0
        self._peer_names: dict = {}  # peer id -> its (loss, rtt_ms, quality) series names

    def collect(
        self,
        engine,
        links: Iterable[LinkStats] = (),
        quality: Mapping = None,
        now: float = 0.0,
    ) -> list:
        """Emit vrvs.*, net.*, sys.load, and peer.<id>.* samples for this tick."""
        rid = self.reflector_id
        samples = [
            MetricSample(rid, "vrvs.clients", float(engine.client_count()), now),
            MetricSample(rid, "vrvs.rooms", float(engine.room_count()), now),
            MetricSample(
                rid, "vrvs.unknown_room_drops",
                float(engine.counters.unknown_room_drops), now,
            ),
        ]
        elapsed_ms = now - self._prev_at
        if elapsed_ms > 0:
            in_kbps = (engine.counters.bytes_in - self._prev_bytes_in) * 8.0 / elapsed_ms
            out_kbps = (engine.counters.bytes_out - self._prev_bytes_out) * 8.0 / elapsed_ms
            samples.append(MetricSample(rid, "net.in_kbps", in_kbps, now))
            samples.append(MetricSample(rid, "net.out_kbps", out_kbps, now))
            self._prev_at = now
            self._prev_bytes_in = engine.counters.bytes_in
            self._prev_bytes_out = engine.counters.bytes_out
        load = self.load_sampler(rid, now)
        samples.append(MetricSample(rid, "sys.load", float(load), now))
        for stats in sorted(links, key=lambda s: s.link):
            a, b = stats.link
            peer = b if a == rid else a
            names = self._peer_names.get(peer)
            if names is None:
                names = self._peer_names[peer] = tuple(
                    sys.intern("peer.%d.%s" % (peer, m)) for m in ("loss", "rtt_ms", "quality"))
            samples.append(MetricSample(rid, names[0], stats.loss_fraction, now))
            samples.append(MetricSample(rid, names[1], stats.rtt_ms, now))
            if quality is not None:
                qf = quality.get(stats.link)
                if qf is not None:
                    samples.append(MetricSample(rid, names[2], qf.q, now))
        return samples
