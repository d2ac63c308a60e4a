"""Per-reflector monitoring: bounded metric store, subscriptions, collection.

The embedded store is an in-memory ring per (reflector, metric name) series,
bounded two ways: at most ``series_capacity`` samples per series, and a
global byte budget estimated as retained-samples * SAMPLE_COST_BYTES. Over
budget, the globally oldest retained sample goes first: a FIFO of series
keys in record order, skipping entries whose sample the ring already dropped.
The defaults keep the whole store well under a 16 MB footprint.

Subscribers attach a glob filter over metric names, an optional reflector
set and a delivery callable. Each matching sample is handed to the callable
as it is recorded, so the callable must not block: the registry daemon's
callable puts the sample on the connection's bounded drop-oldest send queue.
"""
from __future__ import annotations

import fnmatch
import itertools
import os
import re
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .errors import BadPattern
from .model import LinkStats, ReflectorId

# Flat per-retained-sample footprint estimate; an upper bound on measured
# CPython cost (slotted sample + two floats + ring bookkeeping, ~230 B), so
# estimated footprint <= budget implies the real footprint fits too.
SAMPLE_COST_BYTES = 256
DEFAULT_SERIES_CAPACITY = 4096
DEFAULT_BUDGET_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True, slots=True)
class MetricSample:
    """One timestamped measurement of a named parameter on one reflector."""

    reflector: ReflectorId
    name: str
    value: float
    at: float

    def __post_init__(self):
        # Series names repeat endlessly; interning keeps one copy alive.
        object.__setattr__(self, "name", sys.intern(self.name))


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
        self.pattern = pattern
        self._regex = compile_pattern(pattern)
        self.deliver = deliver
        self.reflectors = frozenset(reflectors) if reflectors is not None else None
        self.min_interval_ms = min_interval_ms
        self._last_sent: dict = {}  # (reflector, name) -> at of last delivered sample

    def matches(self, sample: MetricSample) -> bool:
        if self.reflectors is not None and sample.reflector not in self.reflectors:
            return False
        return self._regex.match(sample.name) is not None

    def offer(self, sample: MetricSample) -> None:
        """Deliver a matching sample, honoring min_interval per series."""
        key = (sample.reflector, sample.name)
        last = self._last_sent.get(key)
        if last is not None and self.min_interval_ms > 0 and sample.at - last < self.min_interval_ms:
            return
        self._last_sent[key] = sample.at
        self.deliver(sample)


class RecordResult:
    STORED = "stored"
    TIMESTAMP_REGRESSION = "timestamp_regression"


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
        self._series: dict = {}        # (reflector, name) -> deque of samples
        self._order: deque = deque()   # series key of every recorded sample, oldest first
        self._stale: dict = {}         # key -> its leading _order entries the ring evicted
        self._total = 0

    def record(self, sample: MetricSample) -> str:
        """Append one sample; evicts per the ring and budget bounds.

        Samples older than the newest retained sample of their series are
        dropped and counted (timestamps per series are nondecreasing).
        """
        if not sample.name:
            raise ValueError("metric name must be nonempty")
        key = (sample.reflector, sample.name)
        ring = self._series.get(key)
        if ring is None:
            ring = self._series[key] = deque(maxlen=self.series_capacity)
        if ring and sample.at < ring[-1].at:
            self.regressions += 1
            return RecordResult.TIMESTAMP_REGRESSION
        if len(ring) == self.series_capacity:  # the append drops the ring's oldest
            self.evictions += 1
            self._stale[key] = self._stale.get(key, 0) + 1
        else:
            self._total += 1
        ring.append(sample)
        self._order.append(key)
        while self._total > self.max_total:
            self._evict_oldest()
        if len(self._order) > 2 * self._total:
            self._compact()
        return RecordResult.STORED

    def _evict_oldest(self) -> None:
        while True:
            key = self._order.popleft()
            skip = self._stale.pop(key, 0)
            if skip:  # this entry's sample already left its ring
                if skip > 1:
                    self._stale[key] = skip - 1
                continue
            ring = self._series[key]
            ring.popleft()
            self._total -= 1
            self.evictions += 1
            if not ring:
                del self._series[key]
            return

    def _compact(self) -> None:
        """Drop the order entries of samples their ring already evicted."""
        stale, kept = self._stale, deque()
        for key in self._order:
            if stale.get(key):
                stale[key] -= 1
            else:
                kept.append(key)
        self._order, self._stale = kept, {}

    def query_range(self, reflector: ReflectorId, name: str, t_from: float, t_to: float) -> list:
        """Retained samples with t_from <= at <= t_to, ascending by time."""
        return [s for s in self._series.get((reflector, name), ()) if t_from <= s.at <= t_to]

    def head(self, reflector: ReflectorId, name: str) -> Optional[MetricSample]:
        ring = self._series.get((reflector, name))
        return ring[-1] if ring else None

    def heads(self) -> list:
        """Newest retained sample of every series, in series-creation order."""
        return [ring[-1] for ring in self._series.values() if ring]

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

    def record(self, sample: MetricSample) -> str:
        result = self.store.record(sample)
        if result == RecordResult.STORED and self._subs:
            # A snapshot: delivering may close a subscriber, which unsubscribes it.
            for sub in tuple(self._subs.values()):
                if sub.matches(sample):
                    sub.offer(sample)
        return result

    def subscribe(
        self,
        pattern: str,
        deliver: Callable[[MetricSample], None],
        reflectors: Optional[Iterable[ReflectorId]] = None,
        min_interval_ms: float = 0.0,
    ) -> Subscription:
        """Attach a subscriber; current heads of matching series are delivered first."""
        sub = Subscription(next(self._next_sub), pattern, deliver, reflectors, min_interval_ms)
        for sample in self.store.heads():
            if sub.matches(sample):
                sub.offer(sample)
        self._subs[sub.id] = sub
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
            samples.append(MetricSample(rid, "peer.%d.loss" % peer, stats.loss_fraction, now))
            samples.append(MetricSample(rid, "peer.%d.rtt_ms" % peer, stats.rtt_ms, now))
            if quality is not None:
                qf = quality.get(stats.link)
                if qf is not None:
                    samples.append(MetricSample(rid, "peer.%d.quality" % peer, qf.q, now))
        return samples
