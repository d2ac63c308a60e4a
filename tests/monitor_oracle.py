"""Test oracle: the per-sample metric store and service that batch ingest replaced.

`MetricStore.record` took one sample: a deque ring per series, a FIFO of
series keys with a per-key count of entries the ring already dropped, and
one `_evict_oldest` call per sample over budget. `MonitorService.record`
stored one sample and offered it to a snapshot of the subscribers. The
code is the monitor's as it was, without its docstrings and with `record`
returning whether the sample was stored.
"""
from __future__ import annotations

import itertools
from collections import deque

from vroverlay.monitor import SAMPLE_COST_BYTES, compile_pattern


class Subscription:
    def __init__(self, sub_id, pattern, deliver, reflectors=None, min_interval_ms=0.0):
        self.id = sub_id
        self.pattern = pattern
        self._regex = compile_pattern(pattern)
        self.deliver = deliver
        self.reflectors = frozenset(reflectors) if reflectors is not None else None
        self.min_interval_ms = min_interval_ms
        self._last_sent = {}  # (reflector, name) -> at of last delivered sample

    def matches(self, sample):
        if self.reflectors is not None and sample.reflector not in self.reflectors:
            return False
        return self._regex.match(sample.name) is not None

    def offer(self, sample):
        key = (sample.reflector, sample.name)
        last = self._last_sent.get(key)
        if last is not None and self.min_interval_ms > 0 and sample.at - last < self.min_interval_ms:
            return
        self._last_sent[key] = sample.at
        self.deliver(sample)


class MetricStore:
    def __init__(self, series_capacity, budget_bytes):
        self.series_capacity = series_capacity
        self.budget_bytes = budget_bytes
        self.max_total = max(1, budget_bytes // SAMPLE_COST_BYTES)
        self.regressions = 0
        self.evictions = 0
        self._series = {}        # (reflector, name) -> deque of samples
        self._order = deque()    # series key of every recorded sample, oldest first
        self._stale = {}         # key -> its leading _order entries the ring evicted
        self._total = 0

    def record(self, sample) -> bool:
        if not sample.name:
            raise ValueError("metric name must be nonempty")
        key = (sample.reflector, sample.name)
        ring = self._series.get(key)
        if ring is None:
            ring = self._series[key] = deque(maxlen=self.series_capacity)
        if ring and sample.at < ring[-1].at:
            self.regressions += 1
            return False
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
        return True

    def _evict_oldest(self):
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

    def _compact(self):
        stale, kept = self._stale, deque()
        for key in self._order:
            if stale.get(key):
                stale[key] -= 1
            else:
                kept.append(key)
        self._order, self._stale = kept, {}

    def query_range(self, reflector, name, t_from, t_to):
        return [s for s in self._series.get((reflector, name), ()) if t_from <= s.at <= t_to]

    def heads(self):
        return [ring[-1] for ring in self._series.values() if ring]

    def total_samples(self):
        return self._total

    def series_lengths(self):
        return {key: len(ring) for key, ring in self._series.items()}


class MonitorService:
    def __init__(self, series_capacity, budget_bytes):
        self.store = MetricStore(series_capacity, budget_bytes)
        self._subs = {}
        self._next_sub = itertools.count(1)

    def record(self, sample) -> bool:
        stored = self.store.record(sample)
        if stored and self._subs:
            # A snapshot: delivering may close a subscriber, which unsubscribes it.
            for sub in tuple(self._subs.values()):
                if sub.matches(sample):
                    sub.offer(sample)
        return stored

    def subscribe(self, pattern, deliver, reflectors=None, min_interval_ms=0.0):
        sub = Subscription(next(self._next_sub), pattern, deliver, reflectors, min_interval_ms)
        for sample in self.store.heads():
            if sub.matches(sample):
                sub.offer(sample)
        self._subs[sub.id] = sub
        return sub

    def unsubscribe(self, sub_id):
        self._subs.pop(sub_id, None)
