"""Differential test: batch ingest against the per-sample monitor it replaced.

`monitor_oracle` records one sample at a time. Fed the same samples, split
into random batches, `MonitorService` must leave its store and every
subscriber as the oracle does after each batch: heads and their order,
every series' retained range and length, the eviction, regression and
sample counts, and each subscriber's deliveries in order.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

import monitor_oracle
from vroverlay.monitor import SAMPLE_COST_BYTES, MetricSample, MonitorService

SERIES = [(r, n) for r in (1, 2) for n in ("a.x", "a.y", "b.x", "b.z")]
PATTERNS = ["*", "a.*", "*.x", "b.[xz]", "a.y"]


def check_same(svc, oracle):
    store, ref = svc.store, oracle.store
    assert store.heads() == ref.heads()
    assert list(store.series_lengths().items()) == list(ref.series_lengths().items())
    for reflector, name in SERIES:
        args = (reflector, name, float("-inf"), float("inf"))
        assert store.query_range(*args) == ref.query_range(*args)
    assert (store.evictions, store.regressions, store.total_samples()) == (
        ref.evictions, ref.regressions, ref.total_samples())


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 4),
    budget_samples=st.integers(1, 10),
    ops=st.lists(st.tuples(st.integers(0, len(SERIES) - 1), st.integers(-2, 3)), max_size=80),
    cuts=st.lists(st.integers(0, 7), max_size=30),
    subs=st.lists(
        st.tuples(
            st.sampled_from(PATTERNS),
            st.sampled_from([None, {1}, {2}, {1, 2}]),
            st.sampled_from([0.0, 0.5, 2.0]),
            st.integers(0, 4),  # the batch before which it subscribes
        ),
        min_size=1,
        max_size=3,
    ),
    quit_after=st.integers(1, 12),
)
def test_batches_match_per_sample_oracle(capacity, budget_samples, ops, cuts, subs, quit_after):
    # Negative steps make timestamp regressions; tiny budgets empty series
    # that later come back.
    budget = SAMPLE_COST_BYTES * budget_samples
    samples, clocks = [], [0.0] * len(SERIES)
    for i, (k, step) in enumerate(ops):
        clocks[k] += step
        samples.append(MetricSample(*SERIES[k], float(i), clocks[k] / 2))
    batches, start = [], 0
    for size in cuts + [len(samples)]:
        batches.append(samples[start:start + size])
        start += size

    services = (MonitorService(capacity, budget), monitor_oracle.MonitorService(capacity, budget))
    sides = [(service, [[] for _ in subs]) for service in services]

    def attach(service, got, j, pattern, reflectors, interval):
        sub_ids = []
        if j == 0:  # the first subscriber unsubscribes itself after quit_after deliveries
            def deliver(sample):
                got.append(sample)
                if len(got) >= quit_after and sub_ids:  # not while subscribe() catches up
                    service.unsubscribe(sub_ids[0])
        else:
            deliver = got.append
        sub_ids.append(service.subscribe(pattern, deliver, reflectors, interval).id)

    for b, batch in enumerate(batches):
        for service, got in sides:
            for j, (pattern, reflectors, interval, when) in enumerate(subs):
                if when % len(batches) == b:
                    attach(service, got[j], j, pattern, reflectors, interval)
        (svc, got), (oracle, expected) = sides
        svc.record(batch)
        for sample in batch:
            oracle.record(sample)
        check_same(svc, oracle)
        assert got == expected
