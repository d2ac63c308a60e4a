"""End-to-end overlay behavior on the discrete-event harness."""
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import tracemalloc
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vroverlay.cli import main
from vroverlay.errors import LinkDown
from vroverlay.export import snapshot_to_json
from vroverlay.sim import OverlaySim, load_scenario, load_scenario_file
from vroverlay.sim.core import _fire
from vroverlay.sim.harness import _CHUNK_EVENTS, _JSON_FIELDS, _TRACE_FIELDS
from vroverlay.supervisor import HealthState

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def triangle_doc(**extra):
    doc = {
        "name": "triangle",
        "seed": 2,
        "duration_ms": 40000,
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
    }
    doc.update(extra)
    return doc


def run_doc(doc, **kwargs):
    return OverlaySim(load_scenario(doc), **kwargs).run()


def deliveries(report):
    return sorted(
        (e["room"], e["src"], e["seq"], e["client"], e["t"])
        for e in report.trace
        if e["kind"] == "deliver"
    )


# --- bundled scenarios ---

def test_line3_bundled_scenario_exactly_once():
    report = OverlaySim(load_scenario_file(os.path.join(SCENARIOS, "line3.json"))).run()
    assert report.ok(), report.violations
    assert report.media.injected == 10
    assert report.media.delivered == 20  # 2 co-members per packet
    assert report.routing_epochs == [1]


def test_eu_us_backup_bundled_scenario_reroutes_over_backup_link():
    report = OverlaySim(load_scenario_file(os.path.join(SCENARIOS, "eu-us-backup.json"))).run()
    assert report.ok(), report.violations
    assert len(report.routing_epochs) == 2
    routing_events = [e for e in report.trace if e["kind"] == "routing"]
    assert [1, 4] in routing_events[0]["edges"]      # transatlantic primary
    assert [1, 4] not in routing_events[1]["edges"]  # after the cut
    assert [3, 6] in routing_events[1]["edges"]      # backup path takes over


def test_restart_fail_bundled_scenario_single_notification():
    report = OverlaySim(load_scenario_file(os.path.join(SCENARIOS, "restart-fail.json"))).run()
    assert report.ok(), report.violations
    assert len(report.notifications) == 1
    assert report.notifications[0].reflector == 3


def test_restart_ok_bundled_scenario_recovers():
    scenario = load_scenario_file(os.path.join(SCENARIOS, "restart-ok.json"))
    sim = OverlaySim(scenario)
    report = sim.run()
    assert report.ok(), report.violations
    assert report.notifications == []
    assert sim.supervisor.records[3].state is HealthState.UP
    restarts = [e for e in report.trace if e["kind"] == "restart"]
    assert len(restarts) == 1 and restarts[0]["ok"]


# As printed by `vroverlay sim run scenarios/<name>.json`; a change here is a
# behaviour change of the simulator or the control plane.
BUNDLED_TRACE_HASHES = {
    "line3": "6a594d78def25ddb798db1bbe75c3fdd98fe03e86703ff20b4a9174f63d12f9a",
    "eu-us-backup": "079e28ec37f4b63ae2de182ee327a46487aab6052f0ad0050c07625a1792e79a",
    "restart-fail": "665d6350eddf1a617e4fd3130cc54c8db6d49dc33f8cc1e079c801fb3cd8b34f",
    "restart-ok": "f2ca96d45617d3aabfd59e50ca2acd7fad701dc3861d0dcbe9a9201bdb70cd84",
}


def test_bundled_scenarios_deterministic_trace_hashes():
    for name, expected in BUNDLED_TRACE_HASHES.items():
        path = os.path.join(SCENARIOS, "%s.json" % name)
        first = OverlaySim(load_scenario_file(path)).run()
        second = OverlaySim(load_scenario_file(path)).run()
        assert first.trace_hash() == second.trace_hash(), name
        assert first.trace_hash() == expected, name
        unmonitored = OverlaySim(load_scenario_file(path), monitoring=False).run()
        assert unmonitored.trace_hash() == expected, name


# sha256 of `snapshot_to_json` of the last published snapshot, as `sim run
# --snapshot-out` writes it. The trace holds only a snapshot's epoch and
# reflectors; these pin its links, tree edges, rooms and gateway flow too.
BUNDLED_SNAPSHOT_HASHES = {
    "line3": "8af38c3070b5b1ac7777fe63c8220741b602fa53cc2b5f9bcce2205fb6107f8a",
    "eu-us-backup": "40a744e5a58515074bb06ceea272cb6a2fe69f7d8e63f197b448c67f4bd3f41b",
    "restart-fail": "ccd59e99dccb829736c3dba7e03a98abbe79c2aa66d4358ddbd1f7eca78e771a",
    "restart-ok": "63e97673ca4a47e01c191346e1415471f33cdedb8e7fca322de2142ed1986367",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_SNAPSHOT_HASHES))
def test_bundled_scenario_last_snapshot_is_pinned(name):
    sim = OverlaySim(load_scenario_file(os.path.join(SCENARIOS, "%s.json" % name)))
    sim.run()
    snapshot = sim.registry.latest_snapshot
    assert snapshot.tree_edges and snapshot.links
    document = snapshot_to_json(snapshot).encode()
    assert hashlib.sha256(document).hexdigest() == BUNDLED_SNAPSHOT_HASHES[name]


def test_sim_run_trace_file_hashes_to_the_printed_trace_hash(tmp_path, capsys):
    for name in BUNDLED_TRACE_HASHES:
        out_path = tmp_path / ("%s.trace.jsonl" % name)
        main(["sim", "run", os.path.join(SCENARIOS, "%s.json" % name), "--trace", str(out_path)])
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("trace hash: ")]
        assert printed == ["trace hash: %s" % hashlib.sha256(out_path.read_bytes()).hexdigest()]


# --- the trace as an iterable over its text ---

def check_trace_view(trace, path):
    """`trace` reads back exactly the lines written to `path`."""
    events = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(trace) == len(events) > 0
    assert list(trace) == events


def write_trace_file(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        report.write_trace(fh)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_report_trace_reads_back_the_written_file(tmp_path):
    for name in BUNDLED_TRACE_HASHES:
        report = OverlaySim(load_scenario_file(os.path.join(SCENARIOS, "%s.json" % name))).run()
        first = report.trace_hash()
        path = tmp_path / ("%s.trace.jsonl" % name)
        written = write_trace_file(report, path)
        assert report.trace_hash() == first == written == BUNDLED_TRACE_HASHES[name], name
        check_trace_view(report.trace, path)


def test_trace_read_in_the_middle_of_a_chunk(tmp_path):
    sim = OverlaySim(load_scenario_file(os.path.join(SCENARIOS, "eu-us-backup.json")))
    sim.loop.run_until(30_000)
    assert len(sim.trace) % _CHUNK_EVENTS != 0  # some events still wait to be encoded
    half = tmp_path / "half.trace.jsonl"
    with open(half, "w", encoding="utf-8") as fh:
        sim.trace.write(fh)
    check_trace_view(sim.trace, half)
    report = sim.run()
    assert len(report.trace) % _CHUNK_EVENTS != 0
    whole = tmp_path / "whole.trace.jsonl"
    # Encoding a chunk early changes neither the text nor the hash.
    assert write_trace_file(report, whole) == BUNDLED_TRACE_HASHES["eu-us-backup"]
    assert report.trace_hash() == BUNDLED_TRACE_HASHES["eu-us-backup"]
    check_trace_view(report.trace, whole)


def load_bench_scenarios():
    """The benchmark's scenario builders (`bench/scenarios.py`)."""
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "scenarios.py")
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    bench_scenarios = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_scenarios)
    return bench_scenarios


def smoke_media_scenario(**sizes):
    bench_scenarios = load_bench_scenarios()
    return load_scenario(bench_scenarios.media_scenario(
        1900, **{**bench_scenarios.MEDIA_SIZES["smoke"], **sizes}))


def retained_by_finished_report(scenario):
    """(bytes the finished report keeps once its simulator is collected, the report)."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = OverlaySim(scenario)
        report = sim.run()
        del sim
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained, report


def test_finished_report_keeps_the_trace_as_text_not_events():
    retained, report = retained_by_finished_report(smoke_media_scenario())
    # Kept as dicts, this run's 981 events cost about 300 bytes each (the dict,
    # its float time and the list slot); as JSON lines in memory, about 110.
    # In the trace file they cost nothing in memory: what stays, about 7 per
    # event here, is the report, the digest and the file object, whatever the
    # trace's length.
    assert retained / len(report.trace) < 20


def test_finished_report_memory_does_not_grow_with_the_trace():
    # The smoke scenario's traffic is its bursts, not its duration (12 s and
    # 48 s trace 981 and 984 events), so a burst four times as long makes the
    # longer trace.
    short, short_report = retained_by_finished_report(smoke_media_scenario(burst=3))
    long, long_report = retained_by_finished_report(smoke_media_scenario(burst=12))
    more_events = len(long_report.trace) - len(short_report.trace)
    assert more_events > 2 * len(short_report.trace)
    # In memory the text cost about 110 bytes per event.
    assert (long - short) / more_events < 5


def test_delivery_accounting_costs_little_per_packet_once_packets_retire():
    # A dict of its own per packet cost about 420 bytes here; what stays is each
    # packet's two table slots, its key and the shared record's reference.
    scenario = smoke_media_scenario(burst=12)
    gc.collect()
    tracemalloc.start()
    try:
        sim = OverlaySim(scenario)
        report = sim.run()
        with_accounting = tracemalloc.get_traced_memory()[0]
        sim.delivered_to.clear()
        sim.expected_receivers.clear()
        accounting = with_accounting - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.ok() and report.transmissions_lost == 0
    assert accounting / report.media.injected < 200


def test_exactly_once_packets_share_one_read_only_record():
    doc = triangle_doc(events=[{"t": 20000, "action": "inject", "room": 1, "src": 1,
                                "count": 5, "interval_ms": 10, "payload_bytes": 50}])
    sim = OverlaySim(load_scenario(doc))
    late = (1, 1, 3)
    before = []

    def deliver_again():  # long after every packet arrived
        before.append(sim.delivered_to[late])
        sim._deliver_local(2, late, 2, sim._now_text())

    sim.schedule(30000.0, deliver_again)
    report = sim.run()
    record = sim.delivered_to[(1, 1, 1)]
    assert all(r is record for r in before + [sim.delivered_to[(1, 1, s)] for s in (2, 4, 5)])
    assert isinstance(record, MappingProxyType) and record == {2: 1, 3: 1}
    with pytest.raises(TypeError):
        record[2] = 2
    assert report.violations == ["duplicate delivery of packet %s to client 2" % (late,)]
    assert sim.delivered_to[late] == {2: 2, 3: 1}
    assert type(sim.delivered_to[late]) is dict
    assert record == {2: 1, 3: 1}


def test_two_live_reports_each_read_and_write_their_own_trace(tmp_path):
    reports = {name: OverlaySim(load_scenario_file(os.path.join(SCENARIOS, "%s.json" % name)))
               .run() for name in ("line3", "eu-us-backup")}
    for name, report in reports.items():
        path = tmp_path / ("%s.trace.jsonl" % name)
        assert write_trace_file(report, path) == BUNDLED_TRACE_HASHES[name]
        check_trace_view(report.trace, path)


def test_trace_outlives_its_collected_simulator(tmp_path):
    sim = OverlaySim(load_scenario_file(os.path.join(SCENARIOS, "eu-us-backup.json")))
    report = sim.run()
    del sim
    gc.collect()
    path = tmp_path / "eu-us-backup.trace.jsonl"
    assert write_trace_file(report, path) == BUNDLED_TRACE_HASHES["eu-us-backup"]
    assert report.trace_hash() == BUNDLED_TRACE_HASHES["eu-us-backup"]
    check_trace_view(report.trace, path)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files in /proc")
def test_finished_simulator_goes_with_its_last_reference():
    # No cycle holds a finished run: with the cycle collector off, dropping
    # the simulator and its report closes the trace file at once.
    scenario = load_scenario_file(os.path.join(SCENARIOS, "line3.json"))
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    gc.disable()
    try:
        for _ in range(100):
            OverlaySim(scenario).run()
        after = len(os.listdir("/proc/self/fd"))
    finally:
        gc.enable()
    assert after == before


def test_trace_iterates_the_same_events_twice_and_interleaved():
    report = OverlaySim(load_scenario_file(os.path.join(SCENARIOS, "eu-us-backup.json"))).run()
    first = list(report.trace)
    assert len(first) > 4 * _CHUNK_EVENTS
    assert list(report.trace) == first
    # Each reader keeps its own place in the one file.
    assert [a for a, b in zip(report.trace, report.trace) if a == b] == first


# --- trace line encoding ---

_NUMBERS = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e300,
                     2 ** 64 + 1, -(2 ** 70), 10 ** 400]),
)
_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["%", "%r", "%%s", '"', "\\", 'say "50%"', "caf\u00e9", "\u2028", "\U0001f600"]),
)
_JSON_VALUES = st.one_of(
    _STRINGS,
    st.booleans(),
    st.lists(st.one_of(_NUMBERS, _STRINGS, st.booleans(), st.lists(_NUMBERS, max_size=2)),
             max_size=3),
)


# One (t, field values) pair per trace kind, in `_TRACE_FIELDS` order.
_KIND_VALUES = st.tuples(*[
    st.tuples(_NUMBERS, st.tuples(*[_JSON_VALUES if name in _JSON_FIELDS else _NUMBERS
                                    for name in fields]))
    for fields in _TRACE_FIELDS.values()])


# Drawing the values takes most of an example's time, so a deadline would only time the host.
@settings(max_examples=150, deadline=None)
@given(_KIND_VALUES)
def test_trace_line_equals_json_dumps(drawn):
    sim = OverlaySim(load_scenario(triangle_doc()))
    expected = []
    for (kind, fields), (t, values) in zip(_TRACE_FIELDS.items(), drawn):
        sim.loop.now = t
        sim._trace(kind, *values)
        event = {"t": t, "kind": kind, **dict(zip(fields, values))}
        expected.append(json.dumps(event, sort_keys=True))
    with pytest.raises(KeyError):
        sim._trace("not_a_kind", 1)
    text = io.StringIO()
    sim.trace.write(text)
    assert text.getvalue().splitlines() == expected
    assert list(sim.trace) == [json.loads(line) for line in expected]


def test_trace_line_other_key_set_of_a_cached_kind():
    # Each kind has one declared key set: a value too few or too many raises
    # instead of writing a line with other keys, and kinds traced in turn
    # each keep their own keys.
    sim = OverlaySim(load_scenario(triangle_doc()))
    sim.loop.now = 1.5
    with pytest.raises(TypeError):
        sim._trace("deliver", 1, 2, 3, 4)
    with pytest.raises(TypeError):
        sim._trace("deliver", 1, 2, 3, 4, 5, 6)
    sim._trace("deliver", 4, 1, 7, 2, 3)
    sim._trace("drop", 1, 2, "no_route", 7, 2, 3)
    sim._trace("deliver", 5, 2, 7, 2, 3)
    sim._trace("kill", 3)
    expected = [
        {"t": 1.5, "kind": "deliver", "client": 4, "reflector": 1, "room": 7, "seq": 2, "src": 3},
        {"t": 1.5, "kind": "drop", "a": 1, "b": 2, "reason": "no_route", "room": 7, "seq": 2,
         "src": 3},
        {"t": 1.5, "kind": "deliver", "client": 5, "reflector": 2, "room": 7, "seq": 2, "src": 3},
        {"t": 1.5, "kind": "kill", "reflector": 3},
    ]
    text = io.StringIO()
    sim.trace.write(text)
    assert text.getvalue().splitlines() == [json.dumps(e, sort_keys=True) for e in expected]


def hop_trace_doc():
    """Lossy, downed and dead hops, three clients on reflector 1, and lines at -0.0 and 0.0."""
    return {
        "name": "hop-trace", "seed": 5, "duration_ms": 3000,
        "reflectors": [{"id": 1}, {"id": 2}, {"id": 3}, {"id": 4}],
        "links": [{"a": 1, "b": 2, "latency_ms": 10, "loss": 0.3},
                  {"a": 2, "b": 3, "latency_ms": 10}, {"a": 3, "b": 4, "latency_ms": 10}],
        "clients": [{"id": 201, "reflector": 1}, {"id": 202, "reflector": 1},
                    {"id": 203, "reflector": 1}, {"id": 204, "reflector": 2},
                    {"id": 205, "reflector": 3}, {"id": 206, "reflector": 4}],
        "rooms": [{"id": 50, "members": [201, 202, 203, 204, 205, 206]},
                  {"id": 51, "members": [202, 204, 206]}],
        "events": [
            # Traced at -0.0, after the periodic work of 0.0 and before the injects.
            {"t": -0.0, "action": "set_link", "a": 3, "b": 4, "latency_ms": 12},
            # Two streams that share every send time, and one that shares none.
            {"t": 0, "action": "inject", "room": 50, "src": 201, "count": 15, "interval_ms": 100},
            {"t": 0, "action": "inject", "room": 51, "src": 204, "count": 15, "interval_ms": 100},
            {"t": 150, "action": "inject", "room": 50, "src": 205, "count": 10, "interval_ms": 37},
            {"t": 1500, "action": "set_link", "a": 2, "b": 3, "up": False},
            {"t": 1500, "action": "inject", "room": 50, "src": 202, "count": 5, "interval_ms": 50},
        ],
    }


def test_hop_trace_lines_equal_json_dumps_with_the_clock_and_forward_results():
    # The forward and deliver lines are written in place and every line reuses
    # the text of an unchanged clock, so check each line against the clock
    # read when it was appended and each forward line against what
    # `ReflectorEngine.forward` returned.
    sim = OverlaySim(load_scenario(hop_trace_doc()))
    # An int time right after float lines of the same value (5 == 5.0).
    sim.schedule(1000.0, lambda: sim.loop.schedule(1000, sim.kill_reflector, 4))
    clocks, forwards = [], []
    append = sim.trace.append
    sim.trace.append = lambda line: (clocks.append(repr(sim.loop.now)), append(line))
    for node in sim.nodes.values():
        def forward(room, src, nbytes, from_peer, node=node, real=node.engine.forward):
            epoch = node.engine.routing.epoch
            clients, peers, sent = real(room, src, nbytes, from_peer)
            forwards.append((node.id, epoch, room, src, list(clients), len(peers)))
            return clients, peers, sent
        node.engine.forward = forward
    report = sim.run()
    text = io.StringIO()
    report.write_trace(text)
    lines = text.getvalue().splitlines()
    events = [json.loads(line) for line in lines]
    assert len(lines) == len(clocks)
    for line, event, clock in zip(lines, events, clocks):
        assert line == json.dumps(event, sort_keys=True)
        assert set(event) == set(_TRACE_FIELDS[event["kind"]]) | {"kind", "t"}
        assert repr(event["t"]) == clock
    injected = {(e["room"], e["src"], e["seq"]) for e in events if e["kind"] == "inject"}
    at = [i for i, e in enumerate(events) if e["kind"] == "forward"]
    assert len(at) == len(forwards)
    for i, (rid, epoch, room, src, clients, npeers) in zip(at, forwards):
        e = events[i]
        assert (e["reflector"], e["epoch"], e["room"], e["src"]) == (rid, epoch, room, src)
        assert e["fanout"] == len(clients) + npeers
        assert (room, src, e["seq"]) in injected
        delivers = events[i + 1:i + 1 + len(clients)]
        assert [(d["kind"], d["client"]) for d in delivers] == [("deliver", c) for c in clients]
        assert all((d["reflector"], d["room"], d["src"], d["seq"], d["t"])
                   == (rid, room, src, e["seq"], e["t"]) for d in delivers)
    # The run covers what it is for.
    assert {e["reason"] for e in events if e["kind"] == "drop"} == {"loss", "link_down",
                                                                    "dead_peer"}
    assert max(len(f[4]) for f in forwards) == 3
    assert {"0.0", "-0.0", "1000", "1000.0"} <= set(clocks)
    inject_times = [e["t"] for e in events if e["kind"] == "inject"]
    assert len(set(inject_times)) < len(inject_times)


# --- recovery timing ---

def test_killed_reflector_recovers_within_bound():
    scenario = load_scenario_file(os.path.join(SCENARIOS, "restart-ok.json"))
    sim = OverlaySim(scenario)
    report = sim.run()
    kill_t = next(e["t"] for e in report.trace if e["kind"] == "kill")
    recover_t = next(e["t"] for e in report.trace if e["kind"] == "restart" and e["ok"])
    probes_after = sim.config.probe_interval_ms * (sim.config.k_miss + 2)
    # Up again no later than the probe after the successful restart.
    assert recover_t + sim.config.probe_interval_ms - kill_t <= probes_after


def test_failed_reflector_excluded_from_optimizer_until_cleared():
    scenario = load_scenario_file(os.path.join(SCENARIOS, "restart-fail.json"))
    sim = OverlaySim(scenario)
    report = sim.run()
    assert sim.supervisor.records[3].state is HealthState.FAILED
    last_routing = [e for e in report.trace if e["kind"] == "routing"][-1]
    assert not any(3 in edge for edge in last_routing["edges"])
    sim.supervisor.clear_failed(3)
    assert sim.supervisor.probe_targets() == [1, 2, 3, 4]


# --- rerouting ---

def test_degraded_tree_link_triggers_reroute_within_one_cycle():
    doc = triangle_doc(
        duration_ms=60000,
        events=[
            {"t": 1100, "action": "inject", "room": 1, "src": 1, "count": 100,
             "interval_ms": 500, "payload_bytes": 100},
            {"t": 15000, "action": "set_link", "a": 1, "b": 2, "loss": 0.95},
        ],
        expect={"exactly_once": False},
    )
    # Traffic keeps flowing across the swap; after the reroute no packet
    # crosses the lossy link, so late packets all deliver exactly once.
    doc["expect"] = {"min_routing_epochs": 2, "max_routing_epochs": 2}
    report = run_doc(doc)
    assert report.ok(), report.violations
    routing = [e for e in report.trace if e["kind"] == "routing"]
    degrade_t = 15000
    assert routing[1]["t"] <= degrade_t + 10000  # within one optimizer cycle
    assert [1, 2] not in routing[1]["edges"]
    # After the swap the lossy link is idle, so deliveries return to exactly-once.
    late = [e for e in report.trace if e["kind"] == "deliver" and e["t"] > routing[1]["t"]]
    by_packet = {}
    for e in late:
        by_packet.setdefault((e["src"], e["seq"]), set()).add(e["client"])
    assert by_packet
    for receivers in by_packet.values():
        assert len(receivers) == 2


def test_quality_jitter_below_delta_never_reroutes():
    events = []
    # Wobble a tree link's loss every cycle; EWMA keeps the weight swing
    # well inside the 5% hysteresis threshold.
    for i in range(100):
        events.append({
            "t": 5000 + i * 10_000, "action": "set_link", "a": 1, "b": 2,
            "loss": 0.05 if i % 2 == 0 else 0.06,
        })
    doc = triangle_doc(
        duration_ms=1_010_000,
        events=events,
        expect={"min_routing_epochs": 1, "max_routing_epochs": 1},
    )
    doc["links"] = [
        {"a": 1, "b": 2, "latency_ms": 10, "loss": 0.05},
        {"a": 2, "b": 3, "latency_ms": 10},
        {"a": 1, "b": 3, "latency_ms": 10, "loss": 0.055},
    ]
    report = run_doc(doc)
    assert report.ok(), report.violations
    assert report.routing_epochs == [1]


def test_epoch_swap_atomicity_for_in_flight_packets():
    # A slow link keeps a packet in flight across an epoch install; every
    # forward decision must use exactly one installed table.
    doc = {
        "name": "swap",
        "seed": 4,
        "duration_ms": 40000,
        "reflectors": [{"id": 1}, {"id": 2}],
        "links": [{"a": 1, "b": 2, "latency_ms": 400}],
        "clients": [{"id": 1, "reflector": 1}, {"id": 2, "reflector": 2}],
        "rooms": [{"id": 1, "members": [1, 2]}],
        "events": [
            {"t": 19800, "action": "inject", "room": 1, "src": 1, "count": 3,
             "interval_ms": 10, "payload_bytes": 50},
        ],
    }
    scenario = load_scenario(doc)
    sim = OverlaySim(scenario)
    # Membership change right before the cycle at t=20000 forces epoch 2
    # while the injected packets are still on the 400 ms link.
    sim.schedule(19900.0, lambda: sim.add_reflector(3, link_to=2, latency_ms=10.0))
    report = sim.run()
    assert report.ok(), report.violations
    assert report.routing_epochs == [1, 2]
    packet_epochs = {}
    for e in report.trace:
        if e["kind"] == "forward":
            packet_epochs.setdefault((e["src"], e["seq"]), set()).add(e["epoch"])
    assert all(epochs <= {1, 2} for epochs in packet_epochs.values())
    # The straddling packets really did observe both tables.
    assert any(epochs == {1, 2} for epochs in packet_epochs.values())
    # And every client still got each packet exactly once.
    for counts in sim.delivered_to.values():
        assert set(counts.values()) == {1}


def test_garbage_probe_replies_count_as_no_answer():
    # A reflector answering probes with garbage gets restarted like a dead one.
    doc = triangle_doc(duration_ms=60000)
    sim = OverlaySim(load_scenario(doc))
    sim.schedule(15000.0, lambda: setattr(sim.nodes[3], "probe_garbage", True))
    report = sim.run()
    restarts = [e for e in report.trace if e["kind"] == "restart"]
    assert restarts and restarts[0]["reflector"] == 3
    # The successful restart clears the fault and the reflector recovers.
    assert sim.supervisor.records[3].state is HealthState.UP


# --- partitions and delivery reports ---

def test_partition_reports_failed_installs_and_notifies_supervisor():
    doc = triangle_doc(
        duration_ms=30000,
        events=[{"t": 5000, "action": "partition", "isolated": [3]}],
    )
    sim = OverlaySim(load_scenario(doc))
    report = sim.run()
    failures = [e for e in report.trace if e["kind"] == "install_failed"]
    assert failures and failures[0]["reflector"] == 3
    assert sim.supervisor.unreachable.get(3, 0) >= 1


def test_partition_heals_and_resyncs_routing():
    doc = triangle_doc(
        duration_ms=60000,
        events=[
            {"t": 5000, "action": "partition", "isolated": [3]},
            {"t": 25000, "action": "partition", "isolated": []},
        ],
    )
    sim = OverlaySim(load_scenario(doc))
    report = sim.run()
    assert sim.nodes[3].engine.routing.epoch == sim.registry.epoch
    resyncs = [e for e in report.trace if e["kind"] == "resync_routing"]
    installs = [e for e in report.trace if e["kind"] == "routing"]
    assert resyncs or installs[-1]["acks"] == 3


def pair_doc(events, duration_ms=40000):
    return {
        "name": "pair", "seed": 5, "duration_ms": duration_ms,
        "reflectors": [{"id": 1}, {"id": 2}],
        "links": [{"a": 1, "b": 2, "latency_ms": 10}],
        "clients": [{"id": 1, "reflector": 1}, {"id": 2, "reflector": 2}],
        "rooms": [{"id": 1, "members": [1, 2]}],
        "events": events,
    }


def test_link_scripted_down_during_a_partition_stays_down_after_the_heal():
    sim = OverlaySim(load_scenario(pair_doc([
        {"t": 1000, "action": "partition", "isolated": [2]},
        {"t": 2000, "action": "set_link", "a": 1, "b": 2, "up": False},
        {"t": 3000, "action": "partition", "isolated": []},
        {"t": 35000, "action": "inject", "room": 1, "src": 1, "count": 3},
    ])))
    report = sim.run()
    assert sim.net.links[(1, 2)].up is False
    assert [e for e in report.trace if e["kind"] == "deliver"] == []


def test_link_scripted_up_during_a_partition_stays_cut():
    sim = OverlaySim(load_scenario(pair_doc([
        {"t": 1000, "action": "partition", "isolated": [2]},
        {"t": 2000, "action": "set_link", "a": 1, "b": 2, "up": True},
        {"t": 3000, "action": "inject", "room": 1, "src": 1, "count": 3},
    ], duration_ms=5000)))
    sim.schedule(2500.0, lambda: sim.add_reflector(3, link_to=2))
    report = sim.run()
    assert [e for e in report.trace if e["kind"] == "deliver"] == []
    assert report.media.dropped_link_down == 3
    assert sim.net.links[(2, 3)].cut  # a link added across the partition is cut too


def long_partition_doc(**config):
    # Reflector 3 is isolated far longer than its lease and its restarts.
    return triangle_doc(duration_ms=200_000, config=config, events=[
        {"t": 5000, "action": "partition", "isolated": [3]},
        {"t": 95000, "action": "partition", "isolated": []},
        {"t": 150_000, "action": "inject", "room": 1, "src": 1, "count": 3},
    ])


def test_reflector_healed_after_its_lease_lapsed_registers_again():
    sim = OverlaySim(load_scenario(long_partition_doc()))
    report = sim.run()
    assert sim.registry.is_live(3)
    assert sim.supervisor.records[3].state is HealthState.UP
    got = [e["seq"] for e in report.trace if e["kind"] == "deliver" and e["client"] == 3]
    assert got == [1, 2, 3]


def test_restart_of_an_isolated_reflector_waits_for_the_heal():
    # A 10 s lease lapses before the first restart at 20 s.
    sim = OverlaySim(load_scenario(long_partition_doc(liveness_intervals=1)))
    registrations = []
    register = sim.registry.register

    def watched(rid, *args):
        registrations.append((rid, sim.loop.now))
        return register(rid, *args)

    sim.registry.register = watched
    report = sim.run()
    trace = list(report.trace)
    assert [e for e in trace if e["kind"] == "restart" and e["reflector"] == 3 and e["t"] < 95000]
    assert [t for rid, t in registrations if rid == 3] == [95000]
    assert not [e for e in trace if e["kind"] == "resync_routing" and e["t"] < 95000]


# --- monitoring integration ---

def test_monitor_measures_transit_traffic_rate():
    doc = {
        "name": "rate",
        "seed": 1,
        "duration_ms": 3000,
        "config": {"monitor_interval_ms": 1000},
        "reflectors": [{"id": 1}, {"id": 2}],
        "links": [{"a": 1, "b": 2, "latency_ms": 10, "bandwidth_kbps": 100000}],
        "clients": [{"id": 1, "reflector": 1}, {"id": 2, "reflector": 2}],
        "rooms": [{"id": 1, "members": [1, 2]}],
        "events": [
            {"t": 0, "action": "inject", "room": 1, "src": 1, "count": 10,
             "interval_ms": 100, "payload_bytes": 76},
        ],
    }
    sim = OverlaySim(load_scenario(doc))
    sim.run()
    # 10 packets/s of 100 wire bytes arriving at reflector 2 = 8 kbps.
    samples = sim.monitor.query_range(2, "net.in_kbps", 500.0, 1500.0)
    assert samples and samples[0].value == pytest.approx(8.0, rel=0.01)


def test_monitoring_on_off_delivery_sets_identical():
    doc = triangle_doc(
        duration_ms=30000,
        events=[
            {"t": 1100, "action": "inject", "room": 1, "src": 1, "count": 30,
             "interval_ms": 250, "payload_bytes": 200},
            {"t": 1200, "action": "inject", "room": 1, "src": 2, "count": 30,
             "interval_ms": 250, "payload_bytes": 100},
        ],
    )
    doc["links"][0]["loss"] = 0.2  # lossy link exercises the RNG path
    on = run_doc(doc, monitoring=True)
    off = run_doc(doc, monitoring=False)
    assert deliveries(on) == deliveries(off)
    assert on.media == off.media


def monitor_digest(store):
    """sha256 over what the store retains and counts after a run."""
    lengths = store.series_lengths()
    keys = list(lengths)
    picked = keys[:2] + keys[len(keys) // 2:len(keys) // 2 + 1] + keys[-2:]
    doc = {
        "heads": [[s.reflector, s.name, s.value, s.at] for s in store.heads()],
        "lengths": [[r, n, k] for (r, n), k in lengths.items()],
        "evictions": store.evictions,
        "regressions": store.regressions,
        "total": store.total_samples(),
        "ranges": [[[s.value, s.at] for s in store.query_range(r, n, float("-inf"), float("inf"))]
                   for r, n in picked],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# Trace hashes do not cover the monitor, so its store is pinned on its own.
# "sim-control-tight" shrinks the store until rings and the budget both evict.
MONITOR_DIGESTS = {
    "eu-us-backup": "792032bb9a047b4e3e98dd4fbc252d6c13c53748fa932cff01975ecfe629d883",
    "line3": "226345ddc9f7dff2b5b0122ed547fe615a193e522b4fba565b0f51760663f5bd",
    "restart-fail": "08ce8c51ad8845b91208c1dc2fe928e09b6f76ca5ebeb9e529e3d8765ae867c4",
    "restart-ok": "04f86f89e3ee6d8c132bc61810ba2fd3451446ec928e94de96c164715d0ccfe7",
    "sim-control": "5b3ef8b4d44e18f726410411d46bab39a532ef784544db21a48d8f0ead98a687",
    "sim-control-tight": "ab8889dc1c6149586a76c6ec7eebb303e8d3a3744b5955f93415ad986cbb385b",
}


@pytest.mark.parametrize("name", sorted(MONITOR_DIGESTS))
def test_monitor_store_digest_is_pinned(name):
    if name.startswith("sim-control"):
        bench_scenarios = load_bench_scenarios()
        doc = bench_scenarios.control_scenario(7, **bench_scenarios.CONTROL_SIZES["smoke"])
        if name == "sim-control-tight":
            doc["config"] = dict(doc.get("config", {}), series_capacity=5, budget_bytes=256 * 1500)
        scenario = load_scenario(doc)
    else:
        scenario = load_scenario_file(os.path.join(SCENARIOS, "%s.json" % name))
    sim = OverlaySim(scenario)
    sim.run()
    assert monitor_digest(sim.monitor.store) == MONITOR_DIGESTS[name]


def test_monitor_tick_emits_quality_series():
    sim = OverlaySim(load_scenario(triangle_doc(duration_ms=25000)))
    sim.run()
    samples = sim.monitor.query_range(1, "peer.2.quality", 0.0, 1e9)
    assert samples
    assert all(0.0 <= s.value <= 1.0 for s in samples)


# --- auto-appearance ---

def test_new_reflector_visible_to_subscriber_within_one_publish_interval():
    sim = OverlaySim(load_scenario(triangle_doc(duration_ms=60000)))
    register_at = 25000.0
    sim.schedule(register_at, lambda: sim.add_reflector(9, region="US", link_to=1, latency_ms=20.0))
    report = sim.run()
    snapshots = [(e["t"], e["reflectors"]) for e in report.trace if e["kind"] == "snapshot"]
    assert snapshots[0] == (0.0, [1, 2, 3])
    first_with_9 = next(t for t, ids in snapshots if 9 in ids)
    assert first_with_9 - register_at <= sim.config.publish_interval_ms


# --- randomized topologies ---

def random_overlay_doc(rng, n_reflectors):
    reflectors = [{"id": i} for i in range(1, n_reflectors + 1)]
    links = []
    for i in range(2, n_reflectors + 1):
        links.append({
            "a": rng.randrange(1, i), "b": i,
            "latency_ms": rng.choice((5, 10, 20)),
        })
    extra = {(l["a"], l["b"]) for l in links}
    for _ in range(n_reflectors // 2):
        a, b = rng.sample(range(1, n_reflectors + 1), 2)
        key = (min(a, b), max(a, b))
        if key not in extra:
            extra.add(key)
            links.append({"a": key[0], "b": key[1], "latency_ms": 15})
    n_clients = 2 * n_reflectors
    clients = [
        {"id": c, "reflector": rng.randrange(1, n_reflectors + 1)}
        for c in range(1, n_clients + 1)
    ]
    rooms = []
    events = []
    for room_id in range(1, max(2, n_reflectors // 3)):
        members = rng.sample(range(1, n_clients + 1), rng.randrange(2, 6))
        rooms.append({"id": room_id, "members": members})
        events.append({
            "t": 1100 + room_id * 10, "action": "inject", "room": room_id,
            "src": members[0], "count": 3, "interval_ms": 500, "payload_bytes": 64,
        })
    events.sort(key=lambda e: e["t"])
    return {
        "name": "random-overlay",
        "seed": rng.randrange(2**31),
        "duration_ms": 12000,
        "reflectors": reflectors,
        "links": links,
        "clients": clients,
        "rooms": rooms,
        "events": events,
        "expect": {"exactly_once": True},
    }


def test_exactly_once_on_randomized_topologies_up_to_70_reflectors():
    rng = random.Random(660)
    for n in (5, 12, 33, 70):
        report = run_doc(random_overlay_doc(rng, n))
        assert report.ok(), (n, report.violations[:5])
        assert report.media.delivered > 0


def test_chaos_soak_survives_random_fault_schedules():
    # Random kills, partitions, link churn, and scripted restart outcomes
    # while traffic flows. Transient duplicates or trail aborts around a
    # swap are recorded, not raised; what must hold is: the run finishes,
    # transmissions are conserved, and the whole thing replays identically.
    rng = random.Random(4096)
    for round_no in range(5):
        base = random_overlay_doc(rng, rng.randrange(6, 16))
        base["duration_ms"] = 90_000
        base["expect"] = {}
        events = [e for e in base["events"]]
        rids = [r["id"] for r in base["reflectors"]]
        links = base["links"]
        for _ in range(8):
            t = rng.randrange(1, 85) * 1000 + rng.randrange(0, 997)
            kind = rng.choice(("kill", "restart_outcomes", "set_link", "partition", "heal"))
            if kind == "kill":
                events.append({"t": t, "action": "kill_reflector",
                               "reflector": rng.choice(rids)})
            elif kind == "restart_outcomes":
                events.append({"t": t, "action": "restart_outcomes",
                               "reflector": rng.choice(rids),
                               "outcomes": [rng.random() < 0.6 for _ in range(2)]})
            elif kind == "set_link":
                link = rng.choice(links)
                events.append({"t": t, "action": "set_link", "a": link["a"],
                               "b": link["b"], "loss": rng.choice((0.0, 0.3, 0.9)),
                               "up": rng.random() < 0.8})
            elif kind == "partition":
                events.append({"t": t, "action": "partition",
                               "isolated": rng.sample(rids, k=min(2, len(rids) - 1))})
            else:
                events.append({"t": t, "action": "partition", "isolated": []})
        events.sort(key=lambda e: e["t"])
        base["events"] = events
        sim = OverlaySim(load_scenario(base))
        first = sim.run()
        sent = first.transmissions_sent
        assert sent == (first.transmissions_delivered + first.transmissions_lost
                        + first.transmissions_in_flight)
        assert first.transmissions_in_flight >= 0
        # Scripted link state and the partition compose: a link carries a hop
        # exactly when its last scripted `up` holds and the last partition
        # does not cut it.
        scripted = {(l["a"], l["b"]): True for l in links}
        isolated = set()
        for e in events:
            if e["action"] == "set_link":
                scripted[(e["a"], e["b"])] = e["up"]
            elif e["action"] == "partition":
                isolated = set(e["isolated"])
        for (a, b), up in scripted.items():
            try:
                sim.net.transmit(a, b, 100, lambda: None)
                carried = True
            except LinkDown:
                carried = False
            assert carried == (up and (a in isolated) == (b in isolated)), (round_no, a, b)
        second = run_doc(base)
        assert first.trace_hash() == second.trace_hash(), "round %d" % round_no
        if round_no == 0:
            assert run_doc(base, monitoring=False).trace_hash() == first.trace_hash()


def test_link_down_drops_leave_no_transmission_in_flight():
    doc = {
        "name": "link-down", "seed": 3, "duration_ms": 2000,
        "reflectors": [{"id": 1}, {"id": 2}],
        "links": [{"a": 1, "b": 2, "latency_ms": 10}],
        "clients": [{"id": 1, "reflector": 1}, {"id": 2, "reflector": 2}],
        "rooms": [{"id": 1, "members": [1, 2]}],
        "events": [
            {"t": 500, "action": "set_link", "a": 1, "b": 2, "up": False},
            {"t": 1000, "action": "inject", "room": 1, "src": 1, "count": 3},
        ],
    }
    sim = OverlaySim(load_scenario(doc))
    report = sim.run()
    assert report.media.dropped_link_down == 3
    pending = [entry for entry in sim.loop._queue if entry[2] is _fire]
    assert report.transmissions_in_flight == len(pending)


def test_causality_no_delivery_before_injection_plus_latency():
    rng = random.Random(661)
    doc = random_overlay_doc(rng, 15)
    report = run_doc(doc)
    assert report.ok(), report.violations[:5]
    min_latency = min(l["latency_ms"] for l in doc["links"])
    injected_at = {}
    origin = {}
    for e in report.trace:
        if e["kind"] == "inject":
            injected_at[(e["room"], e["src"], e["seq"])] = e["t"]
            origin[(e["room"], e["src"], e["seq"])] = e["reflector"]
    for e in report.trace:
        if e["kind"] != "deliver":
            continue
        key = (e["room"], e["src"], e["seq"])
        if e["reflector"] == origin[key]:
            assert e["t"] == injected_at[key]  # same-reflector fanout is immediate
        else:
            assert e["t"] >= injected_at[key] + min_latency
