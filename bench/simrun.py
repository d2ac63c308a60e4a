"""One simulator repetition in a fresh process; prints one JSON line.

Run by `run.py` once per repetition, so that `ru_maxrss` is this
repetition's own peak:

    python3 bench/simrun.py --workload sim-media --seed 1900 --size full --trace 0

The process builds the scenario document from the seed, sets up the
simulator `SETUPS` times (the last one runs), then times
`OverlaySim.run()` plus `SimReport.trace_hash()`, which is what
`vroverlay sim run` does. With `--trace 1` every layer's public calls are
wrapped first (see spans.py) and the span statistics of the run are
included in the output.
"""
import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import scenarios  # noqa: E402
import spans  # noqa: E402

SETUPS = 3


def build_doc(workload, seed, size):
    if workload == "sim-media":
        return scenarios.media_scenario(seed, **scenarios.MEDIA_SIZES[size])
    if workload == "sim-control":
        return scenarios.control_scenario(seed, **scenarios.CONTROL_SIZES[size])
    raise SystemExit("unknown sim workload %r" % workload)


def delivery_outcomes(sim):
    """(expected pairs, pairs not delivered exactly once, unexpected deliveries)."""
    expected_pairs = failed = unexpected = 0
    for key, receivers in sim.expected_receivers.items():
        counts = sim.delivered_to.get(key, {})
        expected_pairs += len(receivers)
        failed += sum(1 for client in receivers if counts.get(client, 0) != 1)
        unexpected += sum(1 for client in counts if client not in receivers)
    return expected_pairs, failed, unexpected


def violation_kind(message):
    for prefix, kind in (("routing loop", "routing loop"),
                         ("duplicate delivery", "duplicate delivery"),
                         ("packet ", "not exactly once")):
        if message.startswith(prefix):
            if kind == "not exactly once" and "unexpected client" in message:
                return "unexpected client"
            return kind
    return message


def relay_latencies_ms(trace):
    """Simulated inject-to-delivery latency of every delivery, in virtual ms."""
    injected = {}
    out = []
    for event in trace:
        kind = event["kind"]
        if kind == "inject":
            injected[(event["room"], event["src"], event["seq"])] = event["t"]
        elif kind == "deliver":
            out.append(event["t"] - injected[(event["room"], event["src"], event["seq"])])
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    from vroverlay.sim import OverlaySim, load_scenario
    from vroverlay.sim.core import EventLoop

    events = [0]
    if tracer is not None:
        traced_run_until = EventLoop.run_until

        def counting_run_until(loop, until):
            n = traced_run_until(loop, until)
            events[0] += n
            return n

        EventLoop.run_until = counting_run_until

    setup_s = []
    for _ in range(SETUPS):
        sim = None  # let the previous set-up go before building the next
        started = time.perf_counter()
        doc = build_doc(args.workload, args.seed, args.size)
        sim = OverlaySim(load_scenario(doc))
        setup_s.append(time.perf_counter() - started)

    if tracer is not None:
        tracer.reset()
    cpu0 = time.process_time()
    started = time.perf_counter()
    report = sim.run()
    trace_hash = report.trace_hash()
    run_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu0

    expected_pairs, failed, unexpected = delivery_outcomes(sim)
    latencies = relay_latencies_ms(report.trace)
    out = {
        "setup_s": statistics.median(setup_s),
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace_hash": trace_hash,
        "injected": report.media.injected,
        "inject_skipped": report.media.inject_skipped,
        "delivered": report.media.delivered,
        "violations": len(report.violations),
        "violation_kinds": sorted({violation_kind(v) for v in report.violations}),
        "expected_pairs": expected_pairs,
        "failed_pairs": failed,
        "unexpected_deliveries": unexpected,
        "relay_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "trace_events": len(report.trace),
        "routing_epochs": len(report.routing_epochs),
        "packets_in": sum(n.engine.counters.packets_in for n in sim.nodes.values()),
        "packets_out": sum(n.engine.counters.packets_out for n in sim.nodes.values()),
    }
    if tracer is not None:
        out["spans"] = tracer.snapshot()
        out["events"] = events[0]
        out["evictions"] = sim.monitor.store.evictions
    print(json.dumps(out))


if __name__ == "__main__":
    main()
