"""The vroverlay benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload sim-media --seed 1900 --seconds 40 --trace 0
    python3 bench/run.py --workload daemon-relay --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --workload sim-control --seed 7 --seconds 5 --trace 0 --smoke

Run from the root of a checkout; the program is imported from `src/`.
`--trace 0` prints every end-to-end metric, `--trace 1` every per-layer
metric (from a traced repetition plus an untraced one for the overhead).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every output check passed. README.md in this directory explains the
workloads, the metrics and the checks.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import relay
import scenarios
from spans import calls, layer_self_s, merge, total_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("sim-media", "sim-control", "daemon-relay")
DEFAULT_SEEDS = {"sim-media": 1900, "sim-control": 7, "daemon-relay": 1}
MIN_SIM_REPS = 2      # the trace-hash check needs a repeat of the seed
SIM_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "deliveries_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "cpu_us_per_pkt": "us",
    "relay_p50_ms": "ms",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.loop_self_s": "s",
    "sim.transmit_calls": "count",
    "sim.transmit_us": "us",
    "sim.trace_events": "count",
    "sim.trace_hash_s": "s",
    "reflector.forward_calls": "count",
    "reflector.forward_us": "us",
    "reflector.forward_fanout": "ratio",
    "reflector.swap_calls": "count",
    "wire.decode_calls": "count",
    "wire.decode_us": "us",
    "wire.encode_calls": "count",
    "wire.encode_us": "us",
    "daemon.self_us_per_pkt": "us",
    "daemon.threads": "count",
    "quality.ewma_calls": "count",
    "quality.ewma_us": "us",
    "optimizer.build_graph_calls": "count",
    "optimizer.build_graph_ms": "ms",
    "optimizer.mst_calls": "count",
    "optimizer.mst_ms": "ms",
    "optimizer.max_flow_calls": "count",
    "optimizer.max_flow_ms": "ms",
    "optimizer.room_routes_calls": "count",
    "optimizer.room_routes_ms": "ms",
    "optimizer.install_ratio": "ratio",
    "registry.snapshot_calls": "count",
    "registry.snapshot_ms": "ms",
    "registry.publish_routing_calls": "count",
    "registry.publish_routing_ms": "ms",
    "monitor.record_calls": "count",
    "monitor.record_us": "us",
    "monitor.collect_calls": "count",
    "monitor.collect_ms": "ms",
    "monitor.evictions_per_record": "ratio",
    "supervisor.tick_calls": "count",
    "supervisor.tick_us": "us",
    "relay_p99_ms": "ms",
    "gen.max_late_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
    "bench.traced_run_s": "s",
    "bench.unaccounted_frac": "ratio",
}
DECODE = ("wire.read_media_packet", "wire.decode_media_packet")
SELF_LAYERS = ("sim", "reflector", "wire", "registry", "monitor", "quality", "optimizer",
               "supervisor", "model")
for _layer in SELF_LAYERS:
    PER_LAYER[_layer + ".self_s"] = "s"

# Violations the known epoch-swap defect produces on sim-control: packets in
# flight while a new routing table is installed can loop or arrive twice.
KNOWN_DEFECT = ("routing loop", "duplicate delivery", "not exactly once")


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------- simulator

def sim_rep(workload, seed, size, traced):
    cmd = [sys.executable, os.path.join(HERE, "simrun.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", "1" if traced else "0"]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=SIM_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s repetition exited %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run_sim(workload, seed, seconds, size, trace, checks):
    started = time.monotonic()
    if trace:
        reps = [sim_rep(workload, seed, size, traced=False),
                sim_rep(workload, seed, size, traced=True)]
    else:
        reps = []
        while True:
            reps.append(sim_rep(workload, seed, size, traced=False))
            elapsed = time.monotonic() - started
            if len(reps) >= MIN_SIM_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
    check_sim(workload, seed, size, reps, checks)
    first = reps[0]
    attempted, failed = first["expected_pairs"], first["failed_pairs"]
    if trace:
        metrics = sim_layer_metrics(reps[0], reps[1])
        checks.expect(abs(metrics["bench.unaccounted_frac"])
                      <= max(abs(metrics["bench.trace_overhead_frac"]), 0.01),
                      "layer self times do not account for the traced run")
        return attempted, failed, metrics
    run_s = statistics.median(r["run_s"] for r in reps)
    return attempted, failed, {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_s": run_s,
        "deliveries_per_s": first["delivered"] / run_s,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "cpu_us_per_pkt": statistics.median(r["cpu_s"] for r in reps) / first["delivered"] * 1e6,
        "relay_p50_ms": first["relay_p50_ms"],
    }


def check_sim(workload, seed, size, reps, checks):
    hashes = {r["trace_hash"] for r in reps}
    checks.expect(len(hashes) == 1, "trace hash differs between repetitions: %s" % sorted(hashes))
    if seed == DEFAULT_SEEDS[workload]:
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)[workload][size]
        checks.expect(hashes == {golden},
                      "trace hash %s is not the recorded %s" % (sorted(hashes), golden))
    for r in reps:
        checks.expect(r["inject_skipped"] == 0, "%d injections skipped" % r["inject_skipped"])
        checks.expect(r["unexpected_deliveries"] == 0,
                      "%d deliveries to clients outside the room" % r["unexpected_deliveries"])
        if workload == "sim-media":
            p = scenarios.MEDIA_SIZES[size]
            per_room = p["n_clients"] // p["n_rooms"]
            checks.expect(r["injected"] == p["n_rooms"] * 2 * p["burst"],
                          "injected %d packets" % r["injected"])
            checks.expect(r["delivered"] == r["injected"] * (per_room - 1),
                          "delivered %d, expected injected x %d" % (r["delivered"], per_room - 1))
            checks.expect(r["violations"] == 0, "%d invariant violations" % r["violations"])
            checks.expect(r["failed_pairs"] == 0, "%d receptions failed" % r["failed_pairs"])
        else:
            p = scenarios.CONTROL_SIZES[size]
            checks.expect(r["injected"] == p["n_rooms"] * p["packets_per_room"],
                          "injected %d packets" % r["injected"])
            unknown = set(r["violation_kinds"]) - set(KNOWN_DEFECT)
            checks.expect(not unknown, "violations beyond the known defect: %s" % sorted(unknown))


def sim_layer_metrics(untraced, traced):
    snap = traced["spans"]
    out = common_layer_metrics(snap)
    self_s = layer_self_s(snap)
    run_until = snap.get("sim.core.EventLoop.run_until", (0, 0, 0))
    out.update({
        "sim.events": traced["events"],
        "sim.loop_self_s": run_until[2] / 1e9,
        "sim.transmit_calls": calls(snap, "sim.core.SimNetwork.transmit"),
        "sim.transmit_us": mean_s(snap, "sim.core.SimNetwork.transmit") * 1e6,
        "sim.trace_events": traced["trace_events"],
        "sim.trace_hash_s": total_s(snap, "sim.harness.SimReport.trace_hash"),
        "reflector.forward_fanout": ratio(traced["packets_out"], traced["packets_in"]),
        "monitor.evictions_per_record": ratio(
            traced["evictions"], calls(snap, "monitor.MetricStore.record")),
        "bench.trace_overhead_frac": traced["run_s"] / untraced["run_s"] - 1.0,
        "bench.traced_run_s": traced["run_s"],
        "bench.unaccounted_frac": 1.0 - sum(self_s.values()) / traced["run_s"],
    })
    return out


# ---------------------------------------------------------------- daemons

def run_relay(seed, seconds, size, trace, checks):
    phase_a_s, phase_b = relay.SIZES[size]
    sessions = max(2, int(seconds // relay.SESSION_S)) if size == "full" else 2
    run_dir = relay.fresh_run_dir(WORK_DIR)
    try:
        plan = [False, True] if trace else [False] * sessions
        results = []
        for i, traced in enumerate(plan):
            try:
                results.append(relay.run_session(seed + i, SRC, run_dir, phase_a_s, phase_b,
                                                 traced))
            except relay.RelayError as exc:
                checks.expect(False, "daemon-relay: %s" % exc)
                return 1, 1, {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if trace:
        return attempted, failed, relay_layer_metrics(*results)
    latencies = [v for r in results for v in r["latencies_ms"]]
    # Closed-loop throughput swings between bursts, so phase B is pooled
    # over the sessions rather than taking a median of a few noisy rates.
    phase_b_s = sum(r["run_s"] for r in results)
    return attempted, failed, {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "run_s": phase_b_s / len(results),
        "deliveries_per_s": sum(r["delivered_b"] for r in results) / phase_b_s,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in results),
        "cpu_us_per_pkt": sum(r["cpu_a_s"] for r in results)
        / sum(r["delivered_a"] for r in results) * 1e6,
        "relay_p50_ms": statistics.median(latencies),
    }


def relay_layer_metrics(untraced, traced):
    docs = traced["spans"]
    snap = merge(*(doc["spans"] for doc in docs.values()))
    out = common_layer_metrics(snap)
    phase_a = merge(*traced["phase_a_spans"].values())
    hot = [n for n in phase_a if n.startswith("wire.")] + ["reflector.ReflectorEngine.forward"]
    delivered = traced["delivered_a"]
    out.update({
        "reflector.forward_fanout": ratio(sum(d["packets_out"] for d in docs.values()),
                                          sum(d["packets_in"] for d in docs.values())),
        "monitor.evictions_per_record": ratio(sum(d["evictions"] for d in docs.values()),
                                              calls(snap, "monitor.MetricStore.record")),
        "daemon.self_us_per_pkt": (traced["cpu_a_s"] - total_s(phase_a, *hot)) / delivered * 1e6,
        "daemon.threads": traced["threads"],
        "relay_p99_ms": relay.percentile(untraced["latencies_ms"], 0.99),
        "gen.max_late_ms": untraced["late_ms"],
        "bench.trace_overhead_frac": traced["run_s"] / untraced["run_s"] - 1.0,
        "bench.traced_run_s": traced["run_s"],
    })
    return out


# ---------------------------------------------------------------- per layer

def common_layer_metrics(snap):
    out = {name: 0.0 for name in PER_LAYER}
    mst = calls(snap, "optimizer.min_spanning_tree")
    routes = calls(snap, "optimizer.compute_room_routes")
    out.update({
        "reflector.forward_calls": calls(snap, "reflector.ReflectorEngine.forward"),
        "reflector.forward_us": mean_s(snap, "reflector.ReflectorEngine.forward") * 1e6,
        "reflector.swap_calls": calls(snap, "reflector.ReflectorEngine.swap_routing_table"),
        "wire.decode_calls": calls(snap, *DECODE),
        "wire.decode_us": mean_s(snap, *DECODE) * 1e6,
        "wire.encode_calls": calls(snap, "wire.encode_media_packet"),
        "wire.encode_us": mean_s(snap, "wire.encode_media_packet") * 1e6,
        "quality.ewma_calls": calls(snap, "quality.update_ewma"),
        "quality.ewma_us": mean_s(snap, "quality.update_ewma") * 1e6,
        "optimizer.build_graph_calls": calls(snap, "optimizer.build_graph"),
        "optimizer.build_graph_ms": mean_s(snap, "optimizer.build_graph") * 1e3,
        "optimizer.mst_calls": mst,
        "optimizer.mst_ms": mean_s(snap, "optimizer.min_spanning_tree") * 1e3,
        "optimizer.max_flow_calls": calls(snap, "optimizer.max_flow"),
        "optimizer.max_flow_ms": mean_s(snap, "optimizer.max_flow") * 1e3,
        "optimizer.room_routes_calls": routes,
        "optimizer.room_routes_ms": mean_s(snap, "optimizer.compute_room_routes") * 1e3,
        "optimizer.install_ratio": ratio(routes, mst),
        "registry.snapshot_calls": calls(snap, "registry.Registry.build_snapshot"),
        "registry.snapshot_ms": mean_s(snap, "registry.Registry.build_snapshot") * 1e3,
        "registry.publish_routing_calls": calls(snap, "registry.Registry.publish_routing"),
        "registry.publish_routing_ms": mean_s(snap, "registry.Registry.publish_routing") * 1e3,
        "monitor.record_calls": calls(snap, "monitor.MonitorService.record"),
        "monitor.record_us": mean_s(snap, "monitor.MonitorService.record") * 1e6,
        "monitor.collect_calls": calls(snap, "monitor.MetricCollector.collect"),
        "monitor.collect_ms": mean_s(snap, "monitor.MetricCollector.collect") * 1e3,
        "supervisor.tick_calls": calls(snap, "supervisor.Supervisor.supervise_tick"),
        "supervisor.tick_us": mean_s(snap, "supervisor.Supervisor.supervise_tick") * 1e6,
    })
    for layer, seconds in layer_self_s(snap).items():
        if layer in SELF_LAYERS:
            out[layer + ".self_s"] = seconds
    return out


def mean_s(snap, *names):
    return ratio(total_s(snap, *names), calls(snap, *names))


def ratio(a, b):
    return a / b if b else 0.0


# ---------------------------------------------------------------- entry

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vroverlay", "__init__.py")):
        print("error: no program at %s; run from the root of a vroverlay checkout" % SRC,
              file=sys.stderr)
        return 2
    # A terminated benchmark still stops the daemons it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    size = "smoke" if args.smoke else "full"

    checks = Checks()
    if args.workload == "daemon-relay":
        attempted, failed, metrics = run_relay(seed, args.seconds, size, args.trace, checks)
    else:
        attempted, failed, metrics = run_sim(args.workload, seed, args.seconds, size,
                                             args.trace, checks)
    units = PER_LAYER if args.trace else END_TO_END
    correct = not checks.failures
    print("workload %s seed %d (%s, trace %d)" % (args.workload, seed, size, args.trace))
    for name, unit in units.items():
        if name in metrics:
            print("  %-32s %14.6g %s" % (name, metrics[name], unit))
    print("  %-32s %14.6g (%d of %d)" % ("failed_frac", ratio(failed, attempted),
                                         failed, attempted))
    for failure in checks.failures:
        print("CHECK FAILED: %s" % failure)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
