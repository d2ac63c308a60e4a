"""Operator command line.

Subcommands: run-registry and run-reflector (daemons), sim run (deterministic
scenario execution), topo export (DOT/JSON topology documents), and metrics
tail (live metric stream). Exit codes are uniform across subcommands:
0 success, 1 invariant violation, 2 input error, 3 bind error,
4 connectivity error.
"""
from __future__ import annotations

import argparse
import contextlib
import signal
import socket
import sys
from datetime import datetime, timezone

from .config import load_config
from .daemon import MAX_LINE, ReflectorDaemon, RegistryDaemon, parse_hostport
from .errors import BadPattern, ConfigError, RegistryUnreachable, SchemaError
from .export import load_snapshot, snapshot_to_dot, snapshot_to_json
from .monitor import compile_pattern
from .protocol import (
    decode_message,
    encode_message,
    make_snapshot_request,
    make_subscribe,
    snapshot_from_dict,
)
from .registry import TopologySnapshot

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_BIND = 3
EXIT_CONNECT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vroverlay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    registry = sub.add_parser("run-registry", help="run the registry daemon")
    registry.add_argument("--config", help="key=value config file")
    registry.add_argument("--listen", help="HOST:PORT to bind (overrides config)")

    reflector = sub.add_parser("run-reflector", help="run one reflector daemon")
    reflector.add_argument("--config", help="key=value config file")
    reflector.add_argument("--id", type=int, help="reflector id (overrides config)")
    reflector.add_argument("--registry", help="registry HOST:PORT (overrides config)")
    reflector.add_argument("--listen", help="media HOST:PORT to bind (overrides config)")
    reflector.add_argument("--region", help="region tag, e.g. EU or US")
    reflector.add_argument(
        "--peer",
        action="append",
        default=[],
        metavar="ID=HOST:PORT",
        help="static peer reflector (repeatable)",
    )

    sim = sub.add_parser("sim", help="deterministic simulation")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)
    sim_run = sim_sub.add_parser("run", help="run a scenario file")
    sim_run.add_argument("scenario", help="scenario JSON document")
    sim_run.add_argument("--seed", type=int, help="override the scenario seed")
    sim_run.add_argument("--trace", help="write the JSON-lines trace here")
    sim_run.add_argument("--snapshot-out",
                         help="write the final topology snapshot here (topo export input)")
    sim_run.add_argument("--no-monitoring", action="store_true",
                         help="disable metric recording (control plane still runs)")

    topo = sub.add_parser("topo", help="topology documents")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)
    export = topo_sub.add_parser("export", help="print the overlay topology")
    export.add_argument("--format", choices=("dot", "json"), default="dot")
    export.add_argument("--registry", help="registry HOST:PORT (live mode)")
    export.add_argument("--snapshot", help="snapshot JSON file (offline mode)")
    export.add_argument("--config", help="key=value config file")

    metrics = sub.add_parser("metrics", help="metric streams")
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    tail = metrics_sub.add_parser("tail", help="stream metric samples")
    tail.add_argument("--filter", default="*", help="glob over metric names")
    tail.add_argument("--reflector", type=int, action="append",
                      help="only these reflector ids (repeatable)")
    tail.add_argument("--registry", help="registry HOST:PORT")
    tail.add_argument("--config", help="key=value config file")
    tail.add_argument("--limit", type=int, default=0,
                      help="stop after N samples (0 = run until interrupted)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run-registry":
            return _run_registry(args)
        if args.command == "run-reflector":
            return _run_reflector(args)
        if args.command == "sim":
            return _sim_run(args)
        if args.command == "topo":
            return _topo_export(args)
        if args.command == "metrics":
            return _metrics_tail(args)
    except (ConfigError, SchemaError, BadPattern) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (RegistryUnreachable, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONNECT
    raise AssertionError("unhandled command")


def _install_stop_handler(stop):
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda signum, frame: stop())


def _run_registry(args) -> int:
    config = load_config(args.config)
    daemon = RegistryDaemon(config, listen=args.listen)
    # Handlers go in before the daemon is reachable, so a prompt SIGTERM
    # still shuts down cleanly instead of killing the process.
    _install_stop_handler(daemon.stop)
    try:
        daemon.start()
    except OSError as exc:
        print("error: cannot bind %s: %s" % (args.listen or config.registry_address, exc),
              file=sys.stderr)
        return EXIT_BIND
    print("registry listening on %s:%d" % (daemon.listen_address[0], daemon.port), flush=True)
    daemon.run_forever()
    return EXIT_OK


def _run_reflector(args) -> int:
    overrides = {}
    if args.id is not None:
        overrides["reflector_id"] = args.id
    if args.registry:
        overrides["registry_address"] = args.registry
    if args.listen:
        overrides["listen"] = args.listen
    if args.region:
        overrides["region"] = args.region
    config = load_config(args.config, overrides)
    peers = {}
    for spec in args.peer:
        peer_id, _, address = spec.partition("=")
        try:
            peers[int(peer_id)] = address
            parse_hostport(address)
        except (ValueError, ConfigError):
            raise ConfigError("bad --peer %r, expected ID=HOST:PORT" % spec) from None
    daemon = ReflectorDaemon(config, peers=peers)
    _install_stop_handler(daemon.shutdown)
    try:
        daemon.start()
    except (RegistryUnreachable, OSError) as exc:
        if daemon.stopping:
            return EXIT_OK  # terminated mid-startup: that is a clean shutdown
        if isinstance(exc, RegistryUnreachable):
            raise
        # Registration types its own failures, so an OSError is the bind.
        print("error: cannot bind %s: %s" % (config.listen, exc), file=sys.stderr)
        return EXIT_BIND
    print("reflector %d listening on port %d" % (config.reflector_id, daemon.port), flush=True)
    daemon.run_forever()
    daemon.shutdown()
    return EXIT_OK


def _sim_run(args) -> int:
    # Imported here, so that the daemon processes never load the simulator.
    from .sim import OverlaySim, load_scenario_file

    scenario = load_scenario_file(args.scenario, seed_override=args.seed)
    sim = OverlaySim(scenario, monitoring=not args.no_monitoring)
    report = sim.run()
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            report.write_trace(fh)
    if args.snapshot_out:
        # The publish tick fires at t = 0, so every run has published one.
        with open(args.snapshot_out, "w", encoding="utf-8") as fh:
            fh.write(snapshot_to_json(sim.registry.latest_snapshot))
    for line in report.summary_lines():
        print(line)
    print("trace hash: %s" % report.trace_hash())
    return EXIT_OK if report.ok() else EXIT_INVARIANT


def _messages(sock: socket.socket):
    """The registry's protocol lines, decoded; a line past MAX_LINE raises SchemaError."""
    with sock.makefile("rb") as reader:
        while line := reader.readline(MAX_LINE):
            if len(line) == MAX_LINE and not line.endswith(b"\n"):
                raise SchemaError("registry sent a line longer than %d bytes" % MAX_LINE)
            yield decode_message(line.decode("utf-8", "replace"))


def _fetch_snapshot(address: str) -> TopologySnapshot:
    try:
        with socket.create_connection(parse_hostport(address), timeout=5.0) as sock:
            sock.sendall(encode_message(make_snapshot_request()).encode("utf-8"))
            for msg in _messages(sock):
                if msg["kind"] == "snapshot":
                    return snapshot_from_dict(msg.get("snapshot"))
            raise RegistryUnreachable("registry closed the connection")
    except OSError as exc:
        raise RegistryUnreachable("cannot reach registry at %s: %s" % (address, exc)) from exc


def _topo_export(args) -> int:
    if args.snapshot:
        try:
            with open(args.snapshot, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError("cannot read snapshot %s: %s" % (args.snapshot, exc)) from exc
        snapshot = load_snapshot(text)
    else:
        config = load_config(args.config)
        snapshot = _fetch_snapshot(args.registry or config.registry_address)
    render = snapshot_to_json if args.format == "json" else snapshot_to_dot
    sys.stdout.write(render(snapshot))
    return EXIT_OK


def _metrics_tail(args) -> int:
    compile_pattern(args.filter)  # reject bad globs before dialing out
    config = load_config(args.config)
    address = args.registry or config.registry_address
    try:
        sock = socket.create_connection(parse_hostport(address), timeout=5.0)
    except OSError as exc:
        raise RegistryUnreachable("cannot reach registry at %s: %s" % (address, exc)) from exc
    sock.settimeout(None)  # the timeout was for connecting; a quiet stream is not an error
    stop = {"flag": False}

    def on_stop():  # unlike close, shutdown wakes a read blocked on a quiet stream
        stop["flag"] = True
        with contextlib.suppress(OSError):
            sock.shutdown(socket.SHUT_RDWR)

    _install_stop_handler(on_stop)
    printed = 0
    with sock:
        sock.sendall(
            encode_message(
                make_subscribe(args.filter, reflectors=args.reflector)
            ).encode("utf-8")
        )
        messages = _messages(sock)
        while not stop["flag"]:
            try:
                msg = next(messages, None)
            except OSError:
                break
            if msg is None:
                break
            if msg["kind"] == "ack" and not msg["ok"]:
                raise BadPattern(msg.get("error", "subscription rejected"))
            if msg["kind"] == "event" and msg.get("event") == "metric":
                stamp = datetime.fromtimestamp(msg["at"] / 1000.0, timezone.utc)
                print(
                    "%s %d %s %g"
                    % (stamp.isoformat(), msg["reflector"], msg["name"], msg["value"]),
                    flush=True,
                )
                printed += 1
                if args.limit and printed >= args.limit:
                    break
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
