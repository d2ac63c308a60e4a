"""Start a `vroverlay` daemon, optionally with every layer's calls traced.

    python3 bench/launch.py [--spans PATH] -- run-reflector --id 1 ...

Everything after `--` goes to `vroverlay.cli.main` unchanged. With
`--spans`, the layers are wrapped first (see spans.py); each SIGUSR1 writes
the span statistics so far to `PATH.<n>` (n = 1, 2, ...), and exit writes
them to `PATH`. The statistics are JSON: the spans plus the eviction count
of the metric store and the forwarding counters of the reflector engine.
The untraced form runs the same entry point, so both pay the same start-up.
"""
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402


def _dump(tracer, path):
    stores = tracer.instances.get("MetricStore", [])
    engines = tracer.instances.get("ReflectorEngine", [])
    doc = {
        "spans": tracer.snapshot(),
        "evictions": sum(s.evictions for s in stores),
        "packets_in": sum(e.counters.packets_in for e in engines),
        "packets_out": sum(e.counters.packets_out for e in engines),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def main(argv):
    if "--" not in argv:
        raise SystemExit("usage: launch.py [--spans PATH] -- <vroverlay arguments>")
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    spans_path = None
    if own[:1] == ["--spans"] and len(own) == 2:
        spans_path = own[1]
    elif own:
        raise SystemExit("usage: launch.py [--spans PATH] -- <vroverlay arguments>")

    tracer = None
    if spans_path is not None:
        tracer = spans.Tracer()
        tracer.install()
        dumps = [0]

        def on_usr1(signum, frame):
            dumps[0] += 1
            _dump(tracer, "%s.%d" % (spans_path, dumps[0]))

        signal.signal(signal.SIGUSR1, on_usr1)
    import vroverlay.cli

    try:
        return vroverlay.cli.main(cli_args)
    finally:
        if tracer is not None:
            _dump(tracer, spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
