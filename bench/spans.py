"""Span recording from outside the program: wrap each layer's public calls.

`Tracer.install()` replaces every public function and every public method
of a public class in the traced `vroverlay` modules with a timing wrapper,
then rebinds every module attribute that still points at an original, so
names imported with `from .x import f` are traced as well. Nothing in the
program changes; uninstalled, the benchmark measures the untouched code.

Each wrapper records, per function, the call count, the inclusive time and
the self time (inclusive minus the time of nested traced calls). Stacks
and counters are per thread, so the threaded daemons need no lock on the
hot path; `snapshot()` merges them.
"""
import functools
import importlib
import inspect
import sys
import threading
from time import perf_counter_ns

# A span's layer is the first name under `vroverlay`: `sim.core.EventLoop.run_until`
# belongs to layer `sim`.
TRACED_MODULES = (
    "vroverlay.model",
    "vroverlay.wire",
    "vroverlay.reflector",
    "vroverlay.registry",
    "vroverlay.monitor",
    "vroverlay.quality",
    "vroverlay.optimizer",
    "vroverlay.supervisor",
    "vroverlay.sim.core",
    "vroverlay.sim.scenario",
    "vroverlay.sim.harness",
    "vroverlay.daemon",
    "vroverlay.cli",
)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._per_thread = []   # one {name: [calls, total_ns, self_ns]} per thread
        self._originals = {}    # id(original) -> wrapper
        self.instances = {}     # class name -> live instances created while installed

    def _state(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            local.stack = []
            local.stats = {}
            self._per_thread.append(local.stats)
            return local.stack, local.stats

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats = tracer._state()
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - nested

        self._originals[id(fn)] = traced
        return traced

    def install(self, track=("MetricStore", "ReflectorEngine")):
        """Wrap the traced modules' public calls; remember instances of `track`."""
        for module_name in TRACED_MODULES:
            module = importlib.import_module(module_name)
            short = module_name[len("vroverlay."):]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module_name:
                    setattr(module, attr, self.wrap("%s.%s" % (short, attr), value))
                elif inspect.isclass(value) and value.__module__ == module_name:
                    self._wrap_class(short, value, track)
        # Rebind names other modules imported from the traced ones.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("vroverlay"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._originals.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    setattr(module, attr, wrapper)

    def _wrap_class(self, short, cls, track):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            setattr(cls, attr, self.wrap("%s.%s.%s" % (short, cls.__name__, attr), value))
        if cls.__name__ in track:
            live = self.instances.setdefault(cls.__name__, [])
            init = cls.__init__

            @functools.wraps(init)
            def remembering_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                live.append(obj)

            cls.__init__ = remembering_init

    def reset(self):
        for stats in list(self._per_thread):
            stats.clear()

    def snapshot(self):
        """{name: [calls, total_ns, self_ns]} merged over threads."""
        merged = {}
        for stats in list(self._per_thread):
            for name, rec in list(stats.items()):
                acc = merged.setdefault(name, [0, 0, 0])
                for i in range(3):
                    acc[i] += rec[i]
        return merged


def diff(after, before):
    """Per-name difference of two snapshots."""
    out = {}
    for name, rec in after.items():
        base = before.get(name, (0, 0, 0))
        delta = [rec[i] - base[i] for i in range(3)]
        if delta[0]:
            out[name] = delta
    return out


def merge(*snapshots):
    out = {}
    for snap in snapshots:
        for name, rec in snap.items():
            acc = out.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += rec[i]
    return out


def layer_self_s(snap):
    """Self seconds per layer (`sim`, `reflector`, ...)."""
    out = {}
    for name, rec in snap.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + rec[2] / 1e9
    return out


def calls(snap, *names):
    return sum(snap.get(n, (0, 0, 0))[0] for n in names)


def total_s(snap, *names):
    return sum(snap.get(n, (0, 0, 0))[1] for n in names) / 1e9
