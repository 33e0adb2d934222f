"""In-memory span tracer around attlab's public functions.

``Tracer.install`` wraps every public module-level function of the layer
modules and rebinds the wrapper under every name an ``attlab`` module
resolves it by (``attlab.harness.train`` as well as
``attlab.convnet.train``), so calls across modules and within a module
are both seen. Each call records a span: name, start, end, parent span and
invocation id, kept in flat arrays until ``write`` saves them. Nothing
under ``src/`` is modified; ``uninstall`` restores the original bindings.
"""

import array
import collections
import importlib
import inspect
import json
import os
import sys
import time

# Layer modules in dependency order. ``cases`` only does constant-time
# lookups, so it is not wrapped and gets no metric.
LAYERS = ("rotations", "refmodels", "synth", "passlog", "features", "triad",
          "convnet", "harness", "cli")


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _passlog_read(counters, result, args, kwargs):
    from attlab.passlog import manifest_path_for

    path = str(args[0] if args else kwargs["csv_path"])
    counters["passlog.bytes_read"] += _file_bytes(path, manifest_path_for(path))


def _passlog_write(counters, result, args, kwargs):
    counters["passlog.bytes_written"] += _file_bytes(*result)


def _windows(counters, result, args, kwargs):
    counters["features.windows"] += len(result)


def _triad_eval(counters, result, args, kwargs):
    counters["triad.solved"] += result.solved_steps
    counters["triad.skipped"] += result.skipped_steps


def _train(counters, result, args, kwargs):
    history = result[1]
    counters["convnet.epochs"] += len(history.rows)
    counters["convnet.divergences"] += history.divergence_count


# Counts taken at the layer boundary from a call's arguments and result.
OBSERVERS = {
    "passlog.read_passlog": _passlog_read,
    "passlog.write_passlog": _passlog_write,
    "features.build_windows": _windows,
    "triad.triad_pass_eval": _triad_eval,
    "convnet.train": _train,
}


class Tracer:
    def __init__(self):
        self.names = []  # name id -> "layer.function"
        self.name_id = array.array("i")
        self.parent = array.array("i")  # -1 for a root span
        self.invocation = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = collections.Counter()
        self.current_invocation = 0
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def __len__(self):
        return len(self.start)

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.invocation.append(tracer.current_invocation)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, result, args, kwargs)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, package="attlab"):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def span_name(self, i):
        return self.names[self.name_id[i]]

    def write(self, path):
        """Save every span as one JSON line (name, start, end, parent, invocation)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w") as f:
            for i in range(len(self)):
                f.write(json.dumps([i, self.span_name(i), self.start[i] - t0,
                                    self.end[i] - t0, self.parent[i],
                                    self.invocation[i]]) + "\n")
        return path


def self_times(start, end, parent):
    """Per span: duration minus the part of its interval its children cover.

    Child intervals are clipped to the parent's and overlaps between
    children are counted once.
    """
    kids = collections.defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, children in kids.items():
        lo_p, hi_p = start[p], end[p]
        ivs = sorted((max(start[k], lo_p), min(end[k], hi_p)) for k in children)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out
