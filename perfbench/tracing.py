"""Per-layer tracing by wrapping cfr's public functions from outside.

install() replaces every public module-level function of the cfr modules,
plus a few methods, with a timing wrapper.  The replacement is made on the
defining module and on every cfr module that imported the same object by
name, so calls through `from .geometry import rho` are traced too.  Nothing
in cfr is edited; uninstall() puts the originals back.

Each call adds to its function's call count and self time (its duration
minus the time of traced calls nested in it).  Calls of coarse functions also keep a span
(id, op, name, start, end, parent) in memory; very frequent ones only add to
counters.  Spans are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

LAYERS = ("geometry", "indicators", "infinity", "symmetric", "shock", "linsys",
          "reconstruct", "green", "genus", "oracles", "cli")

# (class path, method, traced name)
METHODS = (("shock.BiSeries", "__mul__", "shock.BiSeries.mul"),
           ("green.CurveModel", "z2_of", "green.CurveModel.z2_of"))

# Called thousands of times per operation: counters only, no span objects.
COUNTER_ONLY = {"indicators.G_k", "geometry.chordal", "geometry.m_of_y", "geometry.rho",
                "geometry.in_Z", "geometry.line_eval", "reconstruct.chordal_distance",
                "reconstruct.N_Qk", "shock.BiSeries.mul", "linsys.coeff_c0",
                "genus.lambda_flat", "genus.lambda_fubini_study", "genus.hstar"}
COUNTER_ONLY_LAYERS = {"symmetric"}
# The CLI is traced at its entry point only, so the self time of cli.main
# holds argument parsing, report and cloud serialization and file I/O.
ENTRY_POINTS_ONLY = {"cli": {"main"}}

MAX_SPANS = 400_000


class Tracer:
    def __init__(self):
        self.stats = {}        # name -> [calls, self_s]
        self.spans = []        # (id, op, name, start, end, parent)
        self.dropped = 0
        self.nodes = 0         # quadrature nodes handed to CurveModel.z2_of
        self.op = -1           # index of the benchmark operation in flight
        self._stack = []       # frames [span id for children, nested time]
        self._next_id = 0
        self._undo = []

    # -- wrapping -----------------------------------------------------------------

    def _wrapper(self, name, fn, keep_span):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        count_nodes = name == "green.CurveModel.z2_of"
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            frame = [stack[-1][0] if stack else None, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += d - frame[1]
                if stack:
                    stack[-1][1] += d

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            if count_nodes:
                self.nodes += int(np.size(args[1]))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, self.op, name, t0, t1, parent))
                else:
                    self.dropped += 1

        return traced if keep_span else counted

    def install(self, cfr_modules):
        """Wrap public functions of each module in cfr_modules (name -> module)."""
        replaced = {}
        for layer in LAYERS:
            mod = cfr_modules[layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr in ENTRY_POINTS_ONLY.get(layer, (attr,))):
                    name = f"{layer}.{attr}"
                    keep = name not in COUNTER_ONLY and layer not in COUNTER_ONLY_LAYERS
                    replaced[id(obj)] = (obj, self._wrapper(name, obj, keep))
        for mod in cfr_modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._set(mod, attr, replaced[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced and replaced[id(val)][0] is val:
                            self._set_item(obj, key, replaced[id(val)][1])
        for path, meth, name in METHODS:
            layer, cls_name = path.split(".")
            cls = getattr(cfr_modules[layer], cls_name)
            self._set(cls, meth, self._wrapper(name, vars(cls)[meth], name not in COUNTER_ONLY))

    def _set(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, d, key, value):
        self._undo.append((dict.__setitem__, d, key, d[key]))
        d[key] = value

    def uninstall(self):
        for setter, owner, key, old in reversed(self._undo):
            setter(owner, key, old)
        self._undo.clear()

    # -- results --------------------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name):
        return self.stats.get(name, [0, 0.0])[1]

    def layer_self_s(self, layer):
        return sum(s[1] for n, s in self.stats.items() if n.split(".")[0] == layer)

    def top_level_s(self):
        """Time inside outermost traced calls: the sum of all self times."""
        return sum(s[1] for s in self.stats.values())

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "dropped_spans": self.dropped,
                                 "fields": ["id", "op", "name", "start", "end", "parent"]})
                     + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
