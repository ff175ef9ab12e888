"""Span tracing of balhyp's public functions, from outside the package.

A traced function is captured by rebinding it in every `balhyp.*`
namespace that holds it, because callers look names up in their own
module at call time (`run_ind` calls `balhyp.indep.is_balanced_independent`,
`residual` calls `balhyp.coloring.induced`).  A cached or plain property is
captured by wrapping its descriptor on the class.  A name that no longer
exists is reported as absent instead of failing, so the benchmark outlives
refactors that rename or remove a layer.

Spans stay in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

LAYERS = {
    "core": (
        "parse_khg",
        "emit_khg",
        "validate",
        "incidence",
        "is_balanced_independent",
        "is_proper_on_colored",
        "is_proper_balanced_coloring",
        "induced",
    ),
    "models": ("sample_hknp", "exists_balanced_is"),
    "indep": ("best_of_trials", "run_ind"),
    "coloring": ("full_coloring", "col_random_phase", "rebalance", "residual"),
    "matching": ("fallback_coloring", "find_pm_complement", "color_from_matching"),
    "experiments": ("run_experiment", "atomic_write_text"),
    "cli": ("main",),
    "rng": ("rng_for",),
}

NAMES = tuple(f"{mod}.{f}" for mod, fs in LAYERS.items() for f in fs)


class Tracer:
    """Records (name, caller, start, end, parent, job, child time) spans.

    `caller` is the short name of the module whose binding was called, so
    `rng.rng_for` spans tell which layer asked for a stream."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []
        self.absent = []

    def _wrap(self, name, caller, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[idx] = (name, caller, t0, t1, parent, self.job, frame[1])

        return traced

    def install(self):
        """Capture every layer function that exists; record the rest as absent."""
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "balhyp" or name.startswith("balhyp."))
        }
        self.absent = []
        for layer, names in self.layers.items():
            home = mods.get(f"balhyp.{layer}")
            for f in names:
                key = f"{layer}.{f}"
                orig = getattr(home, f, None) if home is not None else None
                if callable(orig):
                    for modname, mod in mods.items():
                        caller = modname.rpartition(".")[2]
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                self._patches.append((mod, attr, val))
                                setattr(mod, attr, self._wrap(key, caller, orig))
                elif home is None or not self._wrap_descriptor(home, layer, key, f):
                    self.absent.append(key)

    def _wrap_descriptor(self, home, layer, key, f):
        for cls in list(vars(home).values()):
            if not isinstance(cls, type) or f not in vars(cls):
                continue
            d = vars(cls)[f]
            if isinstance(d, functools.cached_property):
                new = functools.cached_property(self._wrap(key, layer, d.func))
                new.__set_name__(cls, f)
            elif isinstance(d, property):
                new = property(self._wrap(key, layer, d.fget))
            else:
                continue
            self._patches.append((cls, f, d))
            setattr(cls, f, new)
            return True
        return False

    def uninstall(self):
        for obj, attr, val in reversed(self._patches):
            setattr(obj, attr, val)
        self._patches = []

    def aggregate(self, jobs):
        """Per traced function: [calls, inclusive s, self s] over `jobs`."""
        stats = {name: [0, 0.0, 0.0] for name in NAMES}
        for name, _caller, t0, t1, _parent, job, child in self.spans:
            if job in jobs:
                st = stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += t1 - t0
                st[2] += t1 - t0 - child
        return stats

    def counts_by_job(self):
        """Exact call counts per job: every traced name, and rng_for by caller."""
        out = {}
        for name, caller, _t0, _t1, _parent, job, _child in self.spans:
            counts = out.setdefault(job, {})
            counts[name] = counts.get(name, 0) + 1
            if name == "rng.rng_for":
                key = f"rng.rng_for<{caller}"
                counts[key] = counts.get(key, 0) + 1
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, caller, t0, t1, parent, job, _child in self.spans:
                fh.write(json.dumps([name, caller, t0, t1, parent, job]) + "\n")
