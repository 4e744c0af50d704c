"""Spans around the calls into the program's layers, recorded from outside.

install() wraps every public function of the traced modules, and every
public method of their public classes, and rebinds each wrapper in every
susywkb module (and the package itself) that bound the original at import,
so that `from .swkb import turning_points` in numerov is counted too.
Spans (name, start, end, parent, operation), timed on calibrate.clock (CPU
seconds), stay in memory until write().
Calls of COUNT_ONLY names, leaf tests made some hundred thousand times a
round, are counted without a span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys

from calibrate import clock

MODULES = ("catalog", "cpoly", "swkb", "branch", "contours", "numerov")
COUNT_ONLY = frozenset({"branch.PathPlanner.edge_clear"})


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, operation]
        self.counts = {}       # COUNT_ONLY name -> calls
        self._stack = []
        self.operation = -1    # index of the benchmark operation running
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._count(name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0,
                          stack[-1] if stack else -1, self.operation])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package):
        """Wrap the public names of package's traced modules."""
        mods = [m for k, m in sys.modules.items()
                if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for short in MODULES:
            mod = getattr(package, short)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                    for m in mods:
                        for k, v in list(vars(m).items()):
                            if v is obj:
                                self._set(m, k, wrapper, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        self._set(obj, meth,
                                  self._wrap(f"{short}.{attr}.{meth}", fn), fn)

    def _set(self, owner, attr, new, old):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds), where the seconds of a
        call nested inside a call of the same name are not counted twice;
        per module: self seconds, its time minus its calls into other
        modules."""
        spans = self.spans
        calls, secs, self_s = dict(self.counts), {}, {}
        for name, t0, t1, parent, _ in spans:
            calls[name] = calls.get(name, 0) + 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                secs[name] = secs.get(name, 0.0) + (t1 - t0)
            mod = name.split(".", 1)[0]
            pmod = spans[parent][0].split(".", 1)[0] if parent >= 0 else None
            if pmod != mod:
                self_s[mod] = self_s.get(mod, 0.0) + (t1 - t0)
                if pmod is not None:
                    self_s[pmod] = self_s.get(pmod, 0.0) - (t1 - t0)
        return calls, secs, self_s

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "counts": self.counts,
                       "fields": ["name", "start", "end", "parent",
                                  "operation"],
                       "spans": self.spans}, fh)
