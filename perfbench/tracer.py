"""Per-layer tracing of lyalg from outside the package.

A Tracer wraps a list of public functions, named ``module.function`` or
``module.Class.method`` relative to the ``lyalg`` package.  A module-level
function is replaced at every ``lyalg`` module attribute that binds it,
because ``from .fastnum import jacobi_violation`` copies the binding into
the importing module; a method is replaced on its class.  Each call opens
a span (name, parent span, start, end) kept in memory; self time is a
span's duration minus the durations of its direct children.  Counters
add a number computed from a call's arguments or result to a named
total.  ``uninstall`` puts every original binding back.

A listed name the package no longer has is recorded in ``absent``
rather than raising, so the benchmark keeps working when a later change
deletes a function.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "lyalg"


class Tracer:
    def __init__(self, names, counters=None):
        """names: functions to wrap; counters: {counter name: (function
        name, fn(args, kwargs, result) -> int)}."""
        self.names = list(names)
        self.counters = dict(counters or {})
        self.absent: list[str] = []
        self.spans: list[list] = []       # [name, parent id, start, end]
        self.totals = {c: 0 for c in self.counters}
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (owner, attribute, original)

    def _resolve(self, name):
        """(owner, attribute, original) for each binding of `name`."""
        mod, *path = name.split(".")
        try:
            module = importlib.import_module("%s.%s" % (PACKAGE, mod))
        except ImportError:
            return []
        if len(path) == 2:
            cls = getattr(module, path[0], None)
            if not isinstance(cls, type) or path[1] not in vars(cls):
                return []
            return [(cls, path[1], vars(cls)[path[1]])]
        original = getattr(module, path[0], None)
        if original is None:
            return []
        return [(m, attr, val)
                for mname, m in sorted(sys.modules.items())
                if m is not None and (mname == PACKAGE or mname.startswith(PACKAGE + "."))
                for attr, val in list(vars(m).items()) if val is original]

    def _wrap(self, name, fn):
        hooks = [(c, f) for c, (target, f) in self.counters.items() if target == name]
        spans, stack, totals = self.spans, self._stack, self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, perf_counter(), None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            for counter, f in hooks:
                totals[counter] += f(args, kwargs, result)
            return result
        return traced

    def install(self):
        for name in self.names:
            bindings = self._resolve(name)
            if not bindings:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, bindings[0][2])
            for owner, attr, original in bindings:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """{name: {"calls", "self_s", "incl_s"}} for every present name.

        incl_s counts each outermost call once, so a recursive function's
        nested calls are not added twice.
        """
        out = {n: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
               for n in self.names if n not in self.absent}
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (name, parent, start, end) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[sid]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                row["incl_s"] += end - start
        return out
