"""Spans and counts at hlkit's layer boundaries, recorded from outside.

``Tracer.install`` rebinds the public functions of every hlkit module,
and the arithmetic and public methods of its classes, to timing
wrappers.  A function is rebound in every module namespace that holds
it (so ``from .tableaux import charge`` elsewhere is covered) and a
method under every class attribute that holds it (``__radd__`` is
``__add__``).  ``uninstall`` puts the originals back.

Each call records a span (name, start, end, parent) in flat arrays kept
in memory, plus per-name call counts and self time: the span's duration
minus the part covered by its child spans.  A few calls also count
what they produce (XPoly terms, tableaux, layer chains).
"""

from __future__ import annotations

import gzip
import json
import time
import types
from array import array

# Class attributes traced besides the public methods.
TRACED_DUNDERS = {
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__pow__",
    "__str__",
}
TRACED_INITS = {"XPoly"}
# A per-variable sort key that would cost more to trace than it runs.
UNTRACED = {"xpoly.var_key"}
OUTPUT_COUNTS = ("xpoly.terms_out", "tableaux.ssyt_yielded", "tableaux.layer_chains.chains")


def _unwrap(obj):
    return obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj


class Tracer:
    def __init__(self, mods, layers):
        self.mods = mods
        self.names = []  # span name id -> "layer.function"
        self.layer_of = []
        self._plan = []  # (name id, class or None, attribute, original)
        self._saved = []  # (namespace, attribute, original) to restore
        for layer in layers:
            self._plan_module(layer, mods[layer])
        self.op_sid = self._sid("bench.op", "bench")

        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.counts = dict.fromkeys(OUTPUT_COUNTS, 0)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # open span indices
        self._child = []  # time covered by children, per open span
        self._op = self._wrap(lambda run: run(), self.op_sid)

    def _sid(self, name, layer):
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _plan_module(self, layer, mod):
        for attr, obj in sorted(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                self._plan_class(layer, obj)
            elif callable(obj) and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                if name not in UNTRACED:
                    self._plan.append((self._sid(name, layer), None, attr, obj))

    def _plan_class(self, layer, cls):
        for attr, obj in sorted(vars(cls).items()):
            wanted = (
                not attr.startswith("_")
                or attr in TRACED_DUNDERS
                or (attr == "__init__" and cls.__name__ in TRACED_INITS)
            )
            fn = _unwrap(obj)
            if wanted and isinstance(fn, types.FunctionType):
                name = f"{layer}.{fn.__name__.strip('_')}"
                self._plan.append((self._sid(name, layer), cls, attr, obj))

    # -- install / uninstall --------------------------------------------

    def install(self):
        wrappers = {}
        for sid, cls, attr, obj in self._plan:
            fn = _unwrap(obj)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, sid)
            w = wrappers[id(fn)]
            if cls is not None:
                if isinstance(obj, (classmethod, staticmethod)):
                    w = type(obj)(w)
                self._saved.append((cls, attr, obj))
                setattr(cls, attr, w)
                continue
            for mod in self.mods.values():
                for a, v in list(vars(mod).items()):
                    if v is obj:
                        self._saved.append((mod, a, obj))
                        setattr(mod, a, w)
        self.reset()

    def uninstall(self):
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved = []

    def reset(self):
        """Forget spans and counts, keeping the arrays in place."""
        n = len(self.names)
        self.calls[:] = [0] * n
        self.self_s[:] = [0.0] * n
        for k in self.counts:
            self.counts[k] = 0
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]

    # -- the wrapper ---------------------------------------------------

    def _post(self, sid):
        """Counter update for calls whose output size is counted, or None."""
        name, counts = self.names[sid], self.counts
        if name == "xpoly.init":
            def post(args, out, parent):
                counts["xpoly.terms_out"] += len(args[0].terms)
        elif name == "tableaux.enumerate_ssyt":
            def post(args, out, parent):
                counts["tableaux.ssyt_yielded"] += len(out)
        elif name == "tableaux.layer_chains":
            def post(args, out, parent):
                if parent != sid:  # outermost call of the recursion
                    counts["tableaux.layer_chains.chains"] += len(out)
        else:
            return None
        return post

    def _wrap(self, fn, sid):
        perf = time.perf_counter
        stack, child = self._stack, self._child
        calls, self_s = self.calls, self.self_s
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        post = self._post(sid)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                self_s[sid] += d - child.pop()
                calls[sid] += 1
                if child:
                    child[-1] += d
                starts[idx] = t0
                ends[idx] = t1
            if post is not None:
                post(args, out, names[stack[-1]] if stack else -1)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def op(self, run):
        """Run one benchmark operation under a root span; its spans share
        the root's index as request identifier."""
        return self._op(run)

    # -- results ---------------------------------------------------------

    def layer_self_s(self):
        out = {}
        for sid, s in enumerate(self.self_s):
            layer = self.layer_of[sid]
            out[layer] = out.get(layer, 0.0) + s
        return out

    def by_name(self):
        """{span name: (calls, self seconds)} for names that were called."""
        return {
            self.names[sid]: (c, self.self_s[sid])
            for sid, c in enumerate(self.calls)
            if c
        }

    def write_spans(self, path):
        """Write the recorded spans, gzipped: a JSON header with the span
        names, then one line "index name_id start end parent_index" per
        span in order of entry (times in seconds of ``time.perf_counter``,
        parent -1 for a root)."""
        rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            fh.writelines(
                f"{i} {sid} {t0!r} {t1!r} {parent}\n"
                for i, (sid, t0, t1, parent) in enumerate(rows)
            )
