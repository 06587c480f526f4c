"""Spans around the public functions of every slocc module, from outside.

`Tracer.install` replaces each public function at every binding a caller
looks up (the defining module, every module that imported it by name, and
the package namespace), so `slocc.convert.is_separable` and
`slocc.separability.is_separable` are both wrapped and report under the
defining module's name.  The wrappers live in the benchmark process only;
`uninstall` restores the originals.  Spans are kept in memory as
[name, start, end, parent, op, extra] lists.
"""

import importlib
import inspect
import time

MODULES = ("bell", "choi", "cli", "convert", "normal_form", "numerics",
           "separability", "symmetric")


def _filter_extra(result):
    return (result.iterations, result.converged)


def _outside(result):
    return type(result).__name__ == "Outside"


def _convertible(result):
    return result.convertible


# Per-call facts read off a function's result.
EXTRA = {
    "normal_form.filter_iteration": _filter_extra,
    "numerics.convex_membership": _outside,
    "convert.can_convert_bd": _convertible,
}


def public_functions(package):
    """{function object: "<module>.<name>"} for each module's own functions."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"{package.__name__}.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or inspect.isclass(obj) \
                    or not callable(obj) \
                    or getattr(obj, "__module__", None) != mod.__name__:
                continue
            out[obj] = f"{short}.{name}"
    return out


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = public_functions(package)
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRA.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        wrappers = {fn: self._wrap(fn, name)
                    for fn, name in self.names.items()}
        mods = [self.package] + [importlib.import_module(
            f"{self.package.__name__}.{m}") for m in MODULES]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                try:
                    w = wrappers.get(obj)
                except TypeError:      # unhashable module attribute
                    continue
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved = []

    def begin_op(self, op, label):
        """Open the root span of one request; its self time is unaccounted."""
        self.op = op
        rec = [f"op.{label}", 0.0, 0.0, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()

    def end_op(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self.op = None


def span_cost(n=20000):
    """Seconds a wrapper adds to one call, from a wrapped no-op."""
    def noop():
        return None
    tracer = Tracer.__new__(Tracer)
    tracer.spans, tracer._stack, tracer.op = [], [], None
    wrapped = tracer._wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def aggregate(spans, scale):
    """Per-function totals over the spans of the ops in `scale`.

    Each span's duration is multiplied by `scale[op]` (the reference factor
    of its request).
    Returns ({name: {"calls", "total", "self", and per call "durations",
    "extras", "parents", "below" (descendant spans)}}, {"wall",
    "unaccounted"}) with times in scaled seconds.
    """
    child = [0.0] * len(spans)
    below = [0] * len(spans)        # descendant spans, for overhead estimates
    for k in range(len(spans) - 1, -1, -1):
        parent = spans[k][3]
        if parent >= 0 and spans[k][4] in scale:
            child[parent] += (spans[k][2] - spans[k][1]) * scale[spans[k][4]]
            below[parent] += 1 + below[k]
    per, wall, unaccounted = {}, 0.0, 0.0
    for k, rec in enumerate(spans):
        if rec[4] not in scale:
            continue
        dur = (rec[2] - rec[1]) * scale[rec[4]]
        if rec[0].startswith("op."):
            wall += dur
            unaccounted += dur - child[k]
            continue
        s = per.setdefault(rec[0], {"calls": 0, "total": 0.0, "self": 0.0,
                                    "durations": [], "extras": [],
                                    "parents": [], "below": []})
        s["calls"] += 1
        s["total"] += dur
        s["self"] += dur - child[k]
        s["durations"].append(dur)
        s["extras"].append(rec[5])
        s["parents"].append(spans[rec[3]][0] if rec[3] >= 0 else None)
        s["below"].append(below[k])
    return per, {"wall": wall, "unaccounted": unaccounted}
