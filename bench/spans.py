"""Span recorder for the benchmark's traced run.

The recorder wraps the public functions and class methods of each
``weakhopf`` layer module at its defining module, and rebinds every copy a
layer module took with ``from .x import name``.  Function-local imports and
``la.<fn>`` calls look the name up in the module at call time, so patching
the module covers them.  Each call becomes a span (name, layer, start, end,
parent, peak bytes); spans stay in memory until the run writes them out.

Peak bytes come from ``tracemalloc``, which sees numpy's allocations.  A
span's peak is the highest traced total seen while it ran, minus the traced
total at its start; nested spans hand their peak up to the parent, so one
``tracemalloc.reset_peak`` per boundary keeps every level exact.
"""

import functools
import inspect
import time
import tracemalloc

# weakhopf module -> layer name used in the metric names
LAYERS = {
    "weakhopf.cli": "cli",
    "weakhopf.serialize": "serialize",
    "weakhopf.tower": "tower",
    "weakhopf.crossed": "crossed",
    "weakhopf.modules": "modules",
    "weakhopf.integrals": "integrals",
    "weakhopf.hopf": "hopf",
    "weakhopf.algebra": "algebra",
    "weakhopf._linalg": "linalg",
}

MB = float(1 << 20)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "peak", "base")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.peak = self.base = 0


class Recorder:
    """Collects spans and counters while installed.

    ``probes`` maps a qualified name (``"crossed.crossed_product"``) to a
    callable ``probe(recorder, args, kwargs, result)`` that updates
    ``recorder.counters`` after each successful call.
    """

    def __init__(self, probes=None):
        self.spans = []
        self.stack = []
        self.counters = {}
        self.overhead_s = 0.0
        self.probes = dict(probes or {})
        self._undo = []

    # -- counters ---------------------------------------------------------
    def bump(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def keep_max(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    # -- spans --------------------------------------------------------------
    def _enter(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        cur, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()
        span = Span(name, layer, parent)
        span.base = span.peak = cur
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _exit(self, span):
        span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        self.stack.pop()
        if span.parent is not None:
            span.parent.peak = max(span.parent.peak, span.peak)

    def span(self, name, layer, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; used for the benchmark's
        own op roots and by every wrapper."""
        t0 = time.perf_counter()
        sp = self._enter(name, layer)
        sp.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter()
            self._exit(sp)
            self.overhead_s += (sp.start - t0) + (time.perf_counter() - sp.end)

    def wrap(self, fn, name, layer):
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, layer, fn, *args, **kwargs)
            if probe is not None:
                t0 = time.perf_counter()
                probe(self, args, kwargs, result)
                self.overhead_s += time.perf_counter() - t0
            return result

        return traced

    # -- patching -------------------------------------------------------------
    def patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules):
        """Wrap the public names of each module in ``modules`` (a dict
        module name -> module object, layer modules and any module that
        re-exports their names)."""
        wrapped = {}          # id(original) -> wrapper
        for modname, layer in LAYERS.items():
            mod = modules[modname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    w = self.wrap(obj, f"{layer}.{attr}", layer)
                    wrapped[id(obj)] = w
                    self.patch(mod, attr, w)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not inspect.isfunction(meth):
                            continue
                        if mname.startswith("_") and mname != "__init__":
                            continue
                        w = self.wrap(meth, f"{layer}.{attr}.{mname}", layer)
                        self.patch(obj, mname, w)
        # copies bound by `from .x import name` in other modules
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and vars(mod)[attr] is not w:
                    self.patch(mod, attr, w)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------
    def self_times(self):
        """Duration minus the durations of direct children, per span."""
        child = {}
        for sp in self.spans:
            if sp.parent is not None:
                child[id(sp.parent)] = child.get(id(sp.parent), 0.0) + (sp.end - sp.start)
        return [(sp, (sp.end - sp.start) - child.get(id(sp), 0.0)) for sp in self.spans]

    def layer_totals(self):
        """{layer: (calls, self_s, peak_mb)} over all recorded spans."""
        out = {}
        for sp, self_s in self.self_times():
            calls, tot, peak = out.get(sp.layer, (0, 0.0, 0.0))
            out[sp.layer] = (calls + 1, tot + self_s,
                             max(peak, (sp.peak - sp.base) / MB))
        return out

    def dump(self):
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": sp.name, "layer": sp.layer,
                 "start": sp.start - t0, "end": sp.end - t0,
                 "parent": index.get(id(sp.parent)),
                 "peak_mb": (sp.peak - sp.base) / MB} for sp in self.spans]


def selftest():
    """Check the recorder on throwaway modules laid out like the package:
    wrapped functions and methods return what the originals return,
    exceptions pass through with their spans closed, a peak is seen where
    memory is allocated, and the self times of a span tree sum to its
    root's duration.  Returns a list of problems (empty when sound)."""
    import types

    import numpy as np

    problems = []
    mods = {name: types.ModuleType(name) for name in LAYERS}
    la, alg, hopf, cli = (mods["weakhopf._linalg"], mods["weakhopf.algebra"],
                          mods["weakhopf.hopf"], mods["weakhopf.cli"])

    def leaf(x):                       # allocates 8 MB while it runs
        big = np.ones((1 << 20,))
        return np.cumsum(np.arange(x, dtype=float) ** 2) + big[:x].sum()

    class Table:
        def __init__(self, x):
            self.x = x

        def rows(self):
            return [la.leaf(self.x), la.leaf(self.x + 1)]

    def top(x):
        out = alg.Table(x).rows()      # resolved through the module
        out.append(np.ones(1000) * x)
        return out

    def fails():
        raise KeyError("expected")

    for obj, mod in ((leaf, la), (Table, alg), (top, hopf), (fails, hopf)):
        obj.__module__ = mod.__name__
        setattr(mod, obj.__name__, obj)
    cli.top = top                      # as if bound by `from .hopf import top`

    expected = top(7)
    started = tracemalloc.is_tracing()
    if not started:
        tracemalloc.start()
    rec = Recorder().install(mods)
    try:
        got = cli.top(7)
        try:
            hopf.fails()
            problems.append("wrapped function swallowed its exception")
        except KeyError:
            pass
    finally:
        rec.uninstall()
        if not started:
            tracemalloc.stop()
    if len(got) != len(expected) or not all(
            np.array_equal(a, b) for a, b in zip(got, expected)):
        problems.append("wrapped function changed its result")
    if cli.top is not top or hopf.top is not top or la.leaf is not leaf \
            or any(hasattr(m, "__wrapped__") for m in vars(Table).values()):
        problems.append("uninstall left a wrapper behind")
    if rec.stack:
        problems.append("span stack not empty after an exception")
    names = [sp.name for sp in rec.spans]
    if names != ["hopf.top", "algebra.Table.__init__", "algebra.Table.rows",
                 "linalg.leaf", "linalg.leaf", "hopf.fails"]:
        problems.append(f"unexpected span sequence {names}")
    else:
        peaks = [(sp.peak - sp.base) / MB for sp in rec.spans]
        if min(peaks[3], peaks[0]) < 7.9:
            problems.append(f"allocation peak not seen: {peaks}")
    root = rec.spans[0]
    tree = [s for sp, s in rec.self_times() if sp is root or _under(sp, root)]
    if abs(sum(tree) - (root.end - root.start)) > 1e-9:
        problems.append("self times do not sum to the root duration")
    if min(s for _, s in rec.self_times()) < 0:
        problems.append("negative self time")
    return problems


def _under(sp, root):
    p = sp.parent
    while p is not None:
        if p is root:
            return True
        p = p.parent
    return False
