"""Per-layer counters and span times, taken from outside the program.

``Tracer.install`` replaces every public function of each
``dilemma`` module, and every public method of the classes defined
there, with a wrapper; it rebinds every module-level name that refers
to the original, so calls made through ``from .x import f`` are seen
too.  The program's sources are not touched.

Each wrapped call is a span.  A span's total time is its wall time; its
self time is the total minus the time of the spans it encloses.  A
generator's span covers each step it runs for its consumer, and its
yields are counted.  Hot leaf calls are counted but not timed, because
a clock read per call would cost more than the call: the functions of
``dilemma.tables`` and the methods named in ``COUNT_ONLY``.  Their time
stays in the self time of the span that calls them.
"""

import functools
import inspect
import sys
import time
from enum import Enum

COUNT_ONLY_MODULES = ("tables",)
COUNT_ONLY = ("poset.Poset.leq", "poset.Poset.comparable",
              "rules.DecisionRule.decides")

# (metric, unit, better, key, field).  The key names one function, or a
# tuple of functions whose fields add up; "cli" stands for every
# function of dilemma.cli.  ms and count metrics are per query.
LAYER_METRICS = (
    ("rules.from_tables.self_ms", "ms", "lower", "rules.DecisionRule.from_tables", "self_ms"),
    ("rules.from_tables.calls", "count", "lower", "rules.DecisionRule.from_tables", "calls"),
    ("poset.leq.calls", "count", "lower", "poset.Poset.leq", "calls"),
    ("optimal.optimal_rule.self_ms", "ms", "lower", "optimal.optimal_rule", "self_ms"),
    ("cli.self_ms", "ms", "lower", "cli", "self_ms"),
    ("poset.minimal_elements.ms", "ms", "lower", "poset.Poset.minimal_elements", "ms"),
    ("poset.upper_set.calls", "count", "lower", "poset.Poset.upper_set", "calls"),
    ("poset.upper_set.ms", "ms", "lower", "poset.Poset.upper_set", "ms"),
    ("poset.antichains.yielded", "count", "lower", "poset.Poset.antichains", "yielded"),
    ("poset.antichains.ms", "ms", "lower", "poset.Poset.antichains", "ms"),
    ("ranking.rank_rules.self_ms", "ms", "lower", "ranking.rank_rules", "self_ms"),
    ("optimal.classical_rule.calls", "count", "lower", "optimal.classical_rule", "calls"),
    ("optimal.classical_rule.ms", "ms", "lower", "optimal.classical_rule", "ms"),
    ("probability.table_law.calls", "count", "lower", "probability.table_law", "calls"),
    ("probability.table_law.ms", "ms", "lower", "probability.table_law", "ms"),
    ("probability.mass.ms", "ms", "lower",
     ("probability.positive_mass", "probability.negative_mass"), "self_ms"),
    ("montecarlo.simulate.ms", "ms", "lower", "montecarlo.simulate", "ms"),
)


class Tracer:
    """Aggregated spans of one process: key -> calls, time, self time, yields."""

    def __init__(self):
        self._stats = {}
        # one accumulator per open span for the time of its child spans;
        # the bottom entry collects time spent outside any span
        self._child = [0.0]

    def _stat(self, key):
        return self._stats.setdefault(key, [0, 0.0, 0.0, 0])

    def _counted(self, key, f):
        st = self._stat(key)

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            st[0] += 1
            return f(*args, **kwargs)
        return wrapper

    def _timed(self, key, f):
        st = self._stat(key)
        child = self._child
        clock = time.perf_counter

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            st[0] += 1
            child.append(0.0)
            t0 = clock()
            try:
                return f(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[1] += dt
                st[2] += dt - child.pop()
                child[-1] += dt
        return wrapper

    def _generator(self, key, f):
        st = self._stat(key)
        child = self._child
        clock = time.perf_counter

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            st[0] += 1
            gen = f(*args, **kwargs)
            while True:
                child.append(0.0)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    st[1] += dt
                    st[2] += dt - child.pop()
                    child[-1] += dt
                st[3] += 1
                yield item
        return wrapper

    def _wrap(self, key, f):
        if key.split(".")[0] in COUNT_ONLY_MODULES or key in COUNT_ONLY:
            return self._counted(key, f)
        if inspect.isgeneratorfunction(f):
            return self._generator(key, f)
        return self._timed(key, f)

    def install(self, package="dilemma"):
        """Wrap the public callables of every loaded module of the package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        replaced = {}
        for mod in modules:
            short = mod.__name__[len(package) + 1:]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, (BaseException, Enum)):
                        self._wrap_methods(f"{short}.{name}", obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_methods(self, prefix, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{prefix}.{name}"
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(key, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(key, raw))

    def summary(self):
        """key -> {calls, ms, self_ms, yielded}, totals over the whole run."""
        return {key: {"calls": c, "ms": t * 1e3, "self_ms": s * 1e3, "yielded": y}
                for key, (c, t, s, y) in sorted(self._stats.items()) if c}


def layer_metrics(functions, queries, trials_per_simulate):
    """The per-query layer figures of LAYER_METRICS from a summary."""
    def total(key, field):
        if key == "cli":
            return sum(v[field] for k, v in functions.items() if k.startswith("cli."))
        keys = key if isinstance(key, tuple) else (key,)
        return sum(functions.get(k, {}).get(field, 0) for k in keys)

    out = {name: total(key, field) / queries
           for name, _, _, key, field in LAYER_METRICS}
    sim = functions.get("montecarlo.simulate")
    out["montecarlo.trials_per_s"] = (
        sim["calls"] * trials_per_simulate / (sim["ms"] / 1e3) if sim else 0.0)
    return out
