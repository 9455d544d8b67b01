"""Span tracing from outside the library.

``install`` rebinds every public function of each layer module of ``kisin``
to a timing wrapper, in every ``kisin`` namespace that holds it, so that calls
between layers (``connectivity`` calling ``strata.enumerate_strata``, say) are
caught as well as calls from the benchmark.  Each call is a span (name, start,
end, parent).  Self time is a span's duration minus the time its direct
children cover, accumulated as the spans close.  Spans of at least
``KEEP_SPAN_S`` are also kept whole for the trace file; since a parent lasts at
least as long as its children, every kept span's parent is kept too.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("normal_form", "strata", "multicopy", "connectivity", "oracle", "cli")
KEEP_SPAN_S = 100e-6
# Spans whose outermost member is one datum construction.
DATUM_SPANS = frozenset(
    ("normal_form.make_datum", "normal_form.caruso_datum", "strata.central_twist")
)


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [span id, name, parent id, start, child time]
        self.next_id = 0
        self.kept = []  # (id, parent id, name, start, end)
        self.calls = Counter()
        self.incl = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.active = Counter()  # name -> open spans with that name
        self.datum_time = 0.0
        self.datum_builds = 0
        self.hooks = {
            "strata.enumerate_strata": self._on_enumerate,
            "connectivity.build_graph": self._on_graph,
            "connectivity.chain_gl3": self._on_chain,
            "oracle.coset_survey": self._on_survey,
            "oracle.kisin_points": self._on_points,
        }

    # -- spans --------------------------------------------------------------

    def enter(self, name):
        active = self.active
        if name == "normal_form.solve_affine_integral":
            if active["strata.enumerate_strata"]:
                self.counts["strata.candidates"] += 1
            if active["multicopy.unique_zero_stratum"]:
                self.counts["multicopy.lifted_candidates"] += 1
        elif name == "strata.natural_lambda" and active["strata.make_stratum"]:
            self.counts["strata.natural_lambda_in_make_stratum"] += 1
        elif name == "strata.enumerate_strata" and active["connectivity.chain_gl3"]:
            self.counts["connectivity.enumerations_in_chain"] += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [self.next_id, name, parent, perf_counter(), 0.0]
        self.next_id += 1
        active[name] += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame, result=None):
        end = perf_counter()
        span_id, name, parent, start, child = frame
        self.stack.pop()
        self.active[name] -= 1
        dur = end - start
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][4] += dur
        if name in DATUM_SPANS and not any(self.active[n] for n in DATUM_SPANS):
            self.datum_time += dur
            self.datum_builds += 1
        if dur >= KEEP_SPAN_S:
            self.kept.append((span_id, parent, name, start, end))
        hook = self.hooks.get(name)
        if hook is not None and result is not None:
            hook(result)

    def reset_counts(self):
        """Forget calls, times and counts so far (the set-up phase); kept
        spans and datum construction times stay."""
        for counter in (self.calls, self.incl, self.self_time, self.counts):
            counter.clear()

    @contextlib.contextmanager
    def span(self, name):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)

    # -- result counts ------------------------------------------------------

    def _on_enumerate(self, strata):
        self.counts["strata.kept"] += len(strata)

    def _on_graph(self, graph):
        self.counts["connectivity.edges"] += len(graph.edges)

    def _on_chain(self, result):
        self.counts["connectivity.chain_steps"] += len(result[1])

    def _on_survey(self, survey):
        self.counts["oracle.survey_rows"] += len(survey)

    def _on_points(self, points):
        self.counts["oracle.points"] += len(points)

    # -- output -------------------------------------------------------------

    def summary(self):
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
            "datum_s": self.datum_time,
            "datum_builds": self.datum_builds,
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["id", "parent", "name", "start_s", "end_s"],
                    "kept_span_min_s": KEEP_SPAN_S,
                    "spans_total": self.next_id,
                    "spans": self.kept,
                    "summary": self.summary(),
                },
                fh,
            )


def _wrap(tracer, fn, name):
    if inspect.isgeneratorfunction(fn):
        # a generator does its work while resumed: one span per resume
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.leave(frame)
                tracer.counts[name + ".yields"] += 1
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.leave(frame, result)

    return wrapper


def install(tracer):
    """Rebind the public functions (and the field class GF) of every layer."""
    import kisin

    modules = [importlib.import_module(f"kisin.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj) and attr != "GF":
                continue
            if callable(obj):
                wrappers[id(obj)] = _wrap(tracer, obj, f"{layer}.{attr}")
    for mod in [kisin, importlib.import_module("kisin.core")] + modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
    return len(wrappers)
