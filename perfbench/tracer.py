"""Layer tracer, installed from outside the engine and removed afterwards.

A span is recorded at each layer boundary: a call from one engine module
into a name that another module defines.  Such calls go through names a
module imported from another layer, through methods of the classes listed
in CLASSES, or through the entry points the benchmark and function-level
imports use.  A call that stays inside the current layer opens no span, so
the layer's count is the number of times work entered it.  Counters sit at
the points where the work happens (bases computed, span tests, minors), and
`arith` is counted but not timed: timing each polynomial operation would
cost more than the operation.

Spans are kept in memory as (name, layer, start, end, parent, op) and
written out when the run ends; a layer's self time is its spans' duration
minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import time
import types
import weakref
from collections import Counter, defaultdict
from importlib import import_module

LAYERS = ("arith", "groebner", "spectra", "modules", "complexes", "classify", "catalog", "verify", "cli")
TIMED = LAYERS[1:]

# Classes whose methods open a span when called from another layer.
CLASSES = {
    "groebner": ("Ideal", "SubmoduleGB"),
    "spectra": ("RingPres", "PrimeId", "SpecSubset"),
    "modules": ("ModulePres", "ModuleMap", "Resolution"),
    "complexes": ("ComplexHandle", "ComplexMap"),
}

# Functions also wrapped in their own module, because callers outside the
# engine's import graph reach them there: the benchmark's operations and
# `classify`'s function-level import of `enumerate_spec_closed_in`.
ENTRY_POINTS = {
    "cli": ("main",),
    "catalog": ("ring_from_json",),
    "modules": ("residue_field", "nonfree_locus", "minimalize"),
    "spectra": ("enumerate_spec_closed_in",),
}

# Top-level polynomial operations; an operation that calls another one
# (subtraction is addition of a negation) counts once.
POLY_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale", "mul_monomial")

COUNTS = (
    "arith.poly_ops",
    "arith.ring_eq_calls",
    "groebner.ideal_bases_computed",
    "groebner.module_bases_computed",
    "groebner.normal_forms",
    "groebner.span_tests",
    "groebner.syzygy_calls",
    "spectra.minors_evaluated",
    "modules.minimalize_calls",
    "modules.resolutions_built",
)
TIMES = (
    "groebner.gb_s",
    "groebner.span_test_s",
    "spectra.minors_s",
    "modules.nonfree_locus_s",
    "catalog.load_s",
)

_SKIP_METHODS = frozenset(("__repr__", "__str__"))


def _layer(module_name):
    prefix, _, leaf = (module_name or "").rpartition(".")
    return leaf if prefix == "thickloci" and leaf in LAYERS else None


def _order_key(order):
    inner = getattr(order, "inner", None)
    return (
        type(order).__name__,
        order.kind,
        order.precedence,
        getattr(order, "nelim", None),
        None if inner is None else _order_key(inner),
    )


def _ring_key(ring):
    """Identity of a polynomial ring by content; compares no engine objects,
    so keying adds nothing to the `arith` counts."""
    return (ring.field.char, ring.vars, _order_key(ring.order), ring.weights)


def _poly_key(p):
    return tuple(sorted(p.terms.items()))


def _matrix_key(rows):
    return tuple(tuple(_poly_key(p) for p in row) for row in rows)


def _module_key(module):
    ring = module.ring
    return (_ring_key(ring.base), tuple(_poly_key(g) for g in ring.defining.gens), _matrix_key(module.matrix))


def _basis_key(engine):
    return (_ring_key(engine.ring), engine.rank, _matrix_key(engine.gens), engine.track)


class Tracer:
    """Spans and counters for one traced pass; `install` and `uninstall`
    bracket each operation so that the benchmark's own answer checks are
    not counted."""

    def __init__(self):
        self.mods = {name: import_module(f"thickloci.{name}") for name in LAYERS}
        self.op = None
        self._undo = []
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.times = defaultdict(float)
        self.distinct = defaultdict(set)
        self.max_basis_len = 0
        self._depth = 0
        self._ideal_engines = weakref.WeakSet()

    def reset(self):
        """Start a new pass; the wrappers keep the same containers."""
        for store in (self.spans, self.stack, self.counts, self.times, self.distinct, self._ideal_engines):
            store.clear()
        self.max_basis_len = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, label, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            span = [label, layer, clock(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def operation(self, name, op_id):
        """Root span of one operation; returns the closer."""
        self.op = op_id
        span = [name, "bench", time.perf_counter(), 0.0, -1, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)

        def close():
            span[3] = time.perf_counter()
            self.stack.pop()

        return close

    # -- counters --------------------------------------------------------------

    def _probe(self, fn, count=None, timed=None):
        """Count the calls of `fn` under `count` and add their time to `timed`."""
        counts, times, clock = self.counts, self.times, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if timed is None:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[timed] += clock() - t0

        return wrapper

    def _minimalize(self, fn):
        counts, distinct = self.counts, self.distinct["minimalize"]

        @functools.wraps(fn)
        def minimalize(module):
            counts["modules.minimalize_calls"] += 1
            distinct.add(_module_key(module))
            return fn(module)

        return minimalize

    def _minors(self, fn):
        counts, times, clock = self.counts, self.times, time.perf_counter

        @functools.wraps(fn)
        def minors(matrix, size, ring):
            t0 = clock()
            out = fn(matrix, size, ring)
            times["spectra.minors_s"] += clock() - t0
            counts["spectra.minors_evaluated"] += len(out)
            return out

        return minors

    def _gb_engine(self, fn):
        engines = self._ideal_engines

        @functools.wraps(fn)
        def _gb_engine(ideal):
            engine = fn(ideal)
            engines.add(engine)
            return engine

        return _gb_engine

    def _compute_gb(self, fn):
        tracer, clock = self, time.perf_counter

        @functools.wraps(fn)
        def _compute_gb(engine):
            t0 = clock()
            basis, reps = fn(engine)
            tracer.times["groebner.gb_s"] += clock() - t0
            kind = "ideal" if engine in tracer._ideal_engines else "module"
            tracer.counts[f"groebner.{kind}_bases_computed"] += 1
            tracer.distinct["bases"].add(_basis_key(engine))
            tracer.max_basis_len = max(tracer.max_basis_len, len(basis))
            return basis, reps

        return _compute_gb

    def _resolution_init(self, fn):
        counts, distinct = self.counts, self.distinct["resolutions"]

        @functools.wraps(fn)
        def __init__(res, module):
            counts["modules.resolutions_built"] += 1
            distinct.add(_module_key(module))
            return fn(res, module)

        return __init__

    def _poly_op(self, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer._depth:
                return fn(*args)
            counts["arith.poly_ops"] += 1
            tracer._depth = 1
            try:
                return fn(*args)
            finally:
                tracer._depth = 0

        return wrapper

    # -- installation ------------------------------------------------------------

    def _set(self, target, name, value):
        old = vars(target)[name]
        self._undo.append((target, name, old))
        setattr(target, name, value)

    def _replace_function(self, layer, name, make, own=True):
        """Replace a module-level function wherever a layer module binds it."""
        original = getattr(self.mods[layer], name)
        replacement = make(original)
        for mod_layer, mod in self.mods.items():
            if (own or mod_layer != layer) and vars(mod).get(name) is original:
                self._set(mod, name, replacement)

    def _replace_method(self, cls, name, make):
        self._set(cls, name, make(vars(cls)[name]))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        m = self.mods
        # counters first, so that spans wrap them
        self._replace_function("modules", "minimalize", self._minimalize)
        self._replace_function("modules", "nonfree_locus", lambda f: self._probe(f, timed="modules.nonfree_locus_s"))
        self._replace_function("groebner", "vector_in_span",
                               lambda f: self._probe(f, "groebner.span_tests", "groebner.span_test_s"))
        self._replace_function("groebner", "module_syzygies", lambda f: self._probe(f, "groebner.syzygy_calls"))
        self._replace_function("spectra", "_minors", self._minors, own=False)
        self._replace_function("catalog", "load", lambda f: self._probe(f, timed="catalog.load_s"), own=False)
        groebner, modules, arith = m["groebner"], m["modules"], m["arith"]
        self._replace_method(groebner.Ideal, "_gb_engine", self._gb_engine)
        self._replace_method(groebner.SubmoduleGB, "_compute_gb", self._compute_gb)
        self._replace_method(groebner.SubmoduleGB, "normal_form", lambda f: self._probe(f, "groebner.normal_forms"))
        self._replace_method(modules.Resolution, "__init__", self._resolution_init)
        for name in POLY_OPS:
            self._replace_method(arith.Poly, name, self._poly_op)
        self._replace_method(arith.PolyRing, "__eq__", lambda f: self._probe(f, "arith.ring_eq_calls"))
        # spans at class methods
        for layer, names in CLASSES.items():
            for cls_name in names:
                cls = getattr(m[layer], cls_name)
                for attr, raw in list(vars(cls).items()):
                    wrapped = None if attr in _SKIP_METHODS else self._wrap_descriptor(
                        layer, f"{layer}.{cls_name}.{attr}", raw)
                    if wrapped is not None:
                        self._set(cls, attr, wrapped)
        # spans at names imported across layers, and at entry points
        for mod_layer, mod in m.items():
            if mod_layer == "arith":
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                target = _layer(getattr(obj, "__module__", None))
                own_entry = target == mod_layer and name in ENTRY_POINTS.get(mod_layer, ())
                if target in TIMED and (target != mod_layer or own_entry):
                    self._set(mod, name, self._span(target, f"{target}.{name}", obj))

    def _wrap_descriptor(self, layer, label, raw):
        if isinstance(raw, staticmethod):
            return staticmethod(self._span(layer, label, raw.__func__))
        if isinstance(raw, property):
            return property(self._span(layer, label, raw.fget), raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, types.FunctionType):
            return self._span(layer, label, raw)
        return None

    def uninstall(self):
        while self._undo:
            target, name, old = self._undo.pop()
            setattr(target, name, old)

    # -- results -------------------------------------------------------------------

    def self_times(self):
        """Per-layer (calls, self seconds) from the recorded spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                covered[s[4]] += s[3] - s[2]
        calls = Counter()
        self_s = defaultdict(float)
        for s, child in zip(spans, covered):
            calls[s[1]] += 1
            self_s[s[1]] += (s[3] - s[2]) - child
        return calls, self_s

    def counters(self):
        """Counts of this pass, exact and repeatable for a given seed."""
        out = {k: self.counts[k] for k in COUNTS}
        computed = out["groebner.ideal_bases_computed"] + out["groebner.module_bases_computed"]
        distinct = len(self.distinct["bases"])
        out["groebner.bases_distinct"] = distinct
        out["groebner.dup_basis_frac"] = 1 - distinct / computed if computed else 0.0
        out["groebner.max_basis_len"] = self.max_basis_len
        out["modules.minimalize_distinct"] = len(self.distinct["minimalize"])
        out["modules.resolutions_distinct"] = len(self.distinct["resolutions"])
        calls, _ = self.self_times()
        for layer in TIMED:
            out[f"{layer}.calls"] = calls[layer]
        return out

    def timings(self):
        _, self_s = self.self_times()
        out = {f"{layer}.self_s": self_s[layer] for layer in TIMED}
        out.update({k: self.times[k] for k in TIMES})
        return out
