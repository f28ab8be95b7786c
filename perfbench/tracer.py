"""In-memory span tracer for the hopfcross package.

``Tracer.install`` wraps every function and public method defined in
the package's modules, plus ``numpy.einsum``, and rebinds each wrapped name
in every module that holds it: modules import with ``from .linalg
import rref`` and the CLI keeps its commands in a dispatch table, so
patching only the defining module would miss calls.  ``uninstall``
puts every original back.

A span is (name, start, end, parent, input id, ok); ``name`` is
``<module>.<function>`` and the module is the span's layer.  A layer's
self time is its spans' time minus the time of their child spans.
Counts that need the call's arguments or result (contraction terms,
RREF cells, membership hits, checked tuples, violations, parsed bytes)
are added at the same boundary.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "hopfcross"
# Beyond this many spans in one pass, calls run unrecorded and are only
# counted, so that a hot wrapped function cannot exhaust memory.
MAX_SPANS = 1_000_000


def _einsum_terms(args):
    """Product of the extents of all indices: the work of a naive
    contraction."""
    if not args or not isinstance(args[0], str):
        return 0
    lhs = args[0].replace(" ", "").split("->")[0]
    extents = {}
    for term, op in zip(lhs.split(","), args[1:]):
        for ch, n in zip(term, np.shape(op)):
            extents[ch] = n
    return math.prod(extents.values())


def _count_einsum(counts, args, kwargs, result):
    counts["einsum.terms"] += _einsum_terms(args)


def _count_rref(counts, args, kwargs, result):
    counts["linalg.rref.cells"] += math.prod(np.shape(args[0]))


def _count_coords_in(counts, args, kwargs, result):
    counts["linalg.coords_in.hits"] += result is not None


def _count_parse_spec(counts, args, kwargs, result):
    counts["specfile.bytes"] += len(args[0]) if args else 0


def _count_compare(counts, args, kwargs, result):
    counts["checks.tuples"] += math.prod(np.shape(args[2])[:-1])


def _count_require(counts, args, kwargs, result):
    counts["checks.tuples"] += 1


COUNTERS = {
    "einsum": _count_einsum,
    "linalg.rref": _count_rref,
    "linalg.coords_in": _count_coords_in,
    "specfile.parse_spec": _count_parse_spec,
    "checks.ReportBuilder.compare": _count_compare,
    "checks.ReportBuilder.require": _count_require,
}
# Identity checks append to a ReportBuilder's violation list; the tracer
# counts how much that list grows across these two methods.
VIOLATION_SITES = ("checks.ReportBuilder.compare", "checks.ReportBuilder.require")


class _JsonProxy:
    """Stands in for the ``json`` module inside the CLI so that report
    emission (``json.dumps``) becomes its own span."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.input_id = None
        self._stack = []
        self._undo = []
        self._external = []

    # -- recording -----------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        counts_violations = name in VIOLATION_SITES
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            if idx >= MAX_SPANS:
                counts["trace.dropped_spans"] += 1
                return fn(*args, **kwargs)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = len(getattr(args[0], "_violations", ())) if counts_violations else 0
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.input_id, ok)
            if counter is not None:
                counter(counts, args, kwargs, result)
            if counts_violations:
                counts["checks.violations"] += \
                    len(getattr(args[0], "_violations", ())) - before
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def span(self, name):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def external(self, name, start, end):
        """Record a span of work that interrupted the traced code, as a
        child of the span open now.  Meant for signal handlers: it only
        reads the span stack and appends to a list of its own, so it
        cannot disturb a span being opened or closed."""
        parent = self._stack[-1] if self._stack else -1
        self._external.append((name, start, end, parent, self.input_id, True))

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE
                                           or name.startswith(PACKAGE + "."))}
        wrappers = {}
        for modname, mod in modules.items():
            layer = modname.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    # public methods only: private ones such as the
                    # residue arithmetic of Fp run per scalar operation
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._set(obj, meth, self.wrap(
                                f"{layer}.{obj.__name__}.{meth}", fn))
        # rebind every module-level name and dispatch-table entry that
        # refers to a wrapped function
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = wrappers.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._undo.append((obj, key, val))
                            obj[key] = hit[1]
        self._set(np, "einsum", self.wrap("einsum", np.einsum))
        cli = modules.get(PACKAGE + ".cli")
        if cli is not None and hasattr(cli, "json"):
            self._set(cli, "json", _JsonProxy(
                json, self.wrap("cli.emit", json.dumps)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- output ----------------------------------------------------------

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans + self._external, Counter(self.counts)
        self.spans.clear()
        self._external.clear()
        self.counts.clear()
        return spans, counts


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append(None)
        self.parent = t._stack[-1] if t._stack else -1
        t._stack.append(self.idx)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        end = time.perf_counter()
        t._stack.pop()
        t.spans[self.idx] = (self.name, self.start, end, self.parent,
                             t.input_id, exc_type is None)
        return False


def self_times(spans):
    """Per span, its duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def write_spans(spans, path):
    """One JSON line per span: name, start, end, parent, input, ok."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
