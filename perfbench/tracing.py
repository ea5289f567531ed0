"""Outside-in tracing of the hodgegap package, from the benchmark's own files.

:meth:`Tracer.install` wraps every public function of the seven modules (plus a few
named methods) and rebinds each wrapper in every ``hodgegap`` module namespace
that holds the original, because ``cli`` and the package ``__init__`` bind
names at import.  A wrapper appends one span per call to an in-memory list:
``[name, start, end, parent, item, error]``, with ``parent`` the index of the
enclosing span (-1 at the top) and ``item`` the benchmark item id.
:meth:`Tracer.uninstall` puts every original back.

``FqElement`` arithmetic is deliberately not wrapped: it runs millions of times
per item and a span per call would swamp the measurement.  Its cost lands in
the self time of whichever wrapped caller is on the stack.

:func:`layer_metrics` turns the spans of a whole run into the per-layer
metrics; self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = ("cli", "curves", "cyclotomic", "algebra", "elliptic", "invariants", "modularrep")

# (module, class, attribute, span name); __rmul__ is the same function as
# __mul__ and shares its span name.
METHODS = (
    ("cyclotomic", "CycloElement", "inv", "cyclotomic.inv"),
    ("cyclotomic", "CycloElement", "__mul__", "cyclotomic.mul"),
    ("cyclotomic", "CycloElement", "__rmul__", "cyclotomic.mul"),
    ("cyclotomic", "PiSpec", "valuation", "cyclotomic.valuation"),
    ("algebra", "Polynomial", "compose", "algebra.compose"),
    ("algebra", "Polynomial", "__mul__", "algebra.poly_mul"),
    ("cli", "VerificationReport", "to_dict", "cli.to_dict"),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "item", "error")


class Tracer:
    """Span recorder shared by all wrappers of one worker process."""

    def __init__(self, item):
        self.item = item
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, item = self.spans, self._stack, self.item
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, item, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        # vars() so that a class gives back its own function, not a bound one
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"hodgegap.{layer}") for layer in LAYERS}
        namespaces = [sys.modules["hodgegap"], *modules.values()]
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._set(ns, attr, wrapped[id(obj)])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))
        # cli renders JSON through its module-level ``json`` binding
        cli = modules["cli"]
        proxy = types.SimpleNamespace(**vars(cli.json))
        proxy.dumps = self.wrap("cli.json_dumps", cli.json.dumps)
        self._set(cli, "json", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- aggregation -------------------------------------------------------------

HOT_INCL = (
    "cyclotomic.inv",
    "curves.hyperelliptic_family",
    "algebra.poly_gcd",
    "algebra.compose",
    "cyclotomic.valuation",
    "curves.map_order",
    "elliptic.count_points",
    "algebra.kernel_dim_rational",
    "modularrep.h1_de_rham_report",
    "invariants.hodge30_pair",
)
HOT_CALLS = ("cyclotomic.inv", "cyclotomic.mul", "elliptic.count_points")
RENDER = ("cli.to_dict", "cli.render_text", "cli.json_dumps")


def layer_metrics(spans_by_item: list[list[list]], passes: int = 1) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of every traced item.

    ``spans_by_item`` holds one span list per item, parents indexing into
    that list.  Times and counts are per pass (totals over ``passes``);
    ratios are over all passes.  Returns ``{metric: (value, unit)}`` without
    the tracing overhead, which needs the untraced passes too.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    count: dict[str, int] = {}
    incl: dict[str, float] = {}
    hits = 0
    for spans in spans_by_item:
        child = [0.0] * len(spans)
        for name, start, end, parent, _item, _error in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _item, error) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur = end - start
            self_s[layer] += dur - child[i]
            calls[layer] += 1
            errors[layer] += error
            count[name] = count.get(name, 0) + 1
            if name in ("elliptic.find_ordinary_with_trace_one", "elliptic.find_p3_curve") and not error:
                hits += 1
            # inclusive time counts only the outermost span of a recursion
            a = parent
            while a >= 0 and spans[a][0] != name:
                a = spans[a][3]
            if a < 0:
                incl[name] = incl.get(name, 0.0) + dur
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer] / passes, "s")
        out[f"{layer}.calls"] = (calls[layer] / passes, "count")
        out[f"{layer}.errors"] = (errors[layer] / passes, "count")
    for name in HOT_CALLS:
        out[f"{name}.calls"] = (count.get(name, 0) / passes, "count")
    for name in HOT_INCL:
        out[f"{name}.incl_s"] = (incl.get(name, 0.0) / passes, "s")
    reports = count.get("cli.build_report", 0)
    builds = count.get("curves.hyperelliptic_family", 0)
    out["curves.family_builds_per_report"] = (builds / reports if reports else 0.0, "builds/report")
    counted = count.get("elliptic.count_points", 0)
    out["elliptic.search_hit_ratio"] = (hits / counted if counted else 0.0, "ratio")
    out["cli.render_s"] = (sum(incl.get(name, 0.0) for name in RENDER) / passes, "s")
    return out
