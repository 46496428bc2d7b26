"""Layer tracing from outside natalg.

`Tracer.install` wraps the public functions (each module's `__all__`) and the
public methods of the public classes of every layer, and rebinds every name in
every natalg module that refers to a wrapped function, so that a name
re-bound by `from .nat import divisors` still lands on the `nat` boundary.
Recursive and same-module calls go through the module globals and are traced
as well.

A spanned call appends (job, parent span, name, outermost, start_ns, end_ns)
to an in-memory list; `summary` derives per-layer self time from the list
and `write_spans` saves it when the run ends.  Entry points called so often
that spans would dominate the run (`COUNT_ONLY`) are only counted; their time
stays in the calling span.  Tracing is active only inside timed job calls.
"""

from __future__ import annotations

import gc
import gzip
import inspect
import json
import sys
import time

LAYERS = ("nat", "linear", "additive", "dirichlet", "series", "symfun",
          "normal_order", "witt", "spectral", "cli")

# dunder methods that are part of a class's public behaviour
_DUNDERS = {"__init__", "__call__", "__iter__", "__len__", "__bool__", "__getitem__",
            "__eq__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__truediv__", "__pow__"}

# hot entry points: counted, not spanned
COUNT_ONLY = {
    "dirichlet.ArithFn.__call__",
    "linear.LinComb.__init__", "linear.LinComb.single", "linear.LinComb.zero",
    "linear.LinComb.__iter__", "linear.LinComb.__len__", "linear.LinComb.__bool__",
    "linear.LinComb.__getitem__", "linear.LinComb.__eq__", "linear.LinComb.__add__",
    "linear.LinComb.__sub__", "linear.LinComb.__neg__", "linear.LinComb.__rmul__",
    "witt.MultiPoly.__init__", "witt.MultiPoly.const", "witt.MultiPoly.var",
    "witt.MultiPoly.__bool__", "witt.MultiPoly.__eq__", "witt.MultiPoly.__add__",
    "witt.MultiPoly.__radd__", "witt.MultiPoly.__sub__", "witt.MultiPoly.__rsub__",
    "witt.MultiPoly.__neg__", "witt.MultiPoly.__mul__", "witt.MultiPoly.__rmul__",
    "witt.MultiPoly.__truediv__",
    "series.DirichletSeries.__getitem__", "series.DirichletSeries.__len__",
    "symfun.weight", "symfun.mult_map", "symfun.from_mult",
}

# hot-call metrics: total seconds in the outermost spans of these names
HOT_CALLS = {
    "nat.factorize_s": ("nat.factorize",),
    "linear.bilinear_s": ("linear.LinComb.bilinear",),
    "dirichlet.inverse_values_s": ("dirichlet.ArithFn.values",),
    "dirichlet.coboundary2_s": ("dirichlet.coboundary2_mul",),
    "series.series_inverse_s": ("series.series_inverse",),
    "symfun.circle_product_s": ("symfun.circle_product",),
    "symfun.schur_product_lr_s": ("symfun.schur_product_lr",),
    "symfun.to_h_basis_s": ("symfun.to_h_basis",),
    "normal_order.circle_power_s": ("normal_order.circle_power",),
    "witt.universal_polys_s": ("witt.universal_polys",),
    "witt.ring_ops_s": ("witt.witt_add", "witt.witt_mul"),
    "spectral.gram_B_s": ("spectral.gram_B",),
    "spectral.charpoly_s": ("spectral.charpoly",),
    "cli.build_parser_s": ("cli._build_parser",),
}

# memo caches whose hit ratio is reported, read through cache_info()
HIT_RATIOS = ("nat.factorize", "nat.divisors", "symfun.circle_product",
              "symfun.laplace_pairing", "normal_order.circle_power")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{layer}.{m}" for layer in LAYERS for m in ("calls", "self_s", "errors")]
    names += list(HOT_CALLS)
    names += [f"{n}.hit_ratio" for n in HIT_RATIOS]
    names += ["dirichlet.arithfn_cache_entries", "cache.entries_total",
              "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
              "trace.unattributed_s", "trace.spans"]
    return names


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.depth: list[int] = []
        self.errors = [0] * len(LAYERS)
        self.spans: list = []
        self.stack: list[tuple[int, int]] = []  # (span index, name id) of open spans
        self.caches: dict[str, object] = {}  # public memo caches by name
        self.all_caches: dict[int, object] = {}  # every memo cache in natalg

    # -- wrapping ---------------------------------------------------------

    def _new_name(self, qualname: str) -> int:
        self.names.append(qualname)
        self.layer_of.append(LAYERS.index(qualname.split(".", 1)[0]))
        self.calls.append(0)
        self.depth.append(0)
        return len(self.names) - 1

    def _escaped(self, layer: int, caller: int) -> None:
        """An exception leaves a call of `layer`; count it if the caller (a
        name id, -1 for the benchmark itself) is in another layer."""
        if caller < 0 or self.layer_of[caller] != layer:
            self.errors[layer] += 1

    def _span_wrapper(self, fn, qualname: str):
        nid = self._new_name(qualname)
        layer = self.layer_of[nid]
        spans, stack, calls, depth = self.spans, self.stack, self.calls, self.depth
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[nid] += 1
            idx = len(spans)
            spans.append(None)
            parent, caller = stack[-1] if stack else (-1, -1)
            stack.append((idx, nid))
            outer = depth[nid] == 0
            depth[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer._escaped(layer, caller)
                raise
            finally:
                t1 = clock()
                depth[nid] -= 1
                stack.pop()
                spans[idx] = (tracer.job, parent, nid, outer, t0, t1)

        return traced

    def _count_wrapper(self, fn, qualname: str):
        nid = self._new_name(qualname)
        layer = self.layer_of[nid]
        calls, stack = self.calls, self.stack
        tracer = self

        def counted(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[nid] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer._escaped(layer, stack[-1][1] if stack else -1)
                raise

        return counted

    def _wrap(self, fn, qualname: str):
        if hasattr(fn, "cache_info"):
            self.caches[qualname] = fn
        if qualname in COUNT_ONLY:
            return self._count_wrapper(fn, qualname)
        return self._span_wrapper(fn, qualname)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, qualname))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, qualname)))

    def install(self) -> None:
        modules = {layer: sys.modules[f"natalg.{layer}"] for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # re-exported: wrapped under its own layer
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        # the parser is rebuilt on every CLI call; trace it as a named hot call
        build = modules["cli"]._build_parser
        wrapped[id(build)] = self._wrap(build, "cli._build_parser")
        for modname, mod in list(sys.modules.items()):
            if modname == "natalg" or modname.startswith("natalg."):
                for key, value in list(vars(mod).items()):
                    if hasattr(value, "cache_info"):
                        self.all_caches[id(value)] = value
                    if id(value) in wrapped:
                        setattr(mod, key, wrapped[id(value)])

    # -- results ------------------------------------------------------------

    def summary(self, wall_s: float, scale: float = 1.0) -> dict[str, float]:
        """Per-layer counts and self times, hot-call totals and cache state.
        Span times are multiplied by `scale`, the round's calibration factor,
        to match the calibrated `wall_s`."""
        spans = self.spans
        child = [0] * len(spans)
        for _, parent, _, _, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns = [0] * len(LAYERS)
        inclusive = [0] * len(self.names)
        for i, (_, _, nid, outer, t0, t1) in enumerate(spans):
            self_ns[self.layer_of[nid]] += t1 - t0 - child[i]
            if outer:
                inclusive[nid] += t1 - t0
        out: dict[str, float] = {}
        public = [not name.rsplit(".", 1)[1].startswith("_") or name.endswith("__") for name in self.names]
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = sum(c for c, l, p in zip(self.calls, self.layer_of, public) if l == li and p)
            out[f"{layer}.self_s"] = self_ns[li] * scale / 1e9
            out[f"{layer}.errors"] = self.errors[li]
        for metric, qualnames in HOT_CALLS.items():
            out[metric] = sum(inclusive[self.names.index(q)] for q in qualnames) * scale / 1e9
        for name in HIT_RATIOS:
            info = self.caches[name].cache_info()
            out[f"{name}.hit_ratio"] = info.hits / max(info.hits + info.misses, 1)
        arith = sum(len(o._cache) for o in gc.get_objects()
                    if type(o).__name__ == "ArithFn" and type(o).__module__ == "natalg.dirichlet")
        out["dirichlet.arithfn_cache_entries"] = arith
        out["cache.entries_total"] = arith + sum(c.cache_info().currsize for c in self.all_caches.values())
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(self_ns) * scale / 1e9
        out["trace.spans"] = len(spans)
        return out

    def write_spans(self, path) -> None:
        """One JSON header line naming the span fields and functions, then
        one JSON array per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["job", "parent", "name", "outermost", "start_ns", "end_ns"],
                                 "names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
