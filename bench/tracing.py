"""Span recorder wrapped around the library's public functions.

The wrappers live in the benchmark, not in the library: each one records a
span (name, start, end, parent) around a call and returns the library's own
result object, so caches keyed on object identity hit exactly as they do
without tracing.  A span's self time is its duration minus the durations of
its direct children; calls are strictly nested because the library is
single-threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (metric prefix, module, attribute, class or None, points argument index or
# None).  Functions are rebound in every seltrace module that imported them;
# methods are patched on their class.
TRACED = (
    ("special.kbessel", "seltrace.special", "kbessel", None, 1),
    ("special.intertwining_c", "seltrace.special", "intertwining_c", None, 0),
    ("special.zeta", "seltrace.special", "zeta", None, None),
    ("charged.charged_product", "seltrace.charged", "charged_product", None, None),
    ("torus.mellin", "seltrace.torus", "mellin", None, None),
    ("torus.mellin_inverse", "seltrace.torus", "mellin_inverse", None, 2),
    ("torus.plancherel_inner_product", "seltrace.torus", "plancherel_inner_product", None, None),
    ("torus.regularized_inner_product_direct", "seltrace.torus", "regularized_inner_product_direct", None, None),
    ("halfplane.eisenstein_grid_values", "seltrace.halfplane", "eisenstein_grid_values", None, 1),
    ("halfplane.fd_integrate", "seltrace.halfplane", "fd_integrate", None, None),
    ("halfplane.on_grid", "seltrace.halfplane", "on_grid", "AutomorphicFunction", None),
    ("halfplane.radon_transform", "seltrace.halfplane", "radon_transform", None, None),
    ("halfplane.radon_mellin", "seltrace.halfplane", "radon_mellin", None, None),
    ("halfplane.rank_one_plancherel", "seltrace.halfplane", "rank_one_plancherel", None, None),
    ("halfplane.maass_selberg", "seltrace.halfplane", "maass_selberg", None, None),
    ("traceformula.spherical_from_h", "seltrace.traceformula", "spherical_from_h", None, None),
    ("traceformula.gaussian_test_function", "seltrace.traceformula", "gaussian_test_function", None, None),
    ("traceformula.convolve_test_functions", "seltrace.traceformula", "convolve_test_functions", None, None),
    ("traceformula.kernel_diagonal_sum", "seltrace.traceformula", "kernel_diagonal_sum", None, 1),
    ("traceformula.two_term_laurent_kernel", "seltrace.traceformula", "two_term_laurent_kernel", None, None),
    ("traceformula.tf_minus1_geometric", "seltrace.traceformula", "tf_minus1_geometric", None, None),
    ("traceformula.spectral_side", "seltrace.traceformula", "spectral_side", None, None),
    ("traceformula.tate_zeta_term", "seltrace.traceformula", "tate_zeta_term", None, None),
    ("cli.main", "seltrace.cli", "main", None, None),
)

# triple constructors whose repeated calls a memo would remove; the key is the
# argument tuple, with test functions compared by identity
MEMO_CANDIDATES = ("traceformula.gaussian_test_function", "traceformula.convolve_test_functions")

# the per-layer metrics every traced run reports, in BENCHMARK.json order
PER_LAYER = (
    ("special.kbessel.self_s", "s"),
    ("special.kbessel.points", "count"),
    ("special.intertwining_c.self_s", "s"),
    ("special.intertwining_c.points", "count"),
    ("special.zeta.self_s", "s"),
    ("charged.charged_product.self_s", "s"),
    ("charged.charged_product.calls", "count"),
    ("torus.mellin.self_s", "s"),
    ("torus.mellin.calls", "count"),
    ("torus.mellin_inverse.self_s", "s"),
    ("torus.mellin_inverse.points", "count"),
    ("torus.plancherel_inner_product.self_s", "s"),
    ("torus.regularized_inner_product_direct.self_s", "s"),
    ("halfplane.eisenstein_grid_values.self_s", "s"),
    ("halfplane.eisenstein_grid_values.points", "count"),
    ("halfplane.fd_integrate.self_s", "s"),
    ("halfplane.on_grid.self_s", "s"),
    ("halfplane.radon_transform.self_s", "s"),
    ("halfplane.radon_mellin.self_s", "s"),
    ("halfplane.rank_one_plancherel.self_s", "s"),
    ("halfplane.maass_selberg.self_s", "s"),
    ("traceformula.spherical_from_h.self_s", "s"),
    ("traceformula.spherical_from_h.calls", "count"),
    ("traceformula.repeat_builds", "count"),
    ("traceformula.kernel_diagonal_sum.self_s", "s"),
    ("traceformula.kernel_diagonal_sum.points", "count"),
    ("traceformula.two_term_laurent_kernel.self_s", "s"),
    ("traceformula.tf_minus1_geometric.self_s", "s"),
    ("traceformula.spectral_side.self_s", "s"),
    ("traceformula.tate_zeta_term.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("checks.max_dev_ratio", "ratio"),
)


def _call_key(args, kwargs):
    def norm(v):
        return float(v) if isinstance(v, (int, float)) else ("id", id(v))

    return tuple(norm(a) for a in args) + tuple(sorted((k, norm(v)) for k, v in kwargs.items()))


class Tracer:
    """In-memory span list plus per-name call and point counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.points = {}
        self.repeat_builds = 0
        self._seen_builds = set()
        self._keep_alive = []  # arguments of recorded builds, so ids stay unique

    def wrap(self, name, fn, points_arg):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if points_arg is not None and len(args) > points_arg:
                tracer.points[name] = tracer.points.get(name, 0) + int(np.size(args[points_arg]))
            if name in MEMO_CANDIDATES:
                key = (name,) + _call_key(args, kwargs)
                if key in tracer._seen_builds:
                    tracer.repeat_builds += 1
                else:
                    tracer._seen_builds.add(key)
                    tracer._keep_alive.append((args, kwargs))
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def install(self):
        """Wrap every TRACED function and rebind it wherever seltrace imported
        it.  Call after importing the seltrace modules the workload uses."""
        for name, mod_name, attr, cls_name, points_arg in TRACED:
            mod = importlib.import_module(mod_name)
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), points_arg))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, points_arg)
            for mname, m in list(sys.modules.items()):
                if mname != "seltrace" and not mname.startswith("seltrace."):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def summary(self) -> dict:
        """Self seconds and call counts per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = {}, {}
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_s, "calls": calls, "points": dict(self.points),
                "repeat_builds": self.repeat_builds, "n_spans": len(self.spans)}


def per_layer_metrics(summary: dict, max_dev_ratio: float) -> dict:
    """The PER_LAYER metrics from a Tracer summary; layers a workload does not
    reach read 0."""
    out = {}
    for metric, unit in PER_LAYER:
        if metric == "checks.max_dev_ratio":
            value = float(max_dev_ratio)
        elif metric == "traceformula.repeat_builds":
            value = int(summary["repeat_builds"])
        else:
            layer, field = metric.rsplit(".", 1)
            table = summary[field]
            value = table.get(layer, 0.0 if field == "self_s" else 0)
        out[metric] = {"value": value, "unit": unit}
    return out
