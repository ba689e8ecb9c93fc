"""Spans around flatlab's public functions, recorded from outside the package.

``Tracer.install`` wraps each function in the namespace where its caller
looks it up (``from .x import y`` binds names at import, so ``flatlab.dynamics``
holds its own reference to ``field_create``, and so on) and ``restore``
puts every original back.  A span is ``[name, start, end, parent, op]``;
spans stay in memory and are written as JSON lines at the end.

``p1_eval`` is deliberately not wrapped: it runs once per orbit step, and
the orbit walk shows up as the self time of ``postcritical_graph``.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name): one row per binding a caller looks up
PATCHES = (
    ("cli", "run_classify", "cli.run_classify"),
    ("cli", "parse_ratfunc", "ratfunc.parse_ratfunc"),
    ("cli", "reduce_mod_p", "ratfunc.reduce_mod_p"),
    ("cli", "postcritical_graph", "dynamics.postcritical_graph"),
    ("cli", "mu_compute", "orbifold.mu_compute"),
    ("cli", "orbifold_data", "orbifold.orbifold_data"),
    ("cli", "parabolic_signature", "orbifold.parabolic_signature"),
    ("cli", "invariant_search", "forms.invariant_search"),
    ("ratfunc", "field_create", "exactnum.field_create"),
    ("dynamics", "critical_locus", "dynamics.critical_locus"),
    ("dynamics", "poly_factor", "ratfunc.poly_factor"),
    ("dynamics", "poly_roots", "ratfunc.poly_roots"),
    ("dynamics", "field_create", "exactnum.field_create"),
    ("dynamics", "ram_index", "dynamics.ram_index"),
    ("forms", "mat_kernel", "exactnum.mat_kernel"),
    ("forms", "invariance_check", "forms.invariance_check"),
    ("forms", "form_pullback", "forms.form_pullback"),
    ("forms", "form_power", "forms.form_power"),
    ("atlas", "invariance_check", "forms.invariance_check"),
    ("atlas", "power_map", "atlas.construct"),
    ("atlas", "chebyshev_poly", "atlas.construct"),
    ("atlas", "lattes_map", "atlas.construct"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCHES))

# per-layer metrics a traced run reports: name -> (unit, better)
LAYER_METRICS = {
    "cli.run_classify.self_s": ("s", "lower"),
    "ratfunc.parse_ratfunc.s": ("s", "lower"),
    "ratfunc.reduce_mod_p.s": ("s", "lower"),
    "ratfunc.poly_factor.s": ("s", "lower"),
    "ratfunc.poly_roots.s": ("s", "lower"),
    "exactnum.field_create.s": ("s", "lower"),
    "exactnum.field_create.misses": ("count", "lower"),
    "exactnum.field_create.k_max": ("degree", "lower"),
    "exactnum.mat_kernel.s": ("s", "lower"),
    "exactnum.mat_kernel.cells": ("count", "lower"),
    "exactnum.mat_kernel.kernel_dim": ("count", "higher"),
    "dynamics.postcritical_graph.self_s": ("s", "lower"),
    "dynamics.orbit_vertices": ("count", "lower"),
    "dynamics.critical_locus.self_s": ("s", "lower"),
    "dynamics.ram_index.s": ("s", "lower"),
    "dynamics.ram_index.calls": ("count", "lower"),
    "orbifold.mu_compute.s": ("s", "lower"),
    "orbifold.orbifold_data.s": ("s", "lower"),
    "forms.invariant_search.self_s": ("s", "lower"),
    "forms.invariant_search.calls": ("count", "lower"),
    "forms.search_yield": ("ratio", "higher"),
    "forms.invariance_check.s": ("s", "lower"),
    "forms.invariance_check.calls": ("count", "lower"),
    "forms.form_pullback.s": ("s", "lower"),
    "forms.form_power.s": ("s", "lower"),
    "atlas.construct.self_s": ("s", "lower"),
    **{f"{name}.budget_hits": ("count", "lower") for name in SPAN_NAMES},
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.n_ops = 0
        self.budget_hits = Counter()
        self.k_max = 0
        self.orbit_vertices = 0
        self.kernel_cells = 0
        self.kernel_dim = 0
        self.searches = 0
        self.searches_with_forms = 0
        self._patched = []

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def start_op(self):
        self.op = self.n_ops
        self.n_ops += 1
        self.stack.clear()

    def end_op(self):
        """Close spans an over-budget op left open, at the op's end."""
        now = perf_counter()
        for idx in self.stack:
            if not self.spans[idx][2]:
                self.spans[idx][2] = now
        self.stack.clear()
        self.op = None

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # counters gathered at the boundaries where the work happens
    def _on_field(self, args, kwargs, result):
        self.k_max = max(self.k_max, result.k)

    def _on_graph(self, args, kwargs, result):
        self.orbit_vertices += len(result.vertices)

    def _on_kernel(self, args, kwargs, result):
        rows = args[0]
        self.kernel_cells += len(rows) * (len(rows[0]) if rows else 0)
        self.kernel_dim += len(result)

    def _on_search(self, args, kwargs, result):
        self.searches += 1
        self.searches_with_forms += bool(result)

    def install(self, fl):
        hooks = {
            "exactnum.field_create": self._on_field,
            "dynamics.postcritical_graph": self._on_graph,
            "exactnum.mat_kernel": self._on_kernel,
            "forms.invariant_search": self._on_search,
        }
        for module_name, attr, name in PATCHES:
            module = getattr(fl, module_name)
            orig = getattr(module, attr)
            self._patched.append((module, attr, orig))
            setattr(module, attr, self.wrap(name, orig, hooks.get(name)))

    def restore(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def layer_metrics(self, field_misses, overhead_frac):
        total = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
        values = {
            "cli.run_classify.self_s": self_time["cli.run_classify"],
            "ratfunc.parse_ratfunc.s": total["ratfunc.parse_ratfunc"],
            "ratfunc.reduce_mod_p.s": total["ratfunc.reduce_mod_p"],
            "ratfunc.poly_factor.s": total["ratfunc.poly_factor"],
            "ratfunc.poly_roots.s": total["ratfunc.poly_roots"],
            "exactnum.field_create.s": total["exactnum.field_create"],
            "exactnum.field_create.misses": field_misses,
            "exactnum.field_create.k_max": self.k_max,
            "exactnum.mat_kernel.s": total["exactnum.mat_kernel"],
            "exactnum.mat_kernel.cells": self.kernel_cells,
            "exactnum.mat_kernel.kernel_dim": self.kernel_dim,
            "dynamics.postcritical_graph.self_s": self_time["dynamics.postcritical_graph"],
            "dynamics.orbit_vertices": self.orbit_vertices,
            "dynamics.critical_locus.self_s": self_time["dynamics.critical_locus"],
            "dynamics.ram_index.s": total["dynamics.ram_index"],
            "dynamics.ram_index.calls": calls["dynamics.ram_index"],
            "orbifold.mu_compute.s": total["orbifold.mu_compute"],
            "orbifold.orbifold_data.s": total["orbifold.orbifold_data"],
            "forms.invariant_search.self_s": self_time["forms.invariant_search"],
            "forms.invariant_search.calls": calls["forms.invariant_search"],
            "forms.search_yield": self.searches_with_forms / self.searches if self.searches else 0.0,
            "forms.invariance_check.s": total["forms.invariance_check"],
            "forms.invariance_check.calls": calls["forms.invariance_check"],
            "forms.form_pullback.s": total["forms.form_pullback"],
            "forms.form_power.s": total["forms.form_power"],
            "atlas.construct.self_s": self_time["atlas.construct"],
            **{f"{name}.budget_hits": self.budget_hits[name] for name in SPAN_NAMES},
            "trace.overhead_frac": overhead_frac,
        }
        return {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")
