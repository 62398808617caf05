"""Spans and counters recorded from outside the program.

:class:`Tracer` replaces public functions of ``dfindex`` with wrappers that
record a span per call: name, start, end, the enclosing span and the run id.
A function imported by name into several modules is replaced in each of
them.  Jet arithmetic is only counted, because it runs 10^5-10^6 times per
workload and spans around each call would swamp what they measure.  Spans
stay in memory until :meth:`Tracer.write`; :meth:`Tracer.restore` puts every
original back.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# (span name, module, attribute): a timed wrapper replaces the function
# everywhere it is bound.  The layer is the part of the name before the dot.
SPANS = [
    ("fields.wirtinger", "dfindex.fields", "wirtinger_table"),
    ("geometry.chern_frame", "dfindex.geometry", "chern_frame"),
    ("geometry.curvature", "dfindex.geometry", "curvature"),
    ("geometry.curvature", "dfindex.geometry", "curvature_contraction"),
    ("boundary.sample", "dfindex.boundary", "sample_boundary"),
    ("boundary.levi_data", "dfindex.boundary", "levi_data"),
    ("boundary.point_at_depth", "dfindex.boundary", "point_at_depth"),
    ("forms.alpha", "dfindex.forms", "alpha"),
    ("forms.beta", "dfindex.forms", "beta_mixed"),
    ("forms.circulation", "dfindex.forms", "max_circulation_density"),
    ("estimator.collect_sites", "dfindex.estimator", "collect_sites"),
    ("estimator.site", "dfindex.estimator", "make_site"),
    ("estimator.basis_rows", "dfindex.estimator", "_basis_rows"),
    ("estimator.kelley", "dfindex.estimator", "feasibility_search"),
    ("estimator.lp", "dfindex.estimator", "linprog"),
    ("worm.riccati", "dfindex.worm", "riccati_feasibility"),
    ("worm.sgamma_points", "dfindex.worm", "sgamma_points"),
    ("cli.report", "dfindex.cli", "write_report"),
] + [(f"diagnostics.{suite}", "dfindex.diagnostics", f"{suite}_suite")
     for suite in ("jets", "h3_identity", "structural", "boundary", "forms",
                   "worm_reference", "margin_equivalence", "riccati")]

# (name, module, class, attribute, timed): a method replaced on its class;
# calls of an untimed one are only counted.
METHODS = [
    ("jets.mul_calls", "dfindex.jets", "Jet", "__mul__", False),
    ("jets.mul_calls", "dfindex.jets", "Jet", "__rmul__", False),
    ("jets.add_calls", "dfindex.jets", "Jet", "__add__", False),
    ("jets.add_calls", "dfindex.jets", "Jet", "__radd__", False),
    ("jets.init_calls", "dfindex.jets", "Jet", "__init__", False),
    ("jets.compose_calls", "dfindex.jets", "Jet", "compose", False),
    ("fields.field_jet_calls", "dfindex.fields", "ScalarField", "jet", False),
    ("boundary.frame", "dfindex.boundary", "NormalFrame", "__init__", True),
]


class Tracer:
    """In-memory span recorder that patches ``dfindex`` for the runs it covers."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id, result]
        self.counts = defaultdict(int)
        self.run_id = 0
        self.missing = []        # hooks whose target no longer exists
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------
    def _timed(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _summary_of(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every hook; call :meth:`restore` to undo."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dfindex" or name.startswith("dfindex."))]
        for name, module, attr in SPANS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._timed(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, module, cls, attr, timed in METHODS:
            owner = getattr(sys.modules.get(module), cls, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module}.{cls}.{attr}")
                continue
            wrap = self._timed if timed else self._counted
            self._set(owner, attr, wrap(name, vars(owner)[attr]))
        self._install_expr()

    def _install_expr(self):
        """Time calls into each compiled user expression ``r``."""
        expr = sys.modules.get("dfindex.expr")
        original = getattr(expr, "build_field", None)
        if original is None:
            self.missing.append("dfindex.expr.build_field")
            return
        tracer = self

        def build_field(*args, **kwargs):
            field = original(*args, **kwargs)
            field.fn = tracer._timed("expr.eval", field.fn)
            return field

        self._set(expr, "build_field", build_field)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------
    def write(self, path):
        """Spans as JSON lines, then one line with the counters of all traced runs."""
        with open(path, "w") as handle:
            for name, start, end, parent, run, result in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "run": run}) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _summary_of(name, args, kwargs, result):
    """The part of a call's result the per-layer metrics need; kept small."""
    if name == "estimator.kelley":
        return (result.iterations, result.feasible, result.status)
    if name == "estimator.lp":
        a_ub = kwargs.get("A_ub")
        return 0 if a_ub is None else len(a_ub)
    if name == "estimator.collect_sites":
        return len(result[0])
    if name == "cli.report":
        return sum(p.stat().st_size for p in result)
    return None


def self_times(spans):
    """Duration minus the time covered by direct child spans, per span."""
    child = [0.0] * len(spans)
    for name, start, end, parent, run, result in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, *_) in enumerate(spans)]


def layer_metrics(spans, counts, runs, stages):
    """Per-layer metrics of ``runs`` traced runs, averaged per run, as (value, unit).

    ``stages`` fixes how many ``estimator.stage<k>`` entries are reported,
    so every workload reports the same names.
    """
    runs = max(runs, 1)
    total = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    self_by_layer = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        total[name] += end - start
        calls[name] += 1
        durations[name].append(end - start)
        self_by_layer[name.split(".")[0]] += own

    def per_call_ms(name):
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    kelley = [s for s in spans if s[0] == "estimator.kelley"]
    lp_rows = [s[5] for s in spans if s[0] == "estimator.lp"]
    iters = sum(s[5][0] for s in kelley)
    certified = sum(1 for s in kelley if s[5][1] or s[5][2] == "infeasible_certified")
    site_ms = sorted(1e3 * d for d in durations["estimator.site"])

    out = {
        "jets.mul_calls": counts["jets.mul_calls"] / runs,
        "jets.add_calls": counts["jets.add_calls"] / runs,
        "jets.init_calls": counts["jets.init_calls"] / runs,
        "jets.compose_calls": counts["jets.compose_calls"] / runs,
        "fields.wirtinger_calls": calls["fields.wirtinger"] / runs,
        "fields.wirtinger_s": total["fields.wirtinger"] / runs,
        "fields.field_jet_calls": counts["fields.field_jet_calls"] / runs,
        "expr.eval_calls": calls["expr.eval"] / runs,
        "expr.eval_s": total["expr.eval"] / runs,
        "geometry.chern_frame_calls": calls["geometry.chern_frame"] / runs,
        "geometry.chern_frame_s": total["geometry.chern_frame"] / runs,
        "geometry.curvature_s": total["geometry.curvature"] / runs,
        "boundary.sample_s": total["boundary.sample"] / runs,
        "boundary.frames": calls["boundary.frame"] / runs,
        "boundary.frame_ms": per_call_ms("boundary.frame"),
        "boundary.levi_data_ms": per_call_ms("boundary.levi_data"),
        "boundary.point_at_depth_ms": per_call_ms("boundary.point_at_depth"),
        "forms.alpha_ms": per_call_ms("forms.alpha"),
        "forms.beta_ms": per_call_ms("forms.beta"),
        "forms.circulation_s": total["forms.circulation"] / runs,
        "estimator.collect_sites_s": total["estimator.collect_sites"] / runs,
        "estimator.sites": calls["estimator.site"] / runs,
        "estimator.site_ms_p50": _quantile(site_ms, 0.5),
        "estimator.site_ms_p99": _quantile(site_ms, 0.99),
        "estimator.basis_rows_ms": per_call_ms("estimator.basis_rows"),
        "estimator.stages": len(kelley) / runs,
        "estimator.kelley_s": total["estimator.kelley"] / runs,
        "estimator.kelley_iters": iters / runs,
        "estimator.kelley_ms_per_iter": 1e3 * total["estimator.kelley"] / iters if iters else 0.0,
        "estimator.lp_solves": len(lp_rows) / runs,
        "estimator.lp_s": total["estimator.lp"] / runs,
        "estimator.lp_rows_mean": statistics.fmean(lp_rows) if lp_rows else 0.0,
        "estimator.certified_ratio": certified / len(kelley) if kelley else 0.0,
    }
    # per-stage figures of the first traced run, in the order stages ran
    first = [s for s in kelley if s[4] == kelley[0][4]] if kelley else []
    for k in range(stages):
        span = first[k] if k < len(first) else None
        out[f"estimator.stage{k}.s"] = span[2] - span[1] if span else 0.0
        out[f"estimator.stage{k}.iters"] = span[5][0] if span else 0
    out.update({
        "worm.riccati_s": total["worm.riccati"] / runs,
        "worm.sgamma_points_s": total["worm.sgamma_points"] / runs,
    })
    for suite in ("jets", "h3_identity", "structural", "boundary", "forms",
                  "worm_reference", "margin_equivalence", "riccati"):
        out[f"diagnostics.{suite}_s"] = total[f"diagnostics.{suite}"] / runs
    out["cli.report_s"] = total["cli.report"] / runs
    out["cli.report_bytes"] = (sum(s[5] for s in spans if s[0] == "cli.report") / runs)
    for layer in ("fields", "expr", "geometry", "boundary", "forms", "estimator", "worm",
                  "diagnostics", "cli"):
        out[f"{layer}.self_s"] = self_by_layer[layer] / runs
    return {name: (value, unit_of(name)) for name, value in out.items()}


def unit_of(name):
    """The unit a metric name ends in; plain counts otherwise."""
    for suffix, unit in (("_s", "s"), (".s", "s"), ("_ms", "ms"), ("_ratio", "ratio"),
                         ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "ms" if "_ms_p" in name else "count"


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
