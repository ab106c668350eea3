"""Spans around calls into the hypzero modules, installed from outside.

The traced run replaces public functions at the names their callers look
them up (``hypzero.verify.find_roots``, ``hypzero.roots.coefficients_mp``,
``hypzero.quadrature.trace_flow``, ...) with timing wrappers.  No file of
the package is edited.  Each span records its name, start, end, parent span
and operation id; spans stay in memory and are written out when the run
ends.  ``kernel.phase`` is deliberately not wrapped: it is called millions
of times from inside the tracers, so a wrapper would distort the run.
``flows.trace_flow.steps`` stands in for it.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from collections import defaultdict

# (module whose attribute is replaced, attribute, span name).  The module is
# the caller's namespace: ``from .roots import find_roots`` in verify means
# verify looks the name up in its own globals.
WRAP_POINTS = (
    ("hypzero.cli", "main", "cli.main"),
    ("hypzero.cli", "run_theorem_check", "verify.run_theorem_check"),
    ("hypzero.cli", "emit_report", "verify.emit_report"),
    ("hypzero.verify", "region_map", "verify.region_map"),
    ("hypzero.verify", "coefficients", "hyperpoly.coefficients"),
    ("hypzero.verify", "real_family_coefficients", "hyperpoly.coefficients"),
    ("hypzero.hyperpoly", "coefficients", "hyperpoly.coefficients"),
    ("hypzero.hyperpoly", "real_family_coefficients", "hyperpoly.coefficients"),
    ("hypzero.roots", "coefficients_mp", "hyperpoly.coefficients_mp"),
    ("hypzero.verify", "find_roots", "roots.find_roots"),
    ("hypzero.roots", "find_roots", "roots.find_roots"),
    ("hypzero.verify", "trace_level_curve", "levelcurve.trace_level_curve"),
    ("hypzero.levelcurve", "trace_level_curve", "levelcurve.trace_level_curve"),
    ("hypzero.verify", "distance_to_curve", "levelcurve.distance_to_curve"),
    ("hypzero.verify", "coverage_gap", "levelcurve.coverage_gap"),
    ("hypzero.verify", "classify_region", "flows.classify_region"),
    ("hypzero.levelcurve", "classify_region", "flows.classify_region"),
    ("hypzero.quadrature", "classify_region", "flows.classify_region"),
    ("hypzero.flows", "trace_flow", "flows.trace_flow"),
    ("hypzero.quadrature", "trace_flow", "flows.trace_flow"),
    ("hypzero.verify", "separatrices", "flows.separatrices"),
    ("hypzero.quadrature", "descent_integral", "quadrature.descent_integral"),
    ("hypzero.quadrature", "endpoint_integral", "quadrature.endpoint_integral"),
    ("hypzero.verify", "descent_integral_estimate",
     "saddle.descent_integral_estimate"),
    ("hypzero.saddle", "descent_integral_estimate",
     "saddle.descent_integral_estimate"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "child_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "attrs": self.attrs}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores.

    A span without a parent is a call made by the benchmark itself and opens
    a new operation id; its descendants share that id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.ops = 0
        self._saved = []

    def install(self):
        for mod_name, attr, span_name in WRAP_POINTS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span_name))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            if self.stack:
                parent = self.stack[-1]
                op = self.spans[parent].op
            else:
                parent, op = None, self.ops
                self.ops += 1
            span = Span(name, time.perf_counter(), parent, op)
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs = {"error": type(exc).__name__}
                raise
            else:
                if observe is not None:
                    span.attrs = observe(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration

        return wrapper

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.to_json_dict(i)) + "\n")


# ------------------------------------------------- counts read from results

def _observe_find_roots(args, zs):
    it = zs.iterations
    return {"n": zs.n,
            "sweeps_double": it.get("sweeps_double", 0),
            "sweeps_mp": sum(v for k, v in it.items()
                             if k.startswith("sweeps_mp")),
            "bits_solve": it.get("bits_solve", 0),
            "bits_certify": it.get("bits_certify", 0),
            "escalations": it.get("escalations", 0),
            "headroom": it["max_displacement"] / (0.2 / zs.n)}


def _observe_curve(args, curve):
    used = sum(len(a.points) for a in curve.arcs
               if a.region == "InE" and not a.crossed_cut)
    return {"vertices": sum(len(a.points) for a in curve.arcs), "used": used}


def _observe_label(args, label):
    return {"label": label.label}


def _observe_trace(args, trace):
    return {"points": len(trace.points)}


def _observe_descent(args, integral):
    n, alpha, z = args[:3]
    return {"key": _pair_key(n, alpha, z),
            "log_modulus": integral.log_modulus, "phase": integral.phase,
            "error": integral.abs_error_bound}


def _observe_endpoint(args, result):
    n, alpha, z = args[:3]
    i2 = result.integral
    return {"key": _pair_key(n, alpha, z), "knots": len(result.path),
            "log_modulus": i2.log_modulus, "phase": i2.phase,
            "error": i2.abs_error_bound}


def _observe_emit(args, paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _pair_key(n, alpha, z):
    return f"{n}|{alpha.eta!r}|{alpha.zeta!r}|{complex(z)!r}"


_OBSERVERS = {
    "roots.find_roots": _observe_find_roots,
    "levelcurve.trace_level_curve": _observe_curve,
    "flows.classify_region": _observe_label,
    "flows.trace_flow": _observe_trace,
    "quadrature.descent_integral": _observe_descent,
    "quadrature.endpoint_integral": _observe_endpoint,
    "verify.emit_report": _observe_emit,
}


def _split_cancels(d: dict, e: dict) -> bool:
    """|I1 + I2| within the summed error budget, evaluated in log scale.

    Same test as the split-integral samples of a clustering report: at a
    zero of p_n the descent and endpoint pieces cancel.
    """
    top = max(d["log_modulus"], e["log_modulus"])
    s = abs(complex(math.cos(d["phase"]), math.sin(d["phase"]))
            * math.exp(d["log_modulus"] - top)
            + complex(math.cos(e["phase"]), math.sin(e["phase"]))
            * math.exp(e["log_modulus"] - top))
    budget = max(d["error"], e["error"]) + math.log1p(
        math.exp(-abs(d["error"] - e["error"])))
    return s == 0.0 or math.log(s) + top <= budget


# ------------------------------------------------------ per-layer metrics

PER_LAYER_UNITS = {
    "hyperpoly.coefficients.s": "s/pass",
    "hyperpoly.coefficients_mp.calls": "count/pass",
    "hyperpoly.coefficients_mp.s": "s/pass",
    "roots.find_roots.calls": "count/pass",
    "roots.find_roots.s": "s/pass",
    "roots.find_roots.self_s": "s/pass",
    "roots.find_roots.op_share": "ratio",
    "roots.sweeps_double": "count/solve",
    "roots.sweeps_mp": "count/solve",
    "roots.bits_solve.max": "bits",
    "roots.bits_certify.max": "bits",
    "roots.escalations": "count/pass",
    "roots.mp_solve_ratio": "ratio",
    "roots.cert_headroom": "ratio",
    "levelcurve.trace_level_curve.s": "s/pass",
    "levelcurve.vertices": "count/curve",
    "levelcurve.used_vertex_ratio": "ratio",
    "levelcurve.distance_to_curve.s": "s/pass",
    "levelcurve.coverage_gap.s": "s/pass",
    "flows.classify_region.calls": "count/pass",
    "flows.classify_region.s": "s/pass",
    "flows.trace_flow.calls": "count/pass",
    "flows.trace_flow.steps": "count/trace",
    "flows.trace_flow.s": "s/pass",
    "flows.separatrices.s": "s/pass",
    "flows.boundary_ratio": "ratio",
    "quadrature.descent_integral.s": "s/pass",
    "quadrature.endpoint_integral.s": "s/pass",
    "quadrature.endpoint_knots": "count/path",
    "quadrature.split_cancel_ratio": "ratio",
    "saddle.descent_integral_estimate.s": "s/pass",
    "verify.run_theorem_check.self_s": "s/pass",
    "verify.region_map.self_s": "s/pass",
    "verify.emit_report.s": "s/pass",
    "verify.emit.bytes": "bytes/call",
    "cli.main.self_s": "s/pass",
    "trace.overhead_s": "s/pass",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int, op_s: float,
                  traced_pass_s: float, untraced_pass_s: float) -> dict:
    """Per-layer values from the spans of ``passes`` identical passes.

    Busy and self times and call counts are per pass; sweeps are per solve;
    the tracing overhead compares the mean traced pass with an untraced
    pass of the same inputs.  ``op_s`` is the total time of the
    workload's unit operations over the traced passes.
    """
    busy = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    by_name = defaultdict(list)
    for s in spans:
        busy[s.name] += s.duration
        self_s[s.name] += s.duration - s.child_s
        calls[s.name] += 1
        by_name[s.name].append(s.attrs or {})

    solves = [a for a in by_name["roots.find_roots"] if "n" in a]
    curves = [a for a in by_name["levelcurve.trace_level_curve"]
              if "vertices" in a]
    traces = [a for a in by_name["flows.trace_flow"] if "points" in a]
    labels = by_name["flows.classify_region"]
    ends = [a for a in by_name["quadrature.endpoint_integral"] if "key" in a]
    descents = {a["key"]: a for a in by_name["quadrature.descent_integral"]
                if "key" in a}
    pairs = [(descents[e["key"]], e) for e in ends if e["key"] in descents]
    emits = [a for a in by_name["verify.emit_report"] if "bytes" in a]

    p = float(passes)
    m = {
        "hyperpoly.coefficients.s": busy["hyperpoly.coefficients"] / p,
        "hyperpoly.coefficients_mp.calls":
            calls["hyperpoly.coefficients_mp"] / p,
        "hyperpoly.coefficients_mp.s": busy["hyperpoly.coefficients_mp"] / p,
        "roots.find_roots.calls": calls["roots.find_roots"] / p,
        "roots.find_roots.s": busy["roots.find_roots"] / p,
        "roots.find_roots.self_s": self_s["roots.find_roots"] / p,
        "roots.find_roots.op_share": _ratio(busy["roots.find_roots"], op_s),
        "roots.sweeps_double": _ratio(
            sum(a["sweeps_double"] for a in solves), len(solves)),
        "roots.sweeps_mp": _ratio(
            sum(a["sweeps_mp"] for a in solves), len(solves)),
        "roots.bits_solve.max": max(
            (a["bits_solve"] for a in solves), default=0),
        "roots.bits_certify.max": max(
            (a["bits_certify"] for a in solves), default=0),
        "roots.escalations": sum(a["escalations"] for a in solves) / p,
        "roots.mp_solve_ratio": _ratio(
            sum(1 for a in solves if a["bits_solve"] > 53), len(solves)),
        "roots.cert_headroom": max(
            (a["headroom"] for a in solves), default=0.0),
        "levelcurve.trace_level_curve.s":
            busy["levelcurve.trace_level_curve"] / p,
        "levelcurve.vertices": _ratio(
            sum(a["vertices"] for a in curves), len(curves)),
        "levelcurve.used_vertex_ratio": _ratio(
            sum(a["used"] for a in curves),
            sum(a["vertices"] for a in curves)),
        "levelcurve.distance_to_curve.s":
            busy["levelcurve.distance_to_curve"] / p,
        "levelcurve.coverage_gap.s": busy["levelcurve.coverage_gap"] / p,
        "flows.classify_region.calls": calls["flows.classify_region"] / p,
        "flows.classify_region.s": busy["flows.classify_region"] / p,
        "flows.trace_flow.calls": calls["flows.trace_flow"] / p,
        "flows.trace_flow.steps": _ratio(
            sum(a["points"] for a in traces), len(traces)),
        "flows.trace_flow.s": busy["flows.trace_flow"] / p,
        "flows.separatrices.s": busy["flows.separatrices"] / p,
        "flows.boundary_ratio": _ratio(
            sum(1 for a in labels if a.get("label") != "InE"
                and a.get("label") != "NotInE"), len(labels)),
        "quadrature.descent_integral.s":
            busy["quadrature.descent_integral"] / p,
        "quadrature.endpoint_integral.s":
            busy["quadrature.endpoint_integral"] / p,
        "quadrature.endpoint_knots": _ratio(
            sum(a["knots"] for a in ends), len(ends)),
        "quadrature.split_cancel_ratio": _ratio(
            sum(1 for d, e in pairs if _split_cancels(d, e)), len(pairs)),
        "saddle.descent_integral_estimate.s":
            busy["saddle.descent_integral_estimate"] / p,
        "verify.run_theorem_check.self_s":
            self_s["verify.run_theorem_check"] / p,
        "verify.region_map.self_s": self_s["verify.region_map"] / p,
        "verify.emit_report.s": busy["verify.emit_report"] / p,
        "verify.emit.bytes": _ratio(
            sum(a["bytes"] for a in emits), len(emits)),
        "cli.main.self_s": self_s["cli.main"] / p,
        "trace.overhead_s": traced_pass_s - untraced_pass_s,
        "trace.overhead_ratio": _ratio(traced_pass_s - untraced_pass_s,
                                       untraced_pass_s),
    }
    return m
