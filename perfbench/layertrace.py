"""Per-layer spans and counters, installed on the package from outside.

``Tracer.install`` replaces the public functions of each layer with
wrappers that record a span (name, parent span, start, end, and a small
result summary) and counts the calls of every right-hand-side closure that
``ParametricSystem.compiled_rhs`` hands out.  Every call site in the
package looks these functions up as module attributes at call time, so the
wrappers see every call without a line of the package changing.  Spans stay
in memory until ``write`` dumps them; ``layer_metrics`` reduces them to the
per-layer figures the benchmark reports.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

# a fixed list, so the reported metric names do not change when the package
# gains a termination reason; a new one is counted under integrate.end.other
TERMINATIONS = ["time_limit", "event", "blowup", "equilibrium_approach",
                "arclength_cap"]


def _integrate_info(out, args, kwargs):
    return len(out.t) - 1, out.termination.value


def _branch_info(out, args, kwargs):
    events = kwargs.get("events", args[6] if len(args) > 6 else ())
    curve = out.curve
    last_hit = abs(curve.event_hits[-1][1]) if curve.event_hits else 0.0
    return curve.termination.value, abs(float(curve.t[-1])), last_hit, \
        bool(events)


def _point_info(out, args, kwargs):
    return tuple(sorted(args[1].items()))


def _curve_info(out, args, kwargs):
    return len(out.points)


# (module, attribute, span name, result summary); every span name is the
# layer prefix of the metrics in ``layer_metrics``
LAYERS = [
    ("integrate", "integrate", "integrate", _integrate_info),
    ("manifolds", "grow_branch", "manifolds.grow_branch", _branch_info),
    ("connections", "splitting", "connections.splitting", _point_info),
    ("equilibria", "find_equilibrium", "equilibria.find_equilibrium", None),
    ("equilibria", "saddle_data", "equilibria.saddle_data", None),
    ("continuation", "find_reversible_contour",
     "continuation.find_reversible_contour", None),
    ("continuation", "_reversible_splitting",
     "continuation.reversible_splitting", None),
    ("continuation", "continue_curve", "continuation.continue_curve",
     _curve_info),
    ("continuation", "find_codim2", "continuation.find_codim2", None),
    ("continuation", "flashing_series", "continuation.flashing_series", None),
    ("diagrams", "find_curve_start", "diagrams.find_curve_start", None),
    ("diagrams", "flow_cycle_count", "diagrams.flow_cycle_count", None),
    ("diagrams", "assemble_diagram", "diagrams.assemble_diagram", None),
    ("cycles", "return_map", "cycles.return_map", None),
    ("modelmap", "fixed_point_count", "modelmap.fixed_point_count", None),
    ("modelmap", "bifurcation_set", "modelmap.bifurcation_set", None),
    ("cli", "cmd_diagram", "cli.cmd_diagram", None),
]

# per-layer metric names and units, in report order
METRICS = [
    ("vectorfield.rhs_calls", "count"),
    ("vectorfield.compiled_fields", "count"),
    ("integrate.calls", "count"),
    ("integrate.s", "s"),
    ("integrate.steps_per_call", "steps"),
    ("integrate.rk_steps", "count"),
    ("integrate.us_per_step", "us"),
] + [(f"integrate.end.{t}", "count") for t in TERMINATIONS] + [
    ("integrate.end.other", "count"),
    ("manifolds.grow_branch.calls", "count"),
    ("manifolds.grow_branch.s", "s"),
    ("manifolds.grow_branch.chunks_per_branch", "chunks"),
    ("manifolds.grow_branch.end.time_limit", "count"),
    ("manifolds.grow_branch.hit_time_share", "ratio"),
    ("connections.splitting.calls", "count"),
    ("connections.splitting.s", "s"),
    ("connections.splitting.self_s", "s"),
    ("connections.splitting.rk_steps_per_call", "steps"),
    ("connections.splitting.errors", "count"),
    ("equilibria.find_equilibrium.calls", "count"),
    ("equilibria.find_equilibrium.s", "s"),
    ("equilibria.saddle_data.calls", "count"),
    ("equilibria.saddle_data.s", "s"),
    ("continuation.find_reversible_contour.gap_evals", "count"),
    ("continuation.continue_curve.s", "s"),
    ("continuation.continue_curve.points", "count"),
    ("continuation.continue_curve.gap_evals", "count"),
    ("continuation.find_codim2.s", "s"),
    ("continuation.find_codim2.gap_evals", "count"),
    ("continuation.flashing_series.gap_evals", "count"),
    ("continuation.flashing_series.repeat_points", "count"),
    ("diagrams.find_curve_start.s", "s"),
    ("diagrams.find_curve_start.gap_evals", "count"),
    ("cycles.return_map.calls", "count"),
    ("cycles.return_map.s", "s"),
    ("cycles.return_map.defined_share", "ratio"),
    ("diagrams.flow_cycle_count.s", "s"),
    ("modelmap.fixed_point_count.calls", "count"),
    ("modelmap.fixed_point_count.s", "s"),
    ("modelmap.bifurcation_set.s", "s"),
    ("cli.artifacts_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Spans of one traced run; ``install`` and ``uninstall`` bracket it."""

    def __init__(self):
        self.spans = []          # [name, parent index, start, end, info]
        self._stack = []
        self._rhs_calls = [0]
        self._fields = {}        # id -> closure, held so ids stay distinct
        self._saved = []

    @property
    def rhs_calls(self):
        return self._rhs_calls[0]

    @property
    def compiled_fields(self):
        return len(self._fields)

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = ("error", type(exc).__name__)
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(out, args, kwargs)
            return out
        return traced

    def _count_rhs(self, compiled_rhs):
        calls, fields = self._rhs_calls, self._fields

        @functools.wraps(compiled_rhs)
        def counted_compiled_rhs(system, params):
            fn = compiled_rhs(system, params)
            fields.setdefault(id(fn), fn)

            def rhs(t, z):
                calls[0] += 1
                return fn(t, z)
            return rhs
        return counted_compiled_rhs

    def install(self):
        from hetcontour import vectorfield
        for mod_name, attr, name, info in LAYERS:
            mod = importlib.import_module(f"hetcontour.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, info))
        cls = vectorfield.ParametricSystem
        self._saved.append((cls, "compiled_rhs", cls.compiled_rhs))
        cls.compiled_rhs = self._count_rhs(cls.compiled_rhs)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        """Dump every span, with times relative to the first one."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[name, parent, start - t0, end - t0, info]
                for name, parent, start, end, info in self.spans]
        path.write_text(json.dumps({
            "fields": ["name", "parent", "start_s", "end_s", "info"],
            "spans": rows,
            "summary": span_summary(self.spans)}) + "\n")


def span_summary(spans):
    """Calls, total time and self time (duration minus direct children)."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, _, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced_s, untraced_s):
    """The per-layer figures of one traced round, keyed as in METRICS."""
    spans = tracer.spans
    summary = span_summary(spans)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("s", 0.0)

    def ancestors(i):
        names = set()
        parent = spans[i][1]
        while parent >= 0:
            names.add(spans[parent][0])
            parent = spans[parent][1]
        return names

    drivers = ("continuation.continue_curve", "continuation.find_codim2",
               "continuation.flashing_series", "diagrams.find_curve_start")
    gap_evals = dict.fromkeys(drivers, 0)
    seen_points, repeats, split_errors = set(), 0, 0
    rk_steps = split_steps = chunks = 0
    ends = dict.fromkeys(TERMINATIONS + ["other"], 0)
    branch_time_limit, hit_t, end_t = 0, 0.0, 0.0
    returns_undefined = 0
    for i, (name, parent, start, end, info) in enumerate(spans):
        errored = isinstance(info, tuple) and info[:1] == ("error",)
        if name == "integrate":
            if errored:
                continue
            steps, reason = info
            rk_steps += steps
            ends[reason if reason in ends else "other"] += 1
            up = ancestors(i)
            if "connections.splitting" in up:
                split_steps += steps
            if parent >= 0 and spans[parent][0] == "manifolds.grow_branch":
                chunks += 1
        elif name == "manifolds.grow_branch":
            if errored:
                continue
            reason, t_end, t_hit, sectioned = info
            branch_time_limit += reason == "time_limit"
            if sectioned:
                hit_t += t_hit
                end_t += t_end
        elif name == "connections.splitting":
            split_errors += errored
            up = ancestors(i)
            for d in drivers:
                gap_evals[d] += d in up
            if "continuation.flashing_series" in up and not errored:
                repeats += info in seen_points
                seen_points.add(info)
        elif name == "cycles.return_map":
            returns_undefined += errored

    integrate_s = total("integrate")
    m = {
        "vectorfield.rhs_calls": tracer.rhs_calls,
        "vectorfield.compiled_fields": tracer.compiled_fields,
        "integrate.calls": calls("integrate"),
        "integrate.s": integrate_s,
        "integrate.steps_per_call": _ratio(rk_steps, calls("integrate")),
        "integrate.rk_steps": rk_steps,
        "integrate.us_per_step": _ratio(1e6 * integrate_s, rk_steps),
    }
    m.update({f"integrate.end.{k}": v for k, v in ends.items()})
    n_branch = calls("manifolds.grow_branch")
    n_split = calls("connections.splitting")
    m.update({
        "manifolds.grow_branch.calls": n_branch,
        "manifolds.grow_branch.s": total("manifolds.grow_branch"),
        "manifolds.grow_branch.chunks_per_branch": _ratio(chunks, n_branch),
        "manifolds.grow_branch.end.time_limit": branch_time_limit,
        "manifolds.grow_branch.hit_time_share": _ratio(hit_t, end_t),
        "connections.splitting.calls": n_split,
        "connections.splitting.s": total("connections.splitting"),
        # its only traced children are the two grow_branch calls
        "connections.splitting.self_s":
            summary.get("connections.splitting", {}).get("self_s", 0.0),
        "connections.splitting.rk_steps_per_call":
            _ratio(split_steps, n_split),
        "connections.splitting.errors": split_errors,
        "equilibria.find_equilibrium.calls":
            calls("equilibria.find_equilibrium"),
        "equilibria.find_equilibrium.s": total("equilibria.find_equilibrium"),
        "equilibria.saddle_data.calls": calls("equilibria.saddle_data"),
        "equilibria.saddle_data.s": total("equilibria.saddle_data"),
        "continuation.find_reversible_contour.gap_evals":
            calls("continuation.reversible_splitting"),
        "continuation.continue_curve.s": total("continuation.continue_curve"),
        "continuation.continue_curve.points": sum(
            s[4] for s in spans if s[0] == "continuation.continue_curve"
            and isinstance(s[4], int)),
        "continuation.continue_curve.gap_evals":
            gap_evals["continuation.continue_curve"],
        "continuation.find_codim2.s": total("continuation.find_codim2"),
        "continuation.find_codim2.gap_evals":
            gap_evals["continuation.find_codim2"],
        "continuation.flashing_series.gap_evals":
            gap_evals["continuation.flashing_series"],
        "continuation.flashing_series.repeat_points": repeats,
        "diagrams.find_curve_start.s": total("diagrams.find_curve_start"),
        "diagrams.find_curve_start.gap_evals":
            gap_evals["diagrams.find_curve_start"],
        "cycles.return_map.calls": calls("cycles.return_map"),
        "cycles.return_map.s": total("cycles.return_map"),
        "cycles.return_map.defined_share":
            _ratio(calls("cycles.return_map") - returns_undefined,
                   calls("cycles.return_map")),
        "diagrams.flow_cycle_count.s": total("diagrams.flow_cycle_count"),
        "modelmap.fixed_point_count.calls":
            calls("modelmap.fixed_point_count"),
        "modelmap.fixed_point_count.s": total("modelmap.fixed_point_count"),
        "modelmap.bifurcation_set.s": total("modelmap.bifurcation_set"),
        "cli.artifacts_s": total("cli.cmd_diagram")
            - total("diagrams.assemble_diagram"),
        "trace.spans": len(spans),
        "trace.overhead_s": traced_s - untraced_s,
    })
    return m
