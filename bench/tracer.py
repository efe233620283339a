"""Timing and counting wrappers around milliswim's layer boundaries.

The tracer replaces module-level names through which one layer calls another
(for example ``milliswim.harness.step``) with wrappers from this file, and
puts the originals back on ``restore``. Nothing under ``src/`` changes.

A *span* wrapper records (name, start, end, parent) for every call in
``array`` buffers kept in memory; a *count* wrapper only increments a
counter, for boundaries crossed about a million times per batch
(``chord_at``) where a span would dominate the cost. Self time of a span is
its duration minus the time its child spans cover, corrected by a calibrated
per-wrapper cost so that probe overhead is not charged to the caller. The
hooks that derive counters from arguments and results (saturation, segment
switches, mode mix, RK4 steps) are not calibrated; their cost stays in the
caller's self time and in the reported tracing overhead.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

import numpy as np

MODES = ("bimorph", "unimorph_left", "unimorph_right", "mixed", "idle")


def _noop():
    return None


class Tracer:
    def __init__(self, calibrate: bool = True):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.inner = array("i")  # count-wrapper calls made directly inside each span
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        if calibrate:
            self._calibrate()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn, hook=None):
        """Wrap fn so each call records a span; hook(out, args, kwargs, ctx)
        runs after the span closes, with ctx from hook.before(args, kwargs)."""
        nid = self._id(name)
        ids, parents, starts, ends, inner = (
            self.name_id, self.parent, self.start, self.end, self.inner)
        stack = self._stack
        clock = time.perf_counter
        before = getattr(hook, "before", None)

        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            inner.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(out, args, kwargs, ctx)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn, hook=None):
        """Wrap fn so each call only increments the counter `name`."""
        counts = self.counts
        inner = self.inner
        stack = self._stack

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack[-1] >= 0:
                inner[stack[-1]] += 1
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(out, args, kwargs, None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _calibrate(self, n: int = 20000):
        """Measure what one span and one count wrapper add to a call.

        c0: an unwrapped call; w: the recorded duration of a wrapped no-op;
        cw / cc: a call through a span / count wrapper. A span's recorded
        duration overstates its work by w - c0; its caller pays a further
        cw - w outside the span, and cc - c0 per count-wrapped call.
        """
        clock = time.perf_counter
        probe = Tracer(calibrate=False)
        spanned = probe.span("noop", _noop)
        counted = probe.count("noop", _noop)
        best = {}
        for _ in range(3):
            for key, fn in (("c0", _noop), ("cw", spanned), ("cc", counted)):
                t0 = clock()
                for _ in range(n):
                    fn()
                dt = (clock() - t0) / n
                best[key] = min(best.get(key, dt), dt)
        w = float(np.median(np.frombuffer(probe.end, dtype=float)
                            - np.frombuffer(probe.start, dtype=float)))
        self.span_inside = max(0.0, w - best["c0"])
        self.span_outside = max(0.0, best["cw"] - best["c0"] - self.span_inside)
        self.count_cost = max(0.0, best["cc"] - best["c0"])

    # ------------------------------------------------------- install/restore

    def install(self, owner, attr, wrap) -> None:
        """Replace owner.attr with wrap(original); skipped if owner lacks it."""
        original = getattr(owner, attr, None)
        if original is not None:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- results

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (corrected)."""
        n = len(self.name_id)
        if n == 0:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        raw = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        inner = np.frombuffer(self.inner, dtype=np.int32)
        has_parent = parent >= 0
        child_cost = np.bincount(
            parent[has_parent],
            weights=raw[has_parent] + self.span_outside,
            minlength=n,
        )
        dur = raw - self.span_inside
        own = dur - child_cost - inner * self.count_cost
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selft = np.bincount(nid, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": max(0.0, float(total[i])),
                   "self_s": max(0.0, float(selft[i]))}
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        """Write every recorded span to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


# ------------------------------------------------------------------ hooks

class _TickHook:
    """Counts saturated channels and segment switches of closed_loop_tick."""

    def __init__(self, counts):
        self.counts = counts

    @staticmethod
    def before(args, kwargs):
        st = args[2] if len(args) > 2 else kwargs.get("st")
        return st, getattr(st, "active_segment", None)

    def __call__(self, cmd, args, kwargs, ctx):
        cfg = args[0] if args else kwargs.get("cfg")
        st, seg = ctx
        c = self.counts
        if cmd.dc_left >= cfg.u_max:
            c["control.saturated_ticks.left"] += 1
        if cmd.dc_right >= cfg.u_max:
            c["control.saturated_ticks.right"] += 1
        if getattr(st, "active_segment", None) != seg:
            c["control.segment_switches"] += 1


class _CycleHook:
    """Accumulates periods to converge and RK4 steps of simulate_cycle."""

    def __init__(self, counts, fn):
        self.counts = counts
        self.sig = inspect.signature(fn)

    def __call__(self, res, args, kwargs, ctx):
        bound = self.sig.bind(*args, **kwargs)
        bound.apply_defaults()
        periods = res.periods_to_converge
        self.counts["hydro.periods"] += periods
        self.counts["hydro.rk4_steps"] += (periods + 1) * bound.arguments["n_steps"]


def _mode_hook(counts):
    def hook(mode, args, kwargs, ctx):
        counts[f"actuator.mode.{mode.value}"] += 1
    return hook


def install_milliswim(tracer: Tracer) -> None:
    """Wrap the layer boundaries of milliswim that the benchmark traces."""
    from milliswim import harness, hydro, planform, plant, tables

    t = tracer
    c = t.counts

    def span(name, hook=None):
        return lambda fn: t.span(name, fn, hook)

    def count(name, hook=None):
        return lambda fn: t.count(name, fn, hook)

    def cycle_span(fn):
        return t.span("hydro.simulate_cycle", fn, _CycleHook(c, fn))

    t.install(harness, "run_tracking", span("harness"))
    t.install(harness, "cli_main", span("harness"))
    t.install(harness, "closed_loop_tick", span("control.tick", _TickHook(c)))
    t.install(harness, "command_to_rates", span("plant.command_to_rates"))
    t.install(harness, "step", span("plant.step"))
    t.install(harness, "measure", span("plant.measure"))
    t.install(harness, "trajectory_stats", span("metrics.trajectory_stats"))
    t.install(harness, "average_power", count("actuator.average_power"))
    t.install(harness, "simulate_cycle", cycle_span)
    t.install(plant, "classify_mode", count("actuator.classify_mode", _mode_hook(c)))
    t.install(tables.BilinearTable, "__call__", span("tables.lookup"))
    t.install(tables.BilinearTable, "node_provenance", span("tables.node_provenance"))
    t.install(planform, "resistive_drag_factor", span("planform.rdf"))
    t.install(planform, "chord_at", count("planform.chord_evals"))
    t.install(hydro, "resistive_drag_factor", span("planform.rdf"))
    t.install(hydro, "simulate_cycle", cycle_span)
    t.install(hydro, "reactive_torque", span("hydro.reactive_torque"))


# Counters that must repeat bit-for-bit for a given seed.
EXACT = (
    "planform.rdf.calls", "planform.chord_evals", "hydro.simulate_cycle.calls",
    "hydro.rk4_steps", "control.tick.calls", "control.saturated_ticks.left",
    "control.saturated_ticks.right", "control.segment_switches", "plant.step.calls",
    "tables.lookup.calls", "tables.node_provenance.calls",
    "actuator.classify_mode.calls", "actuator.average_power.calls",
    "metrics.trajectory_stats.calls", "tracing.spans",
) + tuple(f"actuator.mode.{m}" for m in MODES)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced batch (0 where a layer did not run)."""
    spans = tracer.span_table()
    c = tracer.counts

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_ms(name):
        return 1e3 * spans.get(name, {}).get("self_s", 0.0)

    def per_call_us(name, key="total_s"):
        s = spans.get(name)
        return 1e6 * s[key] / s["calls"] if s and s["calls"] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    ticks = calls("control.tick")
    rdf_calls = calls("planform.rdf")
    cycles = calls("hydro.simulate_cycle")
    m = {
        "planform.rdf.calls": rdf_calls,
        "planform.rdf.self_ms": self_ms("planform.rdf"),
        "planform.chord_evals": c["planform.chord_evals"],
        "planform.chord_evals_per_rdf": ratio(c["planform.chord_evals"], rdf_calls),
        "hydro.simulate_cycle.calls": cycles,
        "hydro.simulate_cycle.self_ms": self_ms("hydro.simulate_cycle"),
        "hydro.periods_to_converge": ratio(c["hydro.periods"], cycles),
        "hydro.rk4_steps": c["hydro.rk4_steps"],
        "hydro.reactive_torque.us_per_call": per_call_us("hydro.reactive_torque"),
        "control.tick.calls": ticks,
        "control.tick.us_per_call": per_call_us("control.tick"),
        "control.saturated_ticks.left": c["control.saturated_ticks.left"],
        "control.saturated_ticks.right": c["control.saturated_ticks.right"],
        "control.segment_switches": c["control.segment_switches"],
        "plant.command_to_rates.self_us_per_call":
            per_call_us("plant.command_to_rates", "self_s"),
        "plant.step.calls": calls("plant.step"),
        "plant.step.us_per_call": per_call_us("plant.step"),
        "plant.measure.us_per_call": per_call_us("plant.measure"),
        "plant.substeps_per_tick": ratio(calls("plant.step"), ticks),
        "tables.lookup.calls": calls("tables.lookup"),
        "tables.lookup.us_per_call": per_call_us("tables.lookup"),
        "tables.lookups_per_tick": ratio(calls("tables.lookup"), ticks),
        "tables.node_provenance.calls": calls("tables.node_provenance"),
        "actuator.classify_mode.calls": c["actuator.classify_mode"],
        "actuator.average_power.calls": c["actuator.average_power"],
        "metrics.trajectory_stats.calls": calls("metrics.trajectory_stats"),
        "metrics.trajectory_stats.self_ms": self_ms("metrics.trajectory_stats"),
        "harness.self_ms": self_ms("harness"),
        "harness.self_us_per_tick": ratio(1e3 * self_ms("harness"), ticks),
        "tracing.spans": len(tracer.name_id),
    }
    for mode in MODES:
        m[f"actuator.mode.{mode}"] = c[f"actuator.mode.{mode}"]
    return m
