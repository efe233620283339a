"""Plate planform geometry and resistive drag factors.

A planform is a chord-height profile h(x) over a span [-l1, l2] measured from
the plate's rotation axis, in mm. The resistive drag factor (RDF) is the
integral of h(x)*|x|^3 over the span (mm^5); it scales the quadratic-drag
reactive torque acting on the plate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidPlanformError

# Constants for the swimmer designs discussed in the docs, mm^5.
NEW_DESIGN_RDF_HEAD = 1.14e5
NEW_DESIGN_RDF_TAIL = 1.07e4
OLD_DESIGN_RDF_HEAD = 1.88e4
OLD_DESIGN_RDF_TAIL = 2.19e4

# Adaptive Simpson controls for the RDF quadrature: per-panel relative
# tolerance and recursion depth.
SIMPSON_REL_TOL = 1e-9
SIMPSON_MAX_DEPTH = 40


@dataclass(frozen=True)
class Planform:
    """Chord profile of a head or tail plate.

    chord_fn maps span position x (mm) to chord height (mm); the span runs
    over [-l1, l2] with the rotation axis at x = 0. kinks lists the x values
    where the chord's slope jumps (the knots of a tabulated chord); the RDF
    quadrature splits its panels there.
    """

    chord_fn: Callable[[float], float]
    l1: float
    l2: float
    label: str = "tail"
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        if self.l1 < 0 or self.l2 < 0:
            raise InvalidPlanformError("l1 and l2 must be nonnegative")
        if self.l1 + self.l2 <= 0:
            raise InvalidPlanformError("span l1 + l2 must be positive")

    @staticmethod
    def rectangle(height: float, l1: float, l2: float, label: str = "tail") -> "Planform":
        return Planform(lambda x, h=float(height): h, l1, l2, label)

    @staticmethod
    def parabola(height: float, root: float, l1: float = 0.0, label: str = "tail") -> "Planform":
        """Parabolic chord h(x) = height * (1 - (x/root)^2), clipped at zero."""

        def h(x, h0=float(height), r=float(root)):
            return max(0.0, h0 * (1.0 - (x / r) ** 2))

        return Planform(h, l1, root, label)

    @staticmethod
    def tabulated(points, l1: float, l2: float, label: str = "tail") -> "Planform":
        """Piecewise-linear chord through (x, h) knots that cover [-l1, l2].

        Knots need distinct, finite x, finite nonnegative heights, and at
        least two of them; any order is accepted.
        """
        pts = sorted((float(x), float(h)) for x, h in points)
        if len(pts) < 2:
            raise InvalidPlanformError("a tabulated chord needs at least 2 knots")
        if not all(math.isfinite(v) for pt in pts for v in pt):
            raise InvalidPlanformError("knot coordinates must be finite")
        xs = tuple(x for x, _ in pts)
        hs = tuple(h for _, h in pts)
        if any(x0 == x1 for x0, x1 in zip(xs, xs[1:])):
            raise InvalidPlanformError("duplicate knot x values")
        if min(hs) < 0:
            raise InvalidPlanformError(f"negative knot height {min(hs):g}")
        if xs[0] > -l1 or xs[-1] < l2:
            raise InvalidPlanformError(
                f"knots span [{xs[0]:g}, {xs[-1]:g}], which does not cover "
                f"[{-l1:g}, {l2:g}]"
            )

        def h(x, xa=np.array(xs), ha=np.array(hs)):
            return float(np.interp(x, xa, ha))

        return Planform(h, l1, l2, label, kinks=xs)

    @staticmethod
    def from_config(cfg: dict) -> "Planform":
        """Build a planform from a config mapping (see from_file for schema)."""
        kind = cfg["kind"]
        label = cfg.get("label", "tail")
        if kind == "rectangle":
            return Planform.rectangle(cfg["height_mm"], cfg["l1_mm"], cfg["l2_mm"], label)
        if kind == "parabola":
            return Planform.parabola(
                cfg["height_mm"], cfg["root_mm"], cfg.get("l1_mm", 0.0), label
            )
        if kind == "tabulated":
            return Planform.tabulated(cfg["points"], cfg["l1_mm"], cfg["l2_mm"], label)
        raise InvalidPlanformError(f"unknown planform kind {kind!r}")

    @staticmethod
    def from_file(path) -> "Planform":
        """Load a planform from a JSON config file.

        Schema: {"kind": "rectangle" | "parabola" | "tabulated",
                 "height_mm": ..., "l1_mm": ..., "l2_mm": ...,
                 "root_mm": ... (parabola), "points": [[x, h], ...] (tabulated),
                 "label": "head" | "tail"}
        """
        with open(path) as f:
            return Planform.from_config(json.load(f))


@dataclass(frozen=True)
class RdfReport:
    """Resistive drag factors of a head/tail pair, mm^5."""

    i_head: float
    i_tail: float

    def __post_init__(self):
        if not (self.i_head > 0 and self.i_tail > 0):
            raise InvalidPlanformError("RDFs must be strictly positive")

    @property
    def ratio_head_over_tail(self) -> float:
        return self.i_head / self.i_tail


def chord_at(p: Planform, x: float) -> float:
    """Chord height h(x) in mm; x must lie in [-l1, l2]."""
    if not (-p.l1 <= x <= p.l2):
        raise DomainError(f"x={x:g} outside span [{-p.l1:g}, {p.l2:g}]")
    h = p.chord_fn(x)
    if not math.isfinite(h):
        raise DomainError(f"chord is not finite at x={x:g}")
    if h < -1e-12:
        raise InvalidPlanformError(f"negative chord {h:g} at x={x:g}")
    return float(h)


def _adaptive_simpson(f, a, b):
    """Adaptive composite Simpson on [a, b], a < b."""

    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a_, b_, fa, fm, fb, whole, depth):
        m = 0.5 * (a_ + b_)
        lm, rm = 0.5 * (a_ + m), 0.5 * (m + b_)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        err = left + right - whole
        scale = max(abs(left + right), 1e-300)
        if depth <= 0 or abs(err) <= 15.0 * SIMPSON_REL_TOL * scale:
            return left + right + err / 15.0
        return recurse(a_, m, fa, flm, fm, left, depth - 1) + recurse(
            m, b_, fm, frm, fb, right, depth - 1
        )

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, a, b), SIMPSON_MAX_DEPTH)


def resistive_drag_factor(p: Planform) -> float:
    """RDF = integral of h(x)*|x|^3 dx over [-l1, l2], in mm^5.

    Runs adaptive Simpson over the panels between consecutive points of
    {-l1, 0, l2} and the chord's kinks strictly inside the span, so neither
    the |x|^3 kink at the axis nor a chord kink lies inside a panel. On each
    linear piece of a chord the integrand is a quartic, which Simpson with
    its Richardson step integrates exactly.
    """

    def integrand(x):
        v = chord_at(p, x) * abs(x) ** 3
        if not math.isfinite(v):
            raise DomainError(f"non-finite integrand at x={x:g}")
        return v

    inner = (k for k in p.kinks if -p.l1 < k < p.l2)
    edges = sorted({-p.l1, 0.0, p.l2, *inner})
    return math.fsum(_adaptive_simpson(integrand, a, b) for a, b in zip(edges, edges[1:]))


def rdf_report(head: Planform, tail: Planform) -> RdfReport:
    """Compute both RDFs and package the rectilinear-swimming balance ratio."""
    return RdfReport(i_head=resistive_drag_factor(head), i_tail=resistive_drag_factor(tail))


def rdf_report_from_constants(i_head_mm5: float, i_tail_mm5: float) -> RdfReport:
    """Wrap externally known RDF values (e.g. stored design constants)."""
    return RdfReport(i_head=float(i_head_mm5), i_tail=float(i_tail_mm5))
