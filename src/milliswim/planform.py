"""Plate planform geometry and resistive drag factors.

A planform is a chord-height profile h(x) over a span [-l1, l2] measured from
the plate's rotation axis, in mm. The resistive drag factor (RDF) is the
integral of h(x)*|x|^3 over the span (mm^5); it scales the quadratic-drag
reactive torque acting on the plate. A planform is its chord's polynomial
pieces, which the builders (rectangle, parabola, tabulated) set up, so its RDF
is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DomainError, InvalidPlanformError

# Constants for the swimmer designs discussed in the docs, mm^5.
NEW_DESIGN_RDF_HEAD = 1.14e5
NEW_DESIGN_RDF_TAIL = 1.07e4
OLD_DESIGN_RDF_HEAD = 1.88e4
OLD_DESIGN_RDF_TAIL = 2.19e4

# 3-point Gauss-Legendre node offset, as a share of the panel half-width.
_GAUSS_NODE = math.sqrt(0.6)

# The keys a planform JSON config holds besides "kind", per kind, in the order
# of the arguments of the Planform builder of that name.
PLANFORM_KEYS = {"rectangle": ("height_mm", "l1_mm", "l2_mm"),
                 "parabola": ("height_mm", "root_mm", "l1_mm"),  # l1_mm may be left out: 0
                 "tabulated": ("points", "l1_mm", "l2_mm")}


def _is_number(v) -> bool:
    """Whether a JSON value is a number (true and false are not)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _height(height) -> float:
    """A builder's chord height, checked to be finite and nonnegative."""
    h = float(height)
    if not 0 <= h < math.inf:
        raise InvalidPlanformError(f"height must be finite and nonnegative, got {h:g}")
    return h


@dataclass(frozen=True)
class Planform:
    """Chord profile of a head or tail plate.

    The span runs over [-l1, l2] (mm) with the rotation axis at x = 0. pieces
    holds the chord height (mm) as polynomial pieces (lo, hi, x0, h0, slope,
    curv): h(x) = h0 + u*(slope + u*curv) with u = x - x0 on [lo, hi], and
    h = 0 on the span outside every piece.
    """

    l1: float
    l2: float
    pieces: tuple[tuple[float, float, float, float, float, float], ...]

    def __post_init__(self):
        if not (math.isfinite(self.l1) and math.isfinite(self.l2)):
            raise InvalidPlanformError("l1 and l2 must be finite")
        if self.l1 < 0 or self.l2 < 0:
            raise InvalidPlanformError("l1 and l2 must be nonnegative")
        if self.l1 + self.l2 <= 0:
            raise InvalidPlanformError("span l1 + l2 must be positive")

    @staticmethod
    def rectangle(height: float, l1: float, l2: float) -> "Planform":
        h = _height(height)
        return Planform(l1, l2, ((-float(l1), float(l2), 0.0, h, 0.0, 0.0),))

    @staticmethod
    def parabola(height: float, root: float, l1: float = 0.0) -> "Planform":
        """Parabolic chord h(x) = height * (1 - (x/root)^2), clipped at zero.

        With l1 > root the chord is 0 on [-l1, -root], outside the one piece.
        """
        h0, r = _height(height), float(root)
        if not 0 < r < math.inf:
            raise InvalidPlanformError(f"root must be finite and positive, got {r:g}")
        return Planform(l1, r, ((-min(float(l1), r), r, 0.0, h0, 0.0, -h0 / r / r),))

    @staticmethod
    def tabulated(points, l1: float, l2: float) -> "Planform":
        """Piecewise-linear chord through (x, h) knots that cover [-l1, l2].

        Knots need distinct, finite x, finite nonnegative heights, a finite
        slope between neighbours, and at least two of them; any order is
        accepted.
        """
        pts = sorted((float(x), float(h)) for x, h in points)
        l1, l2 = float(l1), float(l2)
        if len(pts) < 2:
            raise InvalidPlanformError("a tabulated chord needs at least 2 knots")
        if not all(math.isfinite(v) for pt in pts for v in pt):
            raise InvalidPlanformError("knot coordinates must be finite")
        xs = tuple(x for x, _ in pts)
        hs = tuple(h for _, h in pts)
        if not all(x1 > x0 and math.isfinite((h1 - h0) / (x1 - x0))
                   for x0, x1, h0, h1 in zip(xs, xs[1:], hs, hs[1:])):
            raise InvalidPlanformError("duplicate knot x values, or a slope that is not finite")
        if min(hs) < 0:
            raise InvalidPlanformError(f"negative knot height {min(hs):g}")
        if xs[0] > -l1 or xs[-1] < l2:
            raise InvalidPlanformError(
                f"knots span [{xs[0]:g}, {xs[-1]:g}], which does not cover "
                f"[{-l1:g}, {l2:g}]"
            )
        # one linear piece per knot interval that overlaps the span, in the
        # coordinate local to the interval's left knot
        pieces = tuple((max(x0, -l1), min(x1, l2), x0, h0, (h1 - h0) / (x1 - x0), 0.0)
                       for x0, x1, h0, h1 in zip(xs, xs[1:], hs, hs[1:]) if x0 < l2 and x1 > -l1)
        return Planform(l1, l2, pieces)

    @staticmethod
    def from_config(cfg: dict) -> "Planform":
        """Build a planform from a config mapping (see from_file for schema)."""
        if not isinstance(cfg, dict):
            raise InvalidPlanformError(f"a planform config is a JSON object, not {cfg!r}")
        kind = cfg.get("kind")
        if not isinstance(kind, str) or kind not in PLANFORM_KEYS:
            raise InvalidPlanformError(f"unknown planform kind {kind!r}")
        unknown = sorted(set(cfg) - {"kind", *PLANFORM_KEYS[kind]})
        if unknown:
            raise InvalidPlanformError(f"unknown key {unknown[0]!r} for a {kind} planform")
        cfg = {"l1_mm": 0.0, **cfg} if kind == "parabola" else cfg
        missing = [key for key in PLANFORM_KEYS[kind] if key not in cfg]
        if missing:
            raise InvalidPlanformError(f"missing key {missing[0]!r} for a {kind} planform")
        args = [cfg[key] for key in PLANFORM_KEYS[kind]]
        for key, v in zip(PLANFORM_KEYS[kind], args):
            if key != "points" and not _is_number(v):
                raise InvalidPlanformError(f"{key} must be a number, got {v!r}")
            if key == "points" and not (isinstance(v, list) and all(
                    isinstance(pt, list) and len(pt) == 2 and all(map(_is_number, pt))
                    for pt in v)):
                raise InvalidPlanformError(f"points must be a list of [x, h] numbers, got {v!r}")
        return getattr(Planform, kind)(*args)

    @staticmethod
    def from_file(path) -> "Planform":
        """Load a planform from a JSON object: "kind" (a key of PLANFORM_KEYS) and
        that kind's keys, lengths in mm. Any other key, "label" included, raises
        InvalidPlanformError."""
        with open(path) as f:
            return Planform.from_config(json.load(f))


@dataclass(frozen=True)
class RdfReport:
    """Resistive drag factors of a head/tail pair, mm^5."""

    i_head: float
    i_tail: float

    def __post_init__(self):
        if not (0 < self.i_head < math.inf and 0 < self.i_tail < math.inf):
            raise InvalidPlanformError("RDFs must be finite and strictly positive")

    @property
    def ratio_head_over_tail(self) -> float:
        return self.i_head / self.i_tail


def resistive_drag_factor(p: Planform) -> float:
    """RDF = integral of h(x)*|x|^3 dx over [-l1, l2], in mm^5.

    The chord is polynomial pieces of degree <= 2, so on each piece, split at
    the axis, the integrand is a polynomial of degree <= 5, which one 3-point
    Gauss-Legendre panel integrates exactly. The nodes are interior, so neither
    the axis nor a span end is evaluated, bar the midpoint of a panel only
    subnormals wide. The rule and the chord are written inline: no call per
    panel or node.
    """
    panels = []
    for lo, hi, x0, h0, slope, curv in p.pieces:
        for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
            if a < b:
                c, r = 0.5 * (a + b), 0.5 * (b - a)
                u = c - x0
                fc = (h0 + u * (slope + u * curv)) * abs(c) ** 3
                # A panel narrower than sys.float_info.min (a few subnormals by
                # the axis) gets one evaluation, at its midpoint c: its nodes
                # c -+ d could round out of it, and out of the span. The
                # integrand underflows to 0 there.
                if r < 1.1125369292536007e-308:  # 0.5 * sys.float_info.min
                    panels.append((b - a) * fc)
                    continue
                d = r * _GAUSS_NODE
                u = c - d - x0
                fa = (h0 + u * (slope + u * curv)) * abs(c - d) ** 3
                u = c + d - x0
                fb = (h0 + u * (slope + u * curv)) * abs(c + d) ** 3
                panels.append(r * (5.0 * fa + 8.0 * fc + 5.0 * fb) / 9.0)
    try:
        rdf = math.fsum(panels)
    except OverflowError:  # finite panels whose sum is not
        rdf = math.inf
    if not math.isfinite(rdf):
        raise DomainError(f"RDF is not finite: {rdf:g}")
    return rdf


def rdf_report(head: Planform, tail: Planform) -> RdfReport:
    """Compute both RDFs and package the rectilinear-swimming balance ratio."""
    return RdfReport(i_head=resistive_drag_factor(head), i_tail=resistive_drag_factor(tail))


def rdf_report_from_constants(i_head_mm5: float, i_tail_mm5: float) -> RdfReport:
    """Wrap externally known RDF values (e.g. stored design constants)."""
    return RdfReport(i_head=float(i_head_mm5), i_tail=float(i_tail_mm5))
