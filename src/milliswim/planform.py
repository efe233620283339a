"""Plate planform geometry and resistive drag factors.

A planform is a chord-height profile h(x) over a span [-l1, l2] measured from
the plate's rotation axis, in mm. The resistive drag factor (RDF) is the
integral of h(x)*|x|^3 over the span (mm^5); it scales the quadratic-drag
reactive torque acting on the plate. A planform is its chord's polynomial
pieces, which the builders (rectangle, parabola, tabulated) set up, so its RDF
has a closed form.
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
        for piece in self.pieces:
            if not (isinstance(piece, tuple) and len(piece) == 6
                    and all(_is_number(v) and math.isfinite(v) for v in piece)):
                raise InvalidPlanformError(
                    f"a chord piece is a tuple of six finite numbers, got {piece!r}")
            lo, hi = piece[:2]
            if not lo < hi:
                raise InvalidPlanformError(f"chord piece [{lo:g}, {hi:g}] is empty")
            if lo < -self.l1 or hi > self.l2:
                raise InvalidPlanformError(f"chord piece [{lo:g}, {hi:g}] leaves the span "
                                           f"[{-self.l1:g}, {self.l2:g}]")
        spans = sorted(piece[:2] for piece in self.pieces)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            if lo < hi:
                raise InvalidPlanformError(f"chord pieces overlap on [{lo:g}, {hi:g}]")

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
        if not (0 < r < math.inf and math.isfinite(h0 / r / r)):
            raise InvalidPlanformError(
                f"root must be finite and positive, with height/root^2 finite, got {r:g}")
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
        for name, v in (("i_head", self.i_head), ("i_tail", self.i_tail)):
            if not 0 < v < math.inf:
                raise InvalidPlanformError(f"{name} must be finite and positive, got {v:g}")

    @property
    def ratio_head_over_tail(self) -> float:
        return self.i_head / self.i_tail


def _side_rdf(a, w, h, s, c):
    """Integral of (h + s*t + c*t^2) * (a + t)^3 over t in [0, w]: the RDF of a
    piece on one side of the axis, in t = |x| - a from its end nearest the axis
    (h, s: chord and outward slope there). Horner's rule in w: each term scales
    as w^k, so nothing cancels with the distance a; a product holding a takes
    it before h, s or c, so at a = 0 an overflowing chord gives inf, not nan."""
    return w * (a * a * a * h + w * (a * a * (h + a * s / 3.0) * 1.5 + w * (
        a * (h + a * (s + a * c / 3.0)) + w * (0.25 * h + 0.75 * a * (s + a * c) + w * (
            0.2 * s + 0.6 * a * c + w * c / 6.0)))))


def resistive_drag_factor(p: Planform) -> float:
    """RDF = integral of h(x)*|x|^3 dx over [-l1, l2], in mm^5.

    The chord is polynomial pieces of degree <= 2, so the RDF is the sum of one
    closed form (_side_rdf) per piece and side of the axis, within a few ulps of
    the exact integral of the pieces. A planform whose RDF overflows raises
    DomainError.
    """
    rdf = 0.0
    for lo, hi, x0, h0, slope, curv in p.pieces:
        if hi > 0.0:  # x in [a, hi], a = max(lo, 0)
            a = lo if lo > 0.0 else 0.0
            u = a - x0
            rdf += _side_rdf(a, hi - a, h0 + u * (slope + u * curv), slope + 2.0 * u * curv, curv)
        if lo < 0.0:  # x in [lo, b], b = min(hi, 0), where |x| grows as x falls
            b = hi if hi < 0.0 else 0.0
            u = b - x0
            rdf += _side_rdf(-b, b - lo, h0 + u * (slope + u * curv), -slope - 2.0 * u * curv, curv)
    if not math.isfinite(rdf):
        raise DomainError(f"RDF is not finite: {rdf:g}")
    return rdf


def rdf_report(head: Planform, tail: Planform) -> RdfReport:
    """Compute both RDFs and package the rectilinear-swimming balance ratio."""
    return RdfReport(i_head=resistive_drag_factor(head), i_tail=resistive_drag_factor(tail))


def rdf_report_from_constants(i_head_mm5: float, i_tail_mm5: float) -> RdfReport:
    """Wrap externally known RDF values (e.g. stored design constants)."""
    return RdfReport(i_head=float(i_head_mm5), i_tail=float(i_tail_mm5))
