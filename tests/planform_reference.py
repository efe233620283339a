"""Two reference rules for the resistive drag factor, which
planform.resistive_drag_factor must agree with (TestMatchesReference):

- exact_rdf, the integral of a planform's pieces in rationals, with no rounding;
- resistive_drag_factor, the 3-point Gauss-Legendre panel rule the package
  used before its closed form, with the rule as a function taking the
  integrand and the chord as a closure built per piece. It is exact in exact
  arithmetic for the degree-5 integrand of a piece, so it is a second,
  independently rounded rule."""

import math
from fractions import Fraction

from milliswim.errors import DomainError
from milliswim.planform import Planform

# 3-point Gauss-Legendre node offset, as a share of the panel half-width.
_GAUSS_NODE = math.sqrt(0.6)


def exact_rdf(p: Planform) -> Fraction:
    """The integral of h(x)*|x|^3 over the span, each piece
    (lo, hi, x0, h0, slope, curv) of p split at the axis, in Fractions."""
    total = Fraction(0)
    for lo, hi, x0, h0, slope, curv in p.pieces:
        lo, hi, x0, h0, slope, curv = map(Fraction, (lo, hi, x0, h0, slope, curv))
        # h(x) = c0 + c1*x + c2*x^2 about the axis, and F' = h(x)*x^3
        c0, c1, c2 = h0 - x0 * (slope - x0 * curv), slope - 2 * x0 * curv, curv

        def prim(x):
            return x**4 * (c0 / 4 + x * (c1 / 5 + x * c2 / 6))

        if lo < 0:  # |x|^3 = -x^3
            total -= prim(min(hi, Fraction(0))) - prim(lo)
        if hi > 0:
            total += prim(hi) - prim(max(lo, Fraction(0)))
    return total


def _gauss3(f, a, b):
    """3-point Gauss-Legendre estimate of the integral of f over [a, b], a < b."""
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    # A panel narrower than sys.float_info.min (a few subnormals by the axis)
    # gets one evaluation, at its midpoint c: its nodes c -+ d could round out
    # of it, and out of the span. The integrand underflows to 0 there.
    if r < 1.1125369292536007e-308:  # 0.5 * sys.float_info.min
        return (b - a) * f(c)
    d = r * _GAUSS_NODE
    return r * (5.0 * f(c - d) + 8.0 * f(c) + 5.0 * f(c + d)) / 9.0


def resistive_drag_factor(p: Planform) -> float:
    """The RDF by one _gauss3 panel per piece and side of the axis, summed with
    math.fsum. Looks _gauss3 up in this module at call time, so a test may
    patch it to count integrand evaluations."""
    panels = []
    for lo, hi, x0, h0, slope, curv in p.pieces:
        def f(x):
            u = x - x0
            return (h0 + u * (slope + u * curv)) * abs(x) ** 3

        for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
            if a < b:
                panels.append(_gauss3(f, a, b))
    try:
        rdf = math.fsum(panels)
    except OverflowError:  # finite panels whose sum is not
        rdf = math.inf
    if not math.isfinite(rdf):
        raise DomainError(f"RDF is not finite: {rdf:g}")
    return rdf
