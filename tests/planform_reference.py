"""The resistive drag factor with its Gauss-Legendre panel rule as a function
taking the integrand, and the chord as a closure built per piece: the reference
that planform.resistive_drag_factor must reproduce bit for bit."""

import math

from milliswim.errors import DomainError
from milliswim.planform import _GAUSS_NODE, Planform


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
    """planform.resistive_drag_factor with one _gauss3 call, and four Python
    calls, per panel. Looks _gauss3 up in this module at call time, so a test
    may patch it to count integrand evaluations."""
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
