import json
import math
import sys
from fractions import Fraction

import numpy as np
import planform_reference
import pytest
from hypothesis import assume, given, settings, strategies as st

from milliswim.errors import DomainError, InvalidPlanformError
from milliswim.planform import (
    NEW_DESIGN_RDF_HEAD,
    NEW_DESIGN_RDF_TAIL,
    OLD_DESIGN_RDF_HEAD,
    OLD_DESIGN_RDF_TAIL,
    Planform,
    rdf_report,
    rdf_report_from_constants,
    resistive_drag_factor,
)

# Both drag-factor rules lie within this relative distance of the rational
# integral of a planform's pieces (planform_reference.exact_rdf). Worst cases
# seen over 21 000 random planforms: the closed form 6.6e-16, the Gauss panel
# rule 1.4e-14 (on the steep-drop-at-minus-25 edge case, where its nodes round
# by an ulp of 25 mm across a 1 nm piece).
# An RDF below the smallest normal float (a span of a few subnormals) has no
# relative precision left, so that much absolute error is allowed on top.
REL_BOUND = 1e-13

# Frozen from the midpoint-rule oracle (1e6 uniform slices) for
# h(x) = 8*(1-(x/12)^2) over [0, 12]; analytic value is 8*(12^4/4 - 12^6/(6*144)).
PARABOLA_RDF = 13824.0


def midpoint_rdf(chord, a, b, n):
    x = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum(chord(x) * np.abs(x) ** 3) * (b - a) / n)


def exact_tabulated_rdf(knots, l1, l2):
    """Exact integral of the piecewise-linear chord times |x|^3 over [-l1, l2].

    Sums the antiderivative of (c0 + s*x)*x^3 over each linear piece, clipped
    to the span and split at x = 0, in rationals.
    """
    pts = sorted((Fraction(x), Fraction(h)) for x, h in knots)
    lo, hi = -Fraction(l1), Fraction(l2)
    total = Fraction(0)
    for (x0, h0), (x1, h1) in zip(pts, pts[1:]):
        s = (h1 - h0) / (x1 - x0)
        c0 = h0 - s * x0

        def prim(x):
            return c0 * x**4 / 4 + s * x**5 / 5

        for a, b in ((max(x0, lo), min(x1, hi, Fraction(0))),
                     (max(x0, lo, Fraction(0)), min(x1, hi))):
            if b > a:
                total += (prim(b) - prim(a)) * (-1 if b <= 0 else 1)
    return float(total)


def exact_parabola_rdf(height, root, l1):
    """Closed form of the clipped parabola's RDF, in rationals."""
    h, r = Fraction(height), Fraction(root)
    a = min(Fraction(l1), r)  # the chord is 0 beyond x = -root
    return float(h * (r**4 / 12 + a**4 / 4 - a**6 / (6 * r**2)))


def counted_rdf(monkeypatch, p):
    """The Gauss-Legendre reference RDF of p (planform_reference), and the x of
    every integrand evaluation it made."""
    xs = []
    real = planform_reference._gauss3

    def counting(f, a, b):
        def g(x):
            xs.append(x)
            return f(x)

        return real(g, a, b)

    monkeypatch.setattr(planform_reference, "_gauss3", counting)
    return planform_reference.resistive_drag_factor(p), xs


span_mm = st.floats(0.0, 25.0)
height_mm = st.floats(0.5, 25.0)


@st.composite
def tabulated_knots(draw):
    """(knots, l1, l2): knots at least 1 nm apart whose x values cover [-l1, l2]."""
    l1, l2 = draw(span_mm), draw(st.floats(0.5, 25.0))
    inner = sorted(draw(st.lists(st.floats(-l1, l2), max_size=12)))
    xs = [-l1 - draw(st.floats(0.0, 2.0))]
    for x in inner:
        if x - xs[-1] >= 1e-6:
            xs.append(x)
    hi = l2 + draw(st.floats(0.0, 2.0))
    if hi - xs[-1] < 1e-6:
        xs.pop()
    xs.append(hi)
    hs = draw(st.lists(st.floats(0.1, 10.0), min_size=len(xs), max_size=len(xs)))
    return list(zip(xs, hs)), l1, l2


@st.composite
def builder_chords(draw):
    """A rectangle, a parabola (clipped when l1 > root) or a tabulated chord, with
    the chord h(x) its builder documents."""
    kind = draw(st.sampled_from(["rectangle", "parabola", "tabulated"]))
    if kind == "rectangle":
        h, l1, l2 = draw(height_mm), draw(span_mm), draw(span_mm)
        assume(l1 + l2 > 0)
        return Planform.rectangle(h, l1, l2), lambda x: h
    if kind == "parabola":
        h, root = draw(height_mm), draw(st.floats(2.0, 25.0))
        p = Planform.parabola(h, root, draw(st.floats(0.0, 2.0)) * root)
        return p, lambda x: max(0.0, h * (1.0 - (x / root) ** 2))
    knots, l1, l2 = draw(tabulated_knots())
    xs, hs = zip(*sorted(knots))
    return Planform.tabulated(knots, l1, l2), lambda x: float(np.interp(x, xs, hs))


def assert_rules_near_exact(p):
    """Both the closed form and the Gauss reference lie within REL_BOUND of the
    rational integral of p's pieces."""
    exact = planform_reference.exact_rdf(p)
    for rule in (resistive_drag_factor, planform_reference.resistive_drag_factor):
        err = abs(Fraction(rule(p)) - exact)
        assert err <= REL_BOUND * exact + Fraction(sys.float_info.min), rule.__module__


def piece_chord(p, x):
    """The chord at x from p.pieces: the piece that holds x, else 0."""
    for lo, hi, x0, h0, slope, curv in p.pieces:
        if lo <= x <= hi:
            u = x - x0
            return h0 + u * (slope + u * curv)
    return 0.0


class TestChordAt:
    """The chord height at x, as the pieces give it."""

    def test_rectangle_center(self):
        p = Planform.rectangle(10.0, 5.0, 5.0)
        assert piece_chord(p, 0.0) == 10.0

    def test_rectangle_edge(self):
        p = Planform.rectangle(10.0, 5.0, 5.0)
        assert piece_chord(p, 5.0) == 10.0

    def test_parabola_root(self):
        p = Planform.parabola(8.0, 12.0)
        assert piece_chord(p, 12.0) == 0.0

    def test_out_of_domain(self):
        # no piece reaches past the span, so the RDF integrates no chord outside it
        for p in (Planform.rectangle(10.0, 5.0, 5.0), Planform.parabola(4.0, 10.0, 14.0),
                  Planform.tabulated([(-9.0, 1.0), (-5.0, 2.0), (12.0, 1.0)], 5.0, 10.0)):
            assert all(-p.l1 <= lo < hi <= p.l2 for lo, hi, *_ in p.pieces)


class TestResistiveDragFactor:
    def test_symmetric_rectangle(self):
        p = Planform.rectangle(10.0, 5.0, 5.0)
        assert resistive_drag_factor(p) == pytest.approx(3125.0, rel=1e-10)

    def test_one_sided_rectangle(self):
        p = Planform.rectangle(10.0, 0.0, 10.0)
        assert resistive_drag_factor(p) == pytest.approx(25000.0, rel=1e-10)

    def test_parabolic_tail_against_oracle(self):
        p = Planform.parabola(8.0, 12.0)
        assert resistive_drag_factor(p) == pytest.approx(PARABOLA_RDF, rel=1e-6)
        oracle = midpoint_rdf(lambda x: 8.0 * (1 - (x / 12.0) ** 2), 0.0, 12.0, 100_000)
        assert resistive_drag_factor(p) == pytest.approx(oracle, rel=1e-6)

    def test_rectangle_exactness_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h, l1, l2 = rng.uniform(0.5, 20.0, size=3)
            p = Planform.rectangle(h, l1, l2)
            exact = h * (l1**4 + l2**4) / 4.0
            assert resistive_drag_factor(p) == pytest.approx(exact, rel=1e-10)

    def test_pointwise_chord_monotonicity(self):
        small = Planform.parabola(8.0, 12.0)
        big = Planform.parabola(9.0, 12.0)
        assert resistive_drag_factor(big) > resistive_drag_factor(small)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_length_scaling_power_five(self, s):
        base = Planform.parabola(8.0, 12.0, l1=3.0)
        scaled = Planform.parabola(8.0 * s, 12.0 * s, l1=3.0 * s)
        assert resistive_drag_factor(scaled) == pytest.approx(
            s**5 * resistive_drag_factor(base), rel=1e-8
        )

    def test_invalid_span(self):
        with pytest.raises(InvalidPlanformError):
            Planform.rectangle(10.0, 0.0, 0.0)
        with pytest.raises(InvalidPlanformError):
            Planform.rectangle(10.0, -1.0, 5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["l1", "l2"])
    def test_non_finite_span(self, side, bad):
        spans = {"l1": 1.0, "l2": 1.0, side: bad}
        with pytest.raises(InvalidPlanformError, match="finite"):
            Planform.rectangle(1.0, spans["l1"], spans["l2"])


class TestClosedForms:
    """The closed form integrates chords of degree <= 2 per piece: it meets the
    rational closed forms of each builder to 1e-12."""

    @settings(max_examples=300, deadline=None)
    @given(height_mm, span_mm, span_mm)
    def test_rectangle(self, h, l1, l2):
        assume(l1 + l2 > 0)
        exact = float(Fraction(h) * (Fraction(l1) ** 4 + Fraction(l2) ** 4) / 4)
        p = Planform.rectangle(h, l1, l2)
        assert resistive_drag_factor(p) == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(height_mm, st.floats(2.0, 25.0), st.floats(0.0, 2.0))
    def test_parabola(self, height, root, frac):
        # frac > 1 clips the chord to 0 on [-l1, -root]
        l1 = frac * root
        p = Planform.parabola(height, root, l1)
        assert resistive_drag_factor(p) == pytest.approx(
            exact_parabola_rdf(height, root, l1), rel=1e-12)

    @pytest.mark.parametrize("height, root, frac", [
        (1.0, 3.0, 5e-324), (1.0, 2.5, 5e-324), (7.5, 20.0, 5e-324), (2.0, 2.0, 1e-308),
    ])
    def test_parabola_subnormal_l1(self, height, root, frac):
        # the side [-l1, 0] is a few subnormals wide: its terms underflow to 0
        # and must not disturb the other side's
        l1 = frac * root
        p = Planform.parabola(height, root, l1)
        assert resistive_drag_factor(p) == pytest.approx(
            exact_parabola_rdf(height, root, l1), rel=1e-12)

    @pytest.mark.parametrize("l1", [5e-324, 1.5e-323, 2.5e-323, 1e-320])
    def test_rectangle_subnormal_l1(self, l1):
        assert resistive_drag_factor(Planform.rectangle(2.0, l1, 1.0)) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(tabulated_knots())
    def test_tabulated(self, case):
        knots, l1, l2 = case
        p = Planform.tabulated(knots, l1, l2)
        assert resistive_drag_factor(p) == pytest.approx(
            exact_tabulated_rdf(knots, l1, l2), rel=1e-12)


class TestChordEvaluationBudget:
    """The Gauss reference makes three integrand evaluations per panel, a panel
    per piece and side of the axis, none at the axis or a span end."""

    @pytest.mark.parametrize("p, budget", [
        (Planform.rectangle(3.0, 5.0, 7.0), 6),
        (Planform.rectangle(3.0, 0.0, 7.0), 3),
        (Planform.parabola(8.0, 12.0), 3),
        (Planform.parabola(8.0, 12.0, 5.0), 6),
        (Planform.parabola(4.0, 10.0, 14.0), 6),  # no piece beyond the clip point
    ], ids=["rectangle", "one-sided-rectangle", "parabola", "parabola-l1",
            "clipped-parabola"])
    def test_smooth_chords(self, monkeypatch, p, budget):
        _, xs = counted_rdf(monkeypatch, p)
        assert len(xs) == budget
        # Gauss nodes are interior: never the axis nor a span end
        assert not {0.0, -p.l1, p.l2} & set(xs)

    @pytest.mark.parametrize("seed", range(4))
    def test_tabulated_nine_per_panel(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(-6.0, 18.0, 14))
        xs[0], xs[-1] = -6.0, 18.0
        p = Planform.tabulated(list(zip(xs, rng.uniform(0.5, 10.0, 14))), 6.0, 18.0)
        n_panels = len({-6.0, 0.0, 18.0, *xs}) - 1
        _, evals = counted_rdf(monkeypatch, p)
        assert len(evals) == 3 * n_panels


class TestMatchesReference:
    """The closed form and the Gauss panel rule kept in tests/planform_reference.py
    both lie within REL_BOUND of the rational integral of the pieces, or raise
    the same error."""

    @settings(max_examples=300, deadline=None)
    @given(builder_chords())
    def test_builder_chords(self, case):
        p, _ = case
        assert_rules_near_exact(p)

    @pytest.mark.parametrize("p", [
        Planform.rectangle(3.0, 0.0, 7.0),
        Planform.parabola(8.0, 12.0, 0.0),
        Planform.tabulated([(0.0, 2.0), (4.0, 5.0), (9.0, 1.0)], 0.0, 9.0),
        Planform.rectangle(3.0, 5.0, 0.0),
        Planform.tabulated([(-9.0, 2.0), (-4.0, 5.0), (0.0, 1.0)], 9.0, 0.0),
        Planform.rectangle(2.0, 5e-324, 1.0),
        Planform.rectangle(2.0, 1e-320, 1.0),
        Planform.parabola(1.0, 3.0, 5e-324),
        Planform.parabola(7.5, 20.0, 1e-320),
        Planform.parabola(4.0, 10.0, 14.0),
        Planform.tabulated([(-9.0, 1.0), (-5.0, 2.0), (0.0, 6.0), (10.0, 0.0), (12.0, 1.0)],
                           5.0, 10.0),
        Planform.rectangle(1e300, 25.0, 25.0),
        # a 1 nm knot interval 20-25 mm from the axis, where the chord jumps by
        # 9.9 mm: a closed form expanded in powers of x loses 1e-9 and 6e-8 here
        Planform.tabulated([(-1.0, 1.0), (19.999999, 0.1), (20.0, 10.0), (25.0, 10.0)],
                           1.0, 25.0),
        Planform.tabulated([(-25.0, 10.0), (-24.999999, 0.1), (25.0, 0.1)], 25.0, 25.0),
        # no builder makes a curved piece that ends away from the axis (a > 0 and
        # c != 0 in _side_rdf): positive quadratics on either side and across it
        Planform(8.0, 9.0, ((-8.0, -2.5, -4.0, 3.0, -0.2, 0.1), (-2.5, 2.0, 1.0, 6.0, 0.3, -0.1),
                            (2.0, 9.0, 3.0, 4.0, 0.5, -0.05))),
    ], ids=["rectangle-l1-0", "parabola-l1-0", "tabulated-l1-0", "rectangle-l2-0",
            "tabulated-l2-0", "rectangle-l1-5e-324", "rectangle-l1-1e-320",
            "parabola-l1-5e-324", "parabola-l1-1e-320", "clipped-parabola",
            "knots-beyond-span", "height-1e300", "steep-rise-at-20", "steep-drop-at-minus-25",
            "curved-pieces-off-axis"])
    def test_edge_cases(self, p):
        assert_rules_near_exact(p)

    @pytest.mark.parametrize("p", [
        Planform.rectangle(1e305, 25.0, 25.0), Planform.parabola(1e305, 25.0, 25.0),
        # 100 panels, each finite, whose sum overflows inside math.fsum
        Planform.tabulated([(-100.0 + 2 * i, 5e300) for i in range(101)], 100.0, 100.0),
    ], ids=["rectangle", "parabola", "overflowing-sum"])
    def test_overflowing_chord_raises_alike(self, p):
        # a height of 1e300 over 25 mm still has a finite RDF (about 2e305 mm^5)
        for fn in (resistive_drag_factor, planform_reference.resistive_drag_factor):
            with pytest.raises(DomainError, match=r"^RDF is not finite: inf$"):
                fn(p)


class TestPieces:
    """Builder planforms are their polynomial pieces."""

    @settings(max_examples=200, deadline=None)
    @given(builder_chords(), st.floats(0.0, 1.0))
    def test_pieces_are_the_chord(self, case, t):
        p, chord = case
        x = min(-p.l1 + t * (p.l1 + p.l2), p.l2)
        assert piece_chord(p, x) == pytest.approx(chord(x), rel=1e-12, abs=1e-12)

    def test_pieces_cover_the_span(self):
        assert Planform.rectangle(2.0, 1.0, 3.0).pieces == ((-1.0, 3.0, 0.0, 2.0, 0.0, 0.0),)
        # the clipped parabola's piece ends at its clip point -root
        (lo, hi, *_), = Planform.parabola(4.0, 10.0, 14.0).pieces
        assert (lo, hi) == (-10.0, 10.0)
        # knot intervals outside the span give no piece; the rest are clipped to it
        p = Planform.tabulated([(-9.0, 1.0), (-5.0, 2.0), (0.0, 6.0), (10.0, 0.0), (12.0, 1.0)],
                               5.0, 10.0)
        assert [(lo, hi, x0) for lo, hi, x0, *_ in p.pieces] == [
            (-5.0, 0.0, -5.0), (0.0, 10.0, 0.0)]

    @pytest.mark.parametrize("build, args", [
        (Planform.rectangle, (math.nan, 1.0, 1.0)),
        (Planform.rectangle, (math.inf, 1.0, 1.0)),
        (Planform.rectangle, (-1.0, 1.0, 1.0)),
        (Planform.parabola, (-3.0, 10.0)),
        (Planform.parabola, (math.nan, 10.0)),
        (Planform.parabola, (math.inf, 10.0, 2.0)),
        (Planform.parabola, (1.0, 0.0, 1.0)),
        (Planform.parabola, (1.0, -2.0, 1.0)),
        (Planform.parabola, (1.0, 1e-160)),  # height/root^2 overflows
        (Planform.parabola, (1.0, 1e-320)),
    ], ids=["rect-nan", "rect-inf", "rect-neg", "para-neg", "para-nan", "para-inf",
            "para-root-0", "para-root-neg", "para-curvature-1e-160", "para-curvature-1e-320"])
    def test_bad_height_or_root_rejected(self, build, args):
        with pytest.raises(InvalidPlanformError, match="height|root"):
            build(*args)

    FLAT = (0.0, 1.0, 0.0, 0.0)  # x0, h0, slope, curv of a unit-height piece

    @pytest.mark.parametrize("pieces, msg", [
        (((-5.0, 3.0, *FLAT),), r"chord piece \[-5, 3\] leaves the span \[-1, 1\]"),
        (((-1.0, 1.5, *FLAT),), r"chord piece \[-1, 1.5\] leaves the span"),
        (((-1.0, 1.0, 0.0, math.nan, 0.0, 0.0),), "six finite numbers"),
        (((-1.0, 1.0, 0.0, 1.0, math.inf, 0.0),), "six finite numbers"),
        (((-1.0, math.nan, *FLAT),), "six finite numbers"),
        (((-1.0, 1.0, 0.0, 1.0, 0.0),), "six finite numbers"),
        (((-1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0),), "six finite numbers"),
        (((-1.0, 1.0, 0.0, "1", 0.0, 0.0),), "six finite numbers"),
        (((-1.0, 1.0, 0.0, True, 0.0, 0.0),), "six finite numbers"),
        (((0.5, 0.5, *FLAT),), r"chord piece \[0.5, 0.5\] is empty"),
        (((0.5, -0.5, *FLAT),), r"chord piece \[0.5, -0.5\] is empty"),
        (((-1.0, 0.5, *FLAT), (0.0, 1.0, *FLAT)), r"chord pieces overlap on \[0, 0.5\]"),
        (((0.5, 1.0, *FLAT), (-1.0, 0.0, *FLAT), (-0.5, 0.2, *FLAT)),
         r"chord pieces overlap on \[-0.5, 0\]"),
        (((-1.0, 1.0, *FLAT), (-0.5, 0.0, *FLAT), (0.2, 0.4, *FLAT)), "overlap"),
    ], ids=["beyond-both-ends", "beyond-l2", "nan-height", "inf-slope", "nan-end", "five",
            "seven", "text", "bool", "empty", "reversed", "overlap", "overlap-unsorted",
            "overlap-nested"])
    def test_bad_pieces_rejected(self, pieces, msg):
        with pytest.raises(InvalidPlanformError, match=msg):
            Planform(1.0, 1.0, pieces)

    def test_touching_pieces_and_none_accepted(self):
        # pieces may share an end, and the span outside every piece has h = 0
        p = Planform(1.0, 1.0, ((0.0, 1.0, *self.FLAT), (-1.0, 0.0, *self.FLAT)))
        assert resistive_drag_factor(p) == 0.5
        assert Planform(1.0, 1.0, ()).pieces == ()

    def test_no_negative_chord_rule(self):
        # a parabola's piece may evaluate an ulp below 0 at its root, and builds
        p = Planform.parabola(4.96, 23.74)
        assert piece_chord(p, 23.74) < 0.0
        assert Planform(p.l1, p.l2, p.pieces) == p


class TestRdfReport:
    def test_new_design_constants(self):
        r = rdf_report_from_constants(NEW_DESIGN_RDF_HEAD, NEW_DESIGN_RDF_TAIL)
        assert r.ratio_head_over_tail == pytest.approx(10.65, abs=0.01)

    def test_old_design_constants(self):
        r = rdf_report_from_constants(OLD_DESIGN_RDF_HEAD, OLD_DESIGN_RDF_TAIL)
        assert r.ratio_head_over_tail == pytest.approx(0.858, abs=0.001)
        assert r.ratio_head_over_tail < 1.0  # tail out-drags the head

    def test_identical_planforms(self):
        p = Planform.rectangle(10.0, 5.0, 5.0)
        r = rdf_report(p, p)
        assert r.ratio_head_over_tail == pytest.approx(1.0, rel=1e-12)

    def test_ratio_swap_inversion(self):
        a = Planform.rectangle(10.0, 5.0, 5.0)
        b = Planform.parabola(8.0, 12.0)
        assert rdf_report(a, b).ratio_head_over_tail == pytest.approx(
            1.0 / rdf_report(b, a).ratio_head_over_tail, rel=1e-9
        )

    def test_zero_rdf_rejected(self):
        zero = Planform.rectangle(0.0, 0.0, 10.0)
        good = Planform.rectangle(10.0, 5.0, 5.0)
        with pytest.raises(InvalidPlanformError):
            rdf_report(zero, good)
        for i_head, i_tail in ((0.0, 1.0), (math.inf, 1.0), (1.0, math.nan)):
            with pytest.raises(InvalidPlanformError):
                rdf_report_from_constants(i_head, i_tail)

    @pytest.mark.parametrize("i_head, i_tail, msg", [
        (0.0, 1.0, "i_head must be finite and positive, got 0"),
        (1.0, math.inf, "i_tail must be finite and positive, got inf"),
        (1.0, math.nan, "i_tail must be finite and positive, got nan"),
    ])
    def test_bad_rdf_named(self, i_head, i_tail, msg):
        with pytest.raises(InvalidPlanformError, match=f"^{msg}$"):
            rdf_report_from_constants(i_head, i_tail)


class TestConfigLoading:
    def test_rectangle_roundtrip(self, tmp_path):
        cfg = tmp_path / "head.json"
        cfg.write_text(json.dumps(
            {"kind": "rectangle", "height_mm": 10.0, "l1_mm": 5.0, "l2_mm": 5.0}
        ))
        p = Planform.from_file(cfg)
        assert resistive_drag_factor(p) == pytest.approx(3125.0, rel=1e-10)

    @pytest.mark.parametrize("cfg, key", [
        ({"kind": "parabola", "height_mm": 4, "root_mm": 10, "l1mm": 14}, "l1mm"),
        ({"kind": "rectangle", "height_mm": 1, "l1_mm": 1, "l2_mm": 1, "label": "head"}, "label"),
        ({"kind": "tabulated", "points": [[0, 1], [1, 1]], "l1_mm": 0, "l2_mm": 1,
          "root_mm": 1}, "root_mm"),
    ], ids=["typo", "label", "other-kinds-key"])
    def test_unknown_key_rejected(self, cfg, key):
        with pytest.raises(InvalidPlanformError, match=f"unknown key '{key}'"):
            Planform.from_config(cfg)

    @pytest.mark.parametrize("cfg, key", [
        ({"kind": "rectangle", "l1_mm": 1, "l2_mm": 2}, "height_mm"),
        ({"kind": "parabola", "height_mm": 4}, "root_mm"),
        ({"kind": "tabulated", "l1_mm": 0, "l2_mm": 1}, "points"),
    ])
    def test_missing_key_rejected(self, cfg, key):
        with pytest.raises(InvalidPlanformError,
                           match=f"^missing key '{key}' for a {cfg['kind']} planform$"):
            Planform.from_config(cfg)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidPlanformError, match="unknown planform kind 'circle'"):
            Planform.from_config({"kind": "circle"})

    def test_parabola(self, tmp_path):
        cfg = tmp_path / "tail.json"
        cfg.write_text(json.dumps({"kind": "parabola", "height_mm": 8.0, "root_mm": 12.0}))
        assert resistive_drag_factor(Planform.from_file(cfg)) == pytest.approx(
            PARABOLA_RDF, rel=1e-6
        )

    def test_tabulated_linear_interpolation(self, tmp_path):
        # triangular chord: h(0) = 6, h(10) = 0
        cfg = tmp_path / "tab.json"
        cfg.write_text(json.dumps(
            {"kind": "tabulated", "points": [[0.0, 6.0], [10.0, 0.0]],
             "l1_mm": 0.0, "l2_mm": 10.0}
        ))
        p = Planform.from_file(cfg)
        assert piece_chord(p, 5.0) == pytest.approx(3.0)
        # analytic: int (6 - 0.6 x) x^3 = 6*10^4/4 - 0.6*10^5/5 = 3000
        assert resistive_drag_factor(p) == pytest.approx(3000.0, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(InvalidPlanformError):
            Planform.from_config({"kind": "ellipse"})


class TestTabulated:
    @pytest.mark.parametrize("points, l1, l2", [
        ([], 0.0, 10.0),                                    # no knots
        ([(0.0, 5.0)], 0.0, 10.0),                          # one knot
        ([(0.0, 5.0), (math.nan, 5.0), (10.0, 5.0)], 0.0, 10.0),
        ([(0.0, 5.0), (10.0, math.inf)], 0.0, 10.0),
        ([(0.0, 5.0), (5.0, 5.0), (5.0, 1.0), (10.0, 1.0)], 0.0, 10.0),  # step
        ([(0.0, 5.0), (5.0, -1.0), (10.0, 1.0)], 0.0, 10.0),
        ([(0.0, 5.0), (5.0, 5.0)], 0.0, 10.0),              # short of l2
        ([(-2.0, 5.0), (10.0, 5.0)], 3.0, 10.0),            # short of -l1
        # knots a subnormal distance apart: the slope overflows
        ([(-0.0, 1.0), (2.225073858507203e-309, 0.5)], 0.0, 2.225073858507203e-309),
    ])
    def test_bad_knots_rejected(self, points, l1, l2):
        with pytest.raises(InvalidPlanformError):
            Planform.tabulated(points, l1, l2)

    def test_flat_chord_matches_rectangle(self):
        knots = [(-4.0, 3.0), (9.0, 3.0)]
        exact = 3.0 * (4.0**4 + 9.0**4) / 4.0
        assert exact_tabulated_rdf(knots, 4.0, 9.0) == exact
        p = Planform.tabulated(knots, 4.0, 9.0)
        assert resistive_drag_factor(p) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_knots_exact(self, seed):
        rng = np.random.default_rng(seed)
        l1, l2 = rng.uniform(0.0, 20.0, size=2)
        n = int(rng.integers(2, 20))
        xs = np.sort(rng.uniform(-l1, l2, n))
        # knots beyond the span shape the chord but add no panel
        xs[0], xs[-1] = -l1 - rng.uniform(0.0, 2.0), l2 + rng.uniform(0.0, 2.0)
        knots = list(zip(xs, rng.uniform(0.0, 10.0, n)))
        p = Planform.tabulated(knots, l1, l2)
        assert resistive_drag_factor(p) == pytest.approx(
            exact_tabulated_rdf(knots, l1, l2), rel=1e-12)

    def test_close_knots_exact(self):
        # two knots 3.4 um apart with a large slope jump between them
        knots = [(-6.0, 1.0), (4.0, 9.0), (4.0 + 3.4e-3, 0.5), (18.0, 7.0)]
        p = Planform.tabulated(knots, 6.0, 18.0)
        assert resistive_drag_factor(p) == pytest.approx(
            exact_tabulated_rdf(knots, 6.0, 18.0), rel=1e-12)

    def test_knot_at_axis_exact(self):
        knots = [(-6.0, 2.0), (0.0, 9.0), (7.5, 1.0), (18.0, 4.0)]
        p = Planform.tabulated(knots, 6.0, 18.0)
        assert resistive_drag_factor(p) == pytest.approx(
            exact_tabulated_rdf(knots, 6.0, 18.0), rel=1e-12)
