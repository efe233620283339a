import json
import math
from fractions import Fraction

import numpy as np
import pytest

from milliswim.errors import DomainError, InvalidPlanformError
from milliswim.planform import (
    NEW_DESIGN_RDF_HEAD,
    NEW_DESIGN_RDF_TAIL,
    OLD_DESIGN_RDF_HEAD,
    OLD_DESIGN_RDF_TAIL,
    Planform,
    chord_at,
    rdf_report,
    rdf_report_from_constants,
    resistive_drag_factor,
)

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


class TestChordAt:
    def test_rectangle_center(self):
        p = Planform.rectangle(10.0, 5.0, 5.0)
        assert chord_at(p, 0.0) == 10.0

    def test_rectangle_edge(self):
        p = Planform.rectangle(10.0, 5.0, 5.0)
        assert chord_at(p, 5.0) == 10.0

    def test_parabola_root(self):
        p = Planform.parabola(8.0, 12.0)
        assert chord_at(p, 12.0) == 0.0

    def test_out_of_domain(self):
        p = Planform.rectangle(10.0, 5.0, 5.0)
        with pytest.raises(DomainError):
            chord_at(p, 5.1)
        with pytest.raises(DomainError):
            chord_at(p, -5.1)


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
        big = Planform(lambda x: 8.0 * (1 - (x / 12.0) ** 2) + 1.0, 0.0, 12.0)
        assert resistive_drag_factor(big) > resistive_drag_factor(small)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_length_scaling_power_five(self, s):
        base = Planform.parabola(8.0, 12.0, l1=3.0)
        scaled = Planform(
            lambda x: s * max(0.0, 8.0 * (1 - (x / s / 12.0) ** 2)),
            3.0 * s,
            12.0 * s,
        )
        assert resistive_drag_factor(scaled) == pytest.approx(
            s**5 * resistive_drag_factor(base), rel=1e-8
        )

    def test_invalid_span(self):
        with pytest.raises(InvalidPlanformError):
            Planform.rectangle(10.0, 0.0, 0.0)
        with pytest.raises(InvalidPlanformError):
            Planform.rectangle(10.0, -1.0, 5.0)


class TestRdfReport:
    def test_new_design_constants(self):
        r = rdf_report_from_constants(NEW_DESIGN_RDF_HEAD, NEW_DESIGN_RDF_TAIL)
        assert r.ratio_head_over_tail == pytest.approx(10.65, abs=0.01)

    def test_old_design_constants(self):
        r = rdf_report_from_constants(OLD_DESIGN_RDF_HEAD, OLD_DESIGN_RDF_TAIL)
        assert r.ratio_head_over_tail == pytest.approx(0.858, abs=0.001)
        assert r.ratio_head_over_tail < 1.0  # tail out-drags the head

    def test_identical_planforms(self):
        p = Planform.rectangle(10.0, 5.0, 5.0, "head")
        r = rdf_report(p, p)
        assert r.ratio_head_over_tail == pytest.approx(1.0, rel=1e-12)

    def test_ratio_swap_inversion(self):
        a = Planform.rectangle(10.0, 5.0, 5.0)
        b = Planform.parabola(8.0, 12.0)
        assert rdf_report(a, b).ratio_head_over_tail == pytest.approx(
            1.0 / rdf_report(b, a).ratio_head_over_tail, rel=1e-9
        )

    def test_zero_rdf_rejected(self):
        zero = Planform(lambda x: 0.0, 0.0, 10.0)
        good = Planform.rectangle(10.0, 5.0, 5.0)
        with pytest.raises(InvalidPlanformError):
            rdf_report(zero, good)
        with pytest.raises(InvalidPlanformError):
            rdf_report_from_constants(0.0, 1.0)


class TestConfigLoading:
    def test_rectangle_roundtrip(self, tmp_path):
        cfg = tmp_path / "head.json"
        cfg.write_text(json.dumps(
            {"kind": "rectangle", "height_mm": 10.0, "l1_mm": 5.0, "l2_mm": 5.0,
             "label": "head"}
        ))
        p = Planform.from_file(cfg)
        assert p.label == "head"
        assert resistive_drag_factor(p) == pytest.approx(3125.0, rel=1e-10)

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
        assert chord_at(p, 5.0) == pytest.approx(3.0)
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
    ])
    def test_bad_knots_rejected(self, points, l1, l2):
        with pytest.raises(InvalidPlanformError):
            Planform.tabulated(points, l1, l2)

    def test_kinks_are_the_knots(self):
        p = Planform.tabulated([(10.0, 0.0), (-5.0, 2.0), (0.0, 6.0)], 5.0, 10.0)
        assert p.kinks == (-5.0, 0.0, 10.0)
        assert Planform.rectangle(1.0, 1.0, 1.0).kinks == ()
        assert Planform.parabola(8.0, 12.0).kinks == ()

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
