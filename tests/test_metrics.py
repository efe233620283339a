import json
import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from milliswim.control import ControllerState, PathSegment, ReferencePath
from milliswim.errors import DomainError
from milliswim.harness import cli_main
from milliswim.metrics import (
    SwimmerSpec,
    cost_of_transport,
    format_table,
    lateral_errors,
    reynolds,
    strouhal,
    swim_number,
    trajectory_stats,
)

from control_reference import lateral_error

SPEC = SwimmerSpec()
DEG = math.pi / 180.0


class TestCostOfTransport:
    def test_reference_point(self):
        # 72 mW at 13.6 mm/s: reported dimensionless cost 9304 within 5%
        cot = cost_of_transport(72e-3, SPEC, 13.6e-3)
        assert cot == pytest.approx(9304.0, rel=0.05)

    def test_slow_point(self):
        cot = cost_of_transport(64.8e-3, SPEC, 5.7e-3)
        assert cot == pytest.approx(20127.0, rel=0.05)

    def test_speed_inverse(self):
        assert cost_of_transport(72e-3, SPEC, 2 * 13.6e-3) == pytest.approx(
            0.5 * cost_of_transport(72e-3, SPEC, 13.6e-3)
        )

    def test_nonpositive_speed(self):
        with pytest.raises(DomainError):
            cost_of_transport(72e-3, SPEC, 0.0)

    @pytest.mark.parametrize("v", [1e-323, 1e-310])
    def test_speed_too_small_for_a_finite_cost(self, v):
        # m*g*v underflows to 0 (1e-323) or P/(m*g*v) overflows (1e-310)
        with pytest.raises(DomainError, match="not finite"):
            cost_of_transport(72e-3, SPEC, v)


class TestStrouhal:
    def test_reference_point(self):
        assert strouhal(2.0, 6.34e-3, 13.6e-3) == pytest.approx(0.93, abs=0.01)

    def test_slow_point(self):
        assert strouhal(0.5, 6.5e-3, 5.7e-3) == pytest.approx(0.57, rel=0.02)

    def test_zero_excursion(self):
        assert strouhal(2.0, 0.0, 0.01) == 0.0

    def test_nonpositive_speed(self):
        with pytest.raises(DomainError):
            strouhal(2.0, 6.34e-3, -1.0)


class TestReynolds:
    def test_reference_point(self):
        assert reynolds(13.6e-3, 36e-3) == pytest.approx(489.6)

    def test_zero_speed(self):
        assert reynolds(0.0, 36e-3) == 0.0

    def test_length_linearity(self):
        assert reynolds(0.01, 0.072) == pytest.approx(2 * reynolds(0.01, 0.036))

    def test_bad_nu(self):
        with pytest.raises(DomainError):
            reynolds(0.01, 0.036, nu=0.0)

    @pytest.mark.parametrize("v", [-0.01, -math.inf, math.nan, math.inf])
    def test_bad_speed_rejected(self, v):
        # the speed is named, not the valid nu; a zero speed is Re = 0
        with pytest.raises(DomainError, match="v_avg must be finite and nonnegative"):
            reynolds(v, 0.036)


class TestSwimNumber:
    def test_reference_point(self):
        assert swim_number(2.0, 6.34e-3, 36e-3) == pytest.approx(2868.0, rel=0.01)

    def test_zero_excursion(self):
        assert swim_number(2.0, 0.0, 36e-3) == 0.0

    def test_identity_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            f, app, v, length = rng.uniform(0.1, 10.0, size=4)
            sw = swim_number(f, app, length)
            ident = 2 * math.pi * reynolds(v, length) * strouhal(f, app, v)
            assert sw == pytest.approx(ident, rel=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            f, app, v, length, s = rng.uniform(0.2, 5.0, size=5)
            # St is invariant when f*app and v scale together; Sw scales as s^2
            assert strouhal(s * f, app, s * v) == pytest.approx(
                strouhal(f, app, v) * 1.0, rel=1e-12
            )
            assert swim_number(f, s * app, s * length) == pytest.approx(
                s**2 * swim_number(f, app, length), rel=1e-12
            )


@pytest.mark.parametrize("call", [
    lambda x: cost_of_transport(72e-3, SPEC, x),
    lambda x: strouhal(2.0, 6.34e-3, x),
    lambda x: reynolds(0.01, 0.036, nu=x),
    lambda x: swim_number(2.0, 6.34e-3, 0.036, nu=x),
], ids=["cot-v", "st-v", "re-nu", "sw-nu"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e-320, 1e-323])
def test_non_finite_divisor_rejected(call, bad):
    # a tiny finite divisor overflows the quotient to inf
    with pytest.raises(DomainError):
        call(bad)


@pytest.mark.parametrize("call, name", [
    (lambda x: strouhal(x, 6.34e-3, 0.0136), "f_o"),
    (lambda x: strouhal(2.0, x, 0.0136), "a_pp"),
    (lambda x: swim_number(x, 6.34e-3, 0.036), "f_o"),
    (lambda x: swim_number(2.0, x, 0.036), "a_pp"),
], ids=["st-f", "st-app", "sw-f", "sw-app"])
@pytest.mark.parametrize("bad", [-2.0, -5e-324, -math.inf, math.inf, math.nan])
def test_bad_numerator_named(call, name, bad):
    # the frequency or excursion is named, not the valid divisor, and a
    # negative one is rejected rather than giving a negative number
    with pytest.raises(DomainError, match=f"^{name} must be finite and nonnegative$"):
        call(bad)


def test_zero_frequency_allowed():
    assert strouhal(0.0, 6.34e-3, 0.0136) == 0.0
    assert swim_number(0.0, 6.34e-3, 0.036) == 0.0


@pytest.mark.parametrize("name", ["mass", "length", "g"])
def test_swimmer_spec_must_be_finite(name):
    with pytest.raises(ValueError, match="finite and positive"):
        SwimmerSpec(**{name: math.nan})


class TestSummaryFormatting:
    def test_fields(self, capsys):
        argv = ["metrics", "--f", "2", "--app-mm", "6.34", "--v-mmps", "13.6", "--p-mw", "72"]
        assert cli_main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [r.split()[0] for r in rows] == ["cot", "st", "re", "sw"]

    def test_table_contains_values(self):
        txt = format_table({"cot": 9304.0, "st": 0.93, "re": 489.6, "sw": 2868.0})
        assert "9304" in txt and "0.93" in txt

    def test_stats_json_roundtrip(self):
        t, r1, r2, v, w = straight_log(offset=2.6e-3)
        st = trajectory_stats(t, r1, r2, v, w, ReferencePath.rectilinear(), 10.0)
        d = json.loads(json.dumps(st))
        assert d == st
        assert d["rms_error_m"] == pytest.approx(2.6e-3)
        assert d["turn_radius_m"] is None


def straight_log(n=2001, dt=0.01, v=10e-3, offset=0.0):
    t = np.arange(n) * dt
    return t, t * v, np.full(n, offset), np.full(n, v), np.zeros(n)


class TestTrajectoryStats:
    def test_on_path_zero_rms(self):
        t, r1, r2, v, w = straight_log()
        st = trajectory_stats(t, r1, r2, v, w, ReferencePath.rectilinear(), 10.0)
        assert st["rms_error_m"] == 0.0
        assert st["mean_speed_mps"] == pytest.approx(10e-3)
        assert st["turn_radius_m"] is None

    def test_constant_offset(self):
        t, r1, r2, v, w = straight_log(offset=2.6e-3)
        st = trajectory_stats(t, r1, r2, v, w, ReferencePath.rectilinear(), 10.0)
        assert st["rms_error_m"] == pytest.approx(2.6e-3)

    def test_synthetic_circle_radius(self):
        # quarter-circle turn appended to a straight approach
        w_turn = 13.1 * DEG
        v = 2.29e-3
        dt = 1e-3
        n_straight = 2000
        n_turn = int(round((math.pi / 2) / w_turn / dt))
        t = np.arange(n_straight + n_turn) * dt
        v_arr = np.full(t.size, v)
        w_arr = np.concatenate([np.zeros(n_straight), np.full(n_turn, w_turn)])
        # positions are irrelevant to the radius computation as long as the
        # path stays before the corner waypoint
        r1 = np.cumsum(v_arr * dt) * 0.001
        r2 = np.zeros(t.size)
        # a bare two-segment path turns as the builder's does
        bare = ReferencePath((PathSegment(0.0, 0.0, 10.0), PathSegment(math.pi / 2, 10.0)))
        for path in (ReferencePath.left_turn(corner=10.0), bare):
            st = trajectory_stats(t, r1, r2, v_arr, w_arr, path, t[-1] - t[0])
            assert st["turn_radius_m"] == pytest.approx(v / w_turn, rel=0.005)
            assert st["mean_turn_rate_radps"] == pytest.approx(w_turn, rel=0.005)
            assert st["mean_turn_rate_degps"] == math.degrees(st["mean_turn_rate_radps"])

    def test_translation_invariance(self):
        t, r1, r2, v, w = straight_log(offset=1e-3)
        base = trajectory_stats(t, r1, r2, v, w, ReferencePath.rectilinear(), 10.0)
        shifted_path = ReferencePath(
            tuple(
                type(s)(heading=s.heading, target=s.target + 0.5, waypoint=s.waypoint)
                for s in ReferencePath.rectilinear().segments
            )
        )
        moved = trajectory_stats(t, r1, r2 + 0.5, v, w, shifted_path, 10.0)
        assert moved["rms_error_m"] == pytest.approx(base["rms_error_m"], abs=1e-12)

    def test_short_log_rejected(self):
        t, r1, r2, v, w = straight_log(n=11)
        with pytest.raises(DomainError):
            trajectory_stats(t, r1, r2, v, w, ReferencePath.rectilinear(), 10.0)


def replayed_errors(path, r1, r2):
    """Per-sample lateral_error replay: the reference lateral_errors must match."""
    st_ = ControllerState()
    return [lateral_error(path, st_, float(a), float(b)) for a, b in zip(r1, r2)]


PATHS = [
    ReferencePath.rectilinear(),
    ReferencePath.left_turn(corner=0.01),
    ReferencePath.right_turn(corner=0.01),
    ReferencePath((  # a terminal-less middle segment stops the switching
        PathSegment(0.0, 0.0, 0.01), PathSegment(math.pi / 2, 0.01), PathSegment(0.0, 0.02),
    )),
    ReferencePath((  # three legs: east, north, west
        PathSegment(0.0, 0.0, 0.01), PathSegment(math.pi / 2, 0.01, 0.01),
        PathSegment(math.pi, 0.01, 0.0),
    )),
]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(PATHS),
    st.lists(st.tuples(st.floats(-0.03, 0.03), st.floats(-0.03, 0.03)), max_size=60),
)
def test_lateral_errors_match_replay(path, pts):
    r1 = np.array([p[0] for p in pts])
    r2 = np.array([p[1] for p in pts])
    got = lateral_errors(path, r1, r2)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in replayed_errors(path, r1, r2)]
