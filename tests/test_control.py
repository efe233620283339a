import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from milliswim.actuator import Mode
from milliswim.control import (
    INTEGRATOR_LIMIT,
    ControlConfig,
    ControllerState,
    PathSegment,
    ReferencePath,
    closed_loop_tick,
    controller,
)
from milliswim.harness import TRACK_PATHS
from milliswim.plant import PlantCalibration, rates

from control_reference import actuator_mapping, heading_step, lateral_error, lpc_step, tick

CFG = ControlConfig()
DT = 1.0 / CFG.loop_rate


def drive_mode(cmd):
    """The drive mode of an excitation command, as plant.rates classifies it."""
    return rates(PlantCalibration.default().at(cmd.freq), cmd.dc_left, cmd.dc_right)[0]


class TestLateralError:
    def test_rectilinear_offset(self):
        path = ReferencePath.rectilinear()
        st = ControllerState()
        r_e = lateral_error(path, st, 0.1, -0.005)
        assert r_e == pytest.approx(0.005)
        assert path.segments[st.active_segment].lateral_axis == 2

    def test_on_path(self):
        path = ReferencePath.rectilinear()
        assert lateral_error(path, ControllerState(), 0.2, 0.0) == 0.0

    def test_left_turn_segment_switch(self):
        # past the corner the tracked axis switches from r2 to r1
        path = ReferencePath.left_turn(corner=0.05)
        st = ControllerState(integrator=0.123)
        r_e = lateral_error(path, st, 0.05, 0.01)
        assert path.segments[st.active_segment].lateral_axis == 1
        assert r_e == 0.0
        assert st.active_segment == 1
        assert st.integrator == 0.0  # reset at switch

    def test_right_turn_segment_switch(self):
        path = ReferencePath.right_turn(corner=0.05)
        st = ControllerState()
        r_e = lateral_error(path, st, 0.06, -0.002)
        assert path.segments[st.active_segment].lateral_axis == 1
        assert r_e == pytest.approx(0.05 - 0.06)
        assert st.active_segment == 1

    def test_before_waypoint_no_switch(self):
        path = ReferencePath.left_turn(corner=0.05)
        st = ControllerState()
        lateral_error(path, st, 0.02, 0.0)
        assert path.segments[st.active_segment].lateral_axis == 2
        assert st.active_segment == 0


class TestLpcStep:
    def test_proportional_term(self):
        # dt -> 0: pure k_p * r_e
        st = ControllerState()
        psi_d = lpc_step(CFG, st, 0.01, 1e-12)
        assert psi_d == pytest.approx(0.03, abs=1e-9)

    def test_zero_error_zero_output(self):
        assert lpc_step(CFG, ControllerState(), 0.0, DT) == 0.0

    def test_constant_error_integral(self):
        # constant 0.01 m held 2 s at the loop rate: 0.03 + 1*0.01*2 = 0.05
        st = ControllerState()
        n = int(round(2.0 * CFG.loop_rate))
        for _ in range(n):
            psi_d = lpc_step(CFG, st, 0.01, DT)
        assert psi_d == pytest.approx(0.05, rel=1e-9)

    def test_output_clamp(self):
        st = ControllerState()
        assert lpc_step(CFG, st, 10.0, DT) == math.pi / 2
        assert lpc_step(CFG, st, -10.0, DT) == -math.pi / 2

    def test_integrator_clamp(self):
        st = ControllerState()
        for _ in range(100_000):
            lpc_step(CFG, st, 0.05, DT)
        assert abs(CFG.k_i * st.integrator) <= math.pi / 4 + 1e-12

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            lpc_step(CFG, ControllerState(), 0.01, 0.0)

    def test_integrator_clamps_counted(self):
        st = ControllerState()
        bound = INTEGRATOR_LIMIT / CFG.k_i
        n = 0
        while st.integrator < bound:
            lpc_step(CFG, st, 0.05, DT)
            n += 1
        assert st.integrator == bound
        assert st.integrator_clamps == 1
        for _ in range(5):
            lpc_step(CFG, st, 0.05, DT)
        assert st.integrator_clamps == 6
        lpc_step(CFG, st, -0.05, DT)  # back inside the bound
        assert st.integrator_clamps == 6


class TestHeadingStep:
    def test_gain(self):
        assert heading_step(CFG, 0.1, 0.0) == pytest.approx(0.2)

    def test_zero_error(self):
        assert heading_step(CFG, 0.7, 0.7) == 0.0

    def test_wrap(self):
        # error 3*pi/2 wraps to -pi/2 -> u_psi = -pi
        assert heading_step(CFG, 3 * math.pi / 2, 0.0) == pytest.approx(-math.pi)


class TestActuatorMapping:
    def test_bimorph_reference(self):
        assert actuator_mapping(CFG, 0.11, 0.0) == (0.11, 0.11)

    def test_clamped_left_turn(self):
        # raw (0.31, -0.09) clamps to the unimorph-left limit
        assert actuator_mapping(CFG, 0.11, 0.2) == (0.22, 0.0)

    def test_right_bias_mixed(self):
        u_l, u_r = actuator_mapping(CFG, 0.11, -0.05)
        assert u_l == pytest.approx(0.06)
        assert u_r == pytest.approx(0.16)

    def test_saturation_safety_randomized(self):
        rng = np.random.default_rng(5)
        for u_psi in rng.uniform(-20.0, 20.0, 5000):
            u_l, u_r = actuator_mapping(CFG, 0.11, float(u_psi))
            assert 0.0 <= u_l <= 0.22
            assert 0.0 <= u_r <= 0.22

    def test_symmetry_swap(self):
        for u_psi in (0.03, 0.11, 0.5):
            assert actuator_mapping(CFG, 0.11, u_psi) == tuple(
                reversed(actuator_mapping(CFG, 0.11, -u_psi))
            )


class TestClosedLoopTick:
    def test_zero_error_bimorph_fixed_point(self):
        path = ReferencePath.rectilinear()
        cmd = closed_loop_tick(CFG, path, ControllerState(), 0.1, 0.0, 0.0, DT)
        assert (cmd.dc_left, cmd.dc_right) == (0.11, 0.11)
        assert drive_mode(cmd) is Mode.BIMORPH
        assert cmd.freq == 3.0

    def test_left_offset_right_corrective(self):
        # robot 5 mm to body-left of the path (r2 > 0): steer right
        path = ReferencePath.rectilinear()
        cmd = closed_loop_tick(CFG, path, ControllerState(), 0.1, 0.005, 0.0, DT)
        assert cmd.dc_right > cmd.dc_left

    def test_right_offset_left_corrective(self):
        path = ReferencePath.rectilinear()
        cmd = closed_loop_tick(CFG, path, ControllerState(), 0.1, -0.005, 0.0, DT)
        assert cmd.dc_left > cmd.dc_right

    def test_saturated_unimorph_left(self):
        # heading 90 degrees right of demand: saturates into unimorph-left
        path = ReferencePath.rectilinear()
        cmd = closed_loop_tick(CFG, path, ControllerState(), 0.1, 0.0, -math.pi / 2, DT)
        assert (cmd.dc_left, cmd.dc_right) == (0.22, 0.0)
        assert drive_mode(cmd) is Mode.UNIMORPH_LEFT

    def test_corner_demands_turn(self):
        # just past a left-turn corner, heading still along +n1: big left demand
        path = ReferencePath.left_turn(corner=0.05)
        st = ControllerState()
        cmd = closed_loop_tick(CFG, path, st, 0.051, 0.0, 0.0, DT)
        assert st.active_segment == 1
        assert cmd.dc_left > cmd.dc_right

    def test_command_is_the_float_tick(self):
        rng = np.random.default_rng(29)
        for make in (ReferencePath.rectilinear, ReferencePath.left_turn, ReferencePath.right_turn):
            path = make()
            for _ in range(300):
                integ, seg = float(rng.uniform(-1, 1)), int(rng.integers(0, len(path.segments)))
                pose = [float(x) for x in rng.uniform(-0.1, 0.1, 2)] + [float(rng.uniform(-4, 4))]
                a, b = ControllerState(integ, seg), ControllerState(integ, seg)
                cmd = closed_loop_tick(CFG, path, a, *pose, DT)
                u = tick(CFG, path, b, *pose, DT)
                assert (cmd.dc_left.hex(), cmd.dc_right.hex()) == (u[0].hex(), u[1].hex())
                assert a == b
                assert cmd.freq == CFG.freq

    def test_duty_cycles_always_admissible(self):
        rng = np.random.default_rng(23)
        path = ReferencePath.rectilinear()
        for _ in range(2000):
            st = ControllerState(integrator=float(rng.uniform(-5, 5)))
            cmd = closed_loop_tick(
                CFG, path, st,
                float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                float(rng.uniform(-math.pi, math.pi)), DT,
            )
            assert 0.0 <= cmd.dc_left <= 0.22
            assert 0.0 <= cmd.dc_right <= 0.22


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def bound_and_reference(gains, duty, dt, kind, integrator, first_segment, poses):
    """Run the bound controller and the reference tick side by side over
    poses, from the same ControllerState on the first or last segment of a
    TRACK_PATHS path; require bit-equal duty cycles and states after every
    tick. Returns the config, the duty pairs and the final state."""
    cfg = ControlConfig(*gains, u_v=min(duty), u_max=max(duty))
    path = TRACK_PATHS[kind]
    segment = 0 if first_segment else len(path.segments) - 1
    step = controller(cfg, path, dt)
    a, b = ControllerState(integrator, segment), ControllerState(integrator, segment)
    duties = []
    for pose in poses:
        u = step(a, *pose)
        want = tick(cfg, path, b, *pose, dt)
        assert [x.hex() for x in u] == [x.hex() for x in want]
        assert (a.integrator.hex(), a.active_segment, a.integrator_clamps) == (
            b.integrator.hex(), b.active_segment, b.integrator_clamps)
        duties.append(u)
    return cfg, duties, a


# A left turn crossing its corner from an integrator beyond the tight bound of
# k_i = 400, with the heading a radian right of +n1 and then far from the
# corner leg's +n2: integrator clamps, a segment switch and saturated channels.
SWITCH_CLAMP_SATURATE = dict(
    gains=(3.0, 400.0, 2.0), duty=(0.11, 0.22), dt=DT, kind="track_left", integrator=-0.01,
    first_segment=True, poses=[(0.01 * i, 0.004, -1.0) for i in range(10)],
)


class TestBoundController:
    @settings(max_examples=300, deadline=None)
    @given(
        gains=st.tuples(*[st.one_of(st.just(0.0), finite(0.0, 1e3))] * 3),
        duty=st.tuples(finite(1e-3, 1.0), finite(1e-3, 1.0)),
        dt=finite(1e-4, 1.0),
        kind=st.sampled_from(sorted(TRACK_PATHS)),
        integrator=finite(-1.0, 1.0),
        first_segment=st.booleans(),
        poses=st.lists(st.tuples(finite(-0.2, 0.2), finite(-0.2, 0.2), finite(-7.0, 7.0)),
                       min_size=1, max_size=40),
    )
    @example(**SWITCH_CLAMP_SATURATE)
    def test_bound_controller_is_the_reference_tick(self, **case):
        bound_and_reference(**case)

    def test_example_switches_clamps_and_saturates(self):
        cfg, duties, state = bound_and_reference(**SWITCH_CLAMP_SATURATE)
        assert state.active_segment == 1
        assert state.integrator_clamps > 0
        assert any(cfg.u_max in u for u in duties)

    def test_dt_checked_when_bound(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            controller(CFG, ReferencePath.rectilinear(), 0.0)


class TestConfigValidation:
    def test_bad_gains(self):
        with pytest.raises(ValueError):
            ControlConfig(k_p=-1.0)

    @pytest.mark.parametrize("field", ["k_p", "k_i", "k_p_psi", "freq", "loop_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_gains_and_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ControlConfig(**{field: value})

    def test_bad_duty_bounds(self):
        with pytest.raises(ValueError):
            ControlConfig(u_v=0.3, u_max=0.22)
        with pytest.raises(ValueError):
            ControlConfig(u_v=0.0)

    def test_segment_axis_properties(self):
        east = PathSegment(heading=0.0, target=0.0)
        north = PathSegment(heading=math.pi / 2, target=0.05)
        south = PathSegment(heading=-math.pi / 2, target=0.05)
        assert (east.lateral_axis, east.along_axis) == (2, 1)
        assert (north.lateral_axis, north.along_axis) == (1, 2)
        assert east.left_normal_sign == 1.0
        assert north.left_normal_sign == -1.0
        assert south.left_normal_sign == 1.0
        assert south.along_sign == -1.0

    def test_segment_axes_follow_replace(self):
        east = PathSegment(heading=0.0, target=0.0, waypoint=1.0)
        north = dataclasses.replace(east, heading=math.pi / 2)
        assert (north.lateral_axis, north.along_axis, north.left_normal_sign) == (1, 2, -1.0)
        assert north == PathSegment(heading=math.pi / 2, target=0.0, waypoint=1.0)
        assert repr(east) == "PathSegment(heading=0.0, target=0.0, waypoint=1.0)"

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            ReferencePath(())
