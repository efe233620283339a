import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milliswim.actuator import BIMORPH, IDLE, MIXED, UNIMORPH_LEFT, UNIMORPH_RIGHT
from milliswim.errors import CalibrationRangeError
from milliswim.plant import (
    DEG,
    NOISE_CHUNK_TICKS,
    CalibrationSlice,
    PlantCalibration,
    SwimmerState,
    integrator,
    observation_noise,
    observe,
    rates,
    step,
    wrap_angle,
)

CAL = PlantCalibration.default()


def mode_of(dc_left, dc_right):
    """The drive mode of a duty-cycle pair, written apart from plant.rates."""
    if dc_left == 0.0 and dc_right == 0.0:
        return IDLE
    if dc_left == dc_right:
        return BIMORPH
    if dc_right == 0.0:
        return UNIMORPH_LEFT
    if dc_left == 0.0:
        return UNIMORPH_RIGHT
    return MIXED


class TestWrapAngle:
    @pytest.mark.parametrize(
        "a,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi / 2, -math.pi / 2),
            (2 * math.pi, 0.0),
            (-7 * math.pi / 2, math.pi / 2),
        ],
    )
    def test_values(self, a, expected):
        assert wrap_angle(a) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for a in rng.uniform(-50.0, 50.0, 200):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            # same angle modulo 2 pi
            assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
            assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


class TestCommandToRates:
    def test_idle(self):
        assert rates(CAL.at(2.0), 0.0, 0.0)[1:] == (0.0, 0.0)

    def test_bimorph_measured_speed(self):
        v, w = rates(CAL.at(2.0), 0.10, 0.10)[1:]
        assert v == pytest.approx(13.6e-3)
        assert w == 0.0

    def test_unimorph_left_measured_rate(self):
        v, w = rates(CAL.at(2.0), 0.12, 0.0)[1:]
        assert w == pytest.approx(12.0 * DEG)
        assert v == pytest.approx(abs(w) * CAL.turn_radius_left)

    def test_unimorph_right_measured_rate(self):
        v, w = rates(CAL.at(5.0), 0.0, 0.15)[1:]
        assert w == pytest.approx(-8.9 * DEG)
        assert v == pytest.approx(abs(w) * CAL.turn_radius_right)

    def test_node_exactness(self):
        # bimorph reads only the speed map, whose grid starts below the turn
        # maps' (0.5 Hz): bind it alone, with turn maps that must not be read
        def unread(dc):
            raise AssertionError("bimorph read a turn map")

        for i, f in enumerate(CAL.speed_map.freqs):
            cal = CalibrationSlice(CAL.speed_map.at(float(f)), unread, unread,
                                   CAL.turn_radius_left, CAL.turn_radius_right)
            for j, d in enumerate(CAL.speed_map.dcs):
                v, w = rates(cal, float(d), float(d))[1:]
                assert v == CAL.speed_map.values[i][j] * 1e-3
                assert w == 0.0

    def test_mixed_endpoints_match_unimorph(self):
        # asymmetry -> 1 recovers the left-unimorph rate at the dominant duty
        v_mix, w_mix = rates(CAL.at(3.0), 0.12, 0.08)[1:]
        asym = (0.12 - 0.08) / (0.12 + 0.08)
        w_left = CAL.turn_map_left(3.0, 0.12) * DEG
        assert w_mix == pytest.approx(asym * w_left)
        assert v_mix == pytest.approx(CAL.speed_map(3.0, 0.10) * 1e-3)

    def test_mixed_right_bias_sign(self):
        _, w = rates(CAL.at(3.0), 0.08, 0.12)[1:]
        assert w < 0.0

    def test_outside_hull(self):
        with pytest.raises(CalibrationRangeError):
            rates(CAL.at(2.0), 0.5, 0.5)
        with pytest.raises(CalibrationRangeError, match="^speed_map: freq=9 outside"):
            rates(CAL.at(9.0), 0.10, 0.10)

    def test_binding_names_the_map(self):
        # the speed grid starts at 0.5 Hz, the turn grids at 1 Hz
        with pytest.raises(CalibrationRangeError, match=r"^turn_map_left: freq=0\.5 outside"):
            PlantCalibration.default().at(0.5)

    def test_mode_is_mode_of(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            dl, dr = (float(x) for x in rng.choice([0.0, 0.05, 0.11, 0.15], 2))
            if rng.uniform() < 0.5:
                dl, dr = (float(x) for x in rng.uniform(0.05, 0.15, 2))
            assert rates(CAL.at(float(rng.uniform(1.0, 5.0))), dl, dr)[0] is mode_of(dl, dr)


class TestStep:
    def test_zero_commands_zero_rates(self):
        s0 = SwimmerState(r1=0.01, r2=-0.02, psi=0.3)
        s1 = step(s0, 0.0, 0.0, 0.5)
        assert (s1.r1, s1.r2, s1.psi) == (s0.r1, s0.r2, s0.psi)

    def test_straight_line(self):
        s1 = step(SwimmerState(), 10e-3, 0.0, 1.0)
        assert s1.r1 == pytest.approx(10e-3)
        assert s1.r2 == pytest.approx(0.0, abs=1e-15)
        assert s1.psi == 0.0

    def test_circle_matches_analytic(self):
        # constant rates, lag disabled: the path is a circle of radius v/omega
        v = 2.29e-3
        w = 13.1 * DEG
        radius = v / w
        dt = 4e-3
        n = int(round(2 * math.pi / w / dt))
        s = SwimmerState()
        max_dev = 0.0
        for _ in range(n):
            s = step(s, v, w, dt)
            # circle center for psi0 = 0 is (0, radius)
            r = math.hypot(s.r1, s.r2 - radius)
            max_dev = max(max_dev, abs(r - radius))
        assert max_dev < 1e-3 * radius

    def test_turn_radius_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = rng.uniform(1e-3, 20e-3)
            w = rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
            s = SwimmerState(psi=rng.uniform(-math.pi, math.pi))
            pts = []
            for _ in range(400):
                s = step(s, v, w, 5e-3)
                pts.append((s.r1, s.r2))
            pts = np.array(pts)
            # osculating radius from three well-separated samples
            a, b, c = pts[0], pts[200], pts[399]
            # circumradius of the triangle abc
            la = np.linalg.norm(b - c)
            lb = np.linalg.norm(a - c)
            lc = np.linalg.norm(a - b)
            u, w2 = b - a, c - a
            area = 0.5 * abs(u[0] * w2[1] - u[1] * w2[0])
            r_osc = la * lb * lc / (4.0 * area)
            assert r_osc == pytest.approx(v / abs(w), rel=5e-3)

    def test_se2_invariance(self):
        rng = np.random.default_rng(19)
        cmds = [(rng.uniform(1e-3, 15e-3), rng.uniform(-0.4, 0.4)) for _ in range(50)]
        rot = 0.83
        c, s_ = math.cos(rot), math.sin(rot)

        base = SwimmerState()
        moved = SwimmerState(psi=rot)
        for v, w in cmds:
            base = step(base, v, w, 0.02, response_time=0.3)
            moved = step(moved, v, w, 0.02, response_time=0.3)
            assert moved.r1 == pytest.approx(c * base.r1 - s_ * base.r2, abs=1e-9)
            assert moved.r2 == pytest.approx(s_ * base.r1 + c * base.r2, abs=1e-9)
            assert wrap_angle(moved.psi - base.psi) == pytest.approx(rot, abs=1e-9)

    def test_first_order_lag_exact(self):
        tau = 0.5
        dt = 0.1
        s = step(SwimmerState(), 10e-3, 0.2, dt, response_time=tau)
        blend = 1.0 - math.exp(-dt / tau)
        assert s.v == pytest.approx(10e-3 * blend, rel=1e-12)
        assert s.omega == pytest.approx(0.2 * blend, rel=1e-12)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            step(SwimmerState(), 0.0, 0.0, 0.0)


class TestMeasure:
    def test_noiseless_passthrough(self):
        assert observe(0.1, -0.2, 1.0) == (0.1, -0.2, 1.0)
        assert observe(0.1, -0.2, 1.0, None) == (0.1, -0.2, 1.0)

    def test_noise_statistics(self):
        rng = np.random.default_rng(101)
        sigma = 0.1e-3
        obs = np.array([observe(0.0, 0.0, 0.0, n) for n in observation_noise(rng, sigma, 100_000)])
        assert np.std(obs[:, 0]) == pytest.approx(sigma, rel=0.03)
        assert np.std(obs[:, 1]) == pytest.approx(sigma, rel=0.03)
        assert abs(np.mean(obs[:, 0])) < 3 * sigma / math.sqrt(100_000) * 3

    def test_fixed_seed_determinism(self):
        a = list(observation_noise(np.random.default_rng(42), 1e-3, 300))
        b = list(observation_noise(np.random.default_rng(42), 1e-3, 300))
        assert a == b

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            next(observation_noise(np.random.default_rng(0), -1e-3, 1))

    def test_one_size3_draw_per_observation(self):
        # the heading noise is the third draw over the 0.01 m marker baseline
        (noise,) = observation_noise(np.random.default_rng(4), 1e-3, 1)
        got = observe(0.01, -0.02, 3.1, noise)
        n = np.random.default_rng(4).normal(0.0, 1e-3, size=3)
        assert bits(*got) == bits(0.01 + n[0], -0.02 + n[1], wrap_angle(3.1 + n[2] / 0.01))


K = NOISE_CHUNK_TICKS


class TestObservationNoise:
    """observation_noise against one rng.normal(size=3) call per triple."""

    @staticmethod
    def serial(seed, sigma, n):
        rng = np.random.default_rng(seed)
        return [rng.normal(0.0, sigma, size=3).tolist() for _ in range(n)], rng

    @pytest.mark.parametrize("n", [0, 1, K - 1, K, K + 1, 3 * K + 7])
    def test_stream_equals_per_tick_draws(self, n):
        rng = np.random.default_rng(9)
        got = list(observation_noise(rng, 2e-4, n))
        want, ref = self.serial(9, 2e-4, n)
        assert [bits(*t) for t in got] == [bits(*t) for t in want]
        assert rng.random() == ref.random()

    # taken: triples used before the stop (a stop at tick k has used k + 1)
    @pytest.mark.parametrize("taken", [0, 1, 7, K - 1, K, K + 1, 2 * K, 3 * K + 6, 3 * K + 7])
    def test_stop_leaves_rng_where_per_tick_draws_would(self, taken):
        rng = np.random.default_rng(21)
        noise = observation_noise(rng, 1e-4, 3 * K + 7)
        got = [next(noise) for _ in range(taken)]
        noise.close()
        want, ref = self.serial(21, 1e-4, taken)
        assert got == want
        assert rng.random() == ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_noiseless_draws_nothing(self):
        rng = np.random.default_rng(3)
        noise = observation_noise(rng, 0.0, 5)
        assert [next(noise), next(noise)] == [None, None]
        noise.close()
        assert list(observation_noise(rng, 0.0, 4)) == [None] * 4
        assert rng.random() == np.random.default_rng(3).random()

    def test_shared_generator_hands_off(self):
        # two runs on one generator, the first stopped mid-chunk, as repeats are
        rng = np.random.default_rng(5)
        first = observation_noise(rng, 1e-4, 1000)
        a = [next(first) for _ in range(K + 30)]
        first.close()
        b = list(observation_noise(rng, 1e-4, 600))
        want, ref = self.serial(5, 1e-4, K + 30 + 600)
        assert a + b == want
        assert rng.random() == ref.random()


def reference_step(state, v_cmd, omega_cmd, dt, response_time):
    """One exact-arc step through SwimmerState, whose constructor wraps psi:
    the object form that the integrator must reproduce bit for bit."""
    if response_time > 0:
        blend = 1.0 - math.exp(-dt / response_time)
        v = state.v + (v_cmd - state.v) * blend
        w = state.omega + (omega_cmd - state.omega) * blend
    else:
        v, w = v_cmd, omega_cmd
    psi0 = state.psi
    if abs(w) > 1e-12:
        r1 = state.r1 + v / w * (math.sin(psi0 + w * dt) - math.sin(psi0))
        r2 = state.r2 - v / w * (math.cos(psi0 + w * dt) - math.cos(psi0))
    else:
        r1 = state.r1 + v * math.cos(psi0) * dt
        r2 = state.r2 + v * math.sin(psi0) * dt
    return SwimmerState(r1=r1, r2=r2, psi=psi0 + w * dt, v=v, omega=w)


def bits(*xs):
    return [float(x).hex() for x in xs]


class TestFloatKernels:
    """The integrator matches chained SwimmerState steps, and step, bit for bit."""

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_advance_matches_chained_steps(self, tau):
        rng = np.random.default_rng(11)
        for _ in range(200):
            # positions near the origin, so the last bits of each increment show
            s = SwimmerState(*rng.uniform(-1e-5, 1e-5, 2), psi=rng.uniform(-4, 4),
                             v=rng.uniform(0, 0.02), omega=rng.uniform(-0.5, 0.5))
            v_cmd, w_cmd = rng.uniform(0, 0.02), rng.choice([0.0, 1e-13, rng.uniform(-0.5, 0.5)])
            ref = s
            for _ in range(4):
                ref = reference_step(ref, v_cmd, w_cmd, 1e-3, tau)
            got = integrator(1e-3, 4, tau)(s.r1, s.r2, s.psi, s.v, s.omega, v_cmd, w_cmd)
            assert bits(*got) == bits(ref.r1, ref.r2, ref.psi, ref.v, ref.omega)
            one = step(s, v_cmd, w_cmd, 1e-3, response_time=tau)
            ref1 = reference_step(s, v_cmd, w_cmd, 1e-3, tau)
            assert bits(one.r1, one.r2, one.psi, one.v, one.omega) == bits(
                ref1.r1, ref1.r2, ref1.psi, ref1.v, ref1.omega)

    @pytest.mark.parametrize("psi, w, dt", [
        (math.pi, 0.0, 1e-3),                      # +pi stays +pi
        (-math.pi, 0.0, 1e-3),                     # -pi wraps to +pi
        (math.pi - 1e-4, 0.5, 1e-3),               # crosses +pi
        (-math.pi + 1e-4, -0.5, 1e-3),             # crosses -pi
        (1e-20, 0.0, 1e-3),                        # wraps to 0.0, not 1e-20
        (-1e-20, 0.0, 1e-3),
        (0.0, 1e-17, 1e-3),                        # psi + w*dt == 1e-20
        (3.0, 2.0, 0.25),
        (-3.0, -40.0, 0.5),                        # several turns in one step
    ])
    def test_substep_psi_is_wrap_angle(self, psi, w, dt):
        # tau = 0: the rate is the command from the first step
        got = integrator(dt, 1, 0.0)(0.0, 0.0, psi, 0.0, w, 0.0, w)[2]
        assert got.hex() == wrap_angle(psi + w * dt).hex()

    @settings(max_examples=300, deadline=None)
    @given(psi=st.floats(-math.pi, math.pi), w=st.floats(-50.0, 50.0),
           dt=st.floats(1e-6, 1.0), tau=st.sampled_from([0.0, 0.5]))
    def test_substep_psi_is_wrap_angle_drawn(self, psi, w, dt, tau):
        # the first step's rate: the command itself, or the lag's blend toward it
        advance = integrator(dt, 1, tau)
        _, _, got, _, w1 = advance(0.0, 0.0, psi, 0.0, 0.0, 0.01, w)
        assert got.hex() == wrap_angle(psi + w1 * dt).hex()

    def test_integrator_rejects_dt(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            integrator(0.0, 4, 0.5)


def write_grid(path, side_values):
    """Calibration CSV with one 2 x 2 grid per side; values in row order."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["freq_hz", "dc_pu", "side", "value", "units", "provenance"])
        cells = [(fr, dc) for fr in (1.0, 2.0) for dc in (0.05, 0.10)]
        for side, values in side_values.items():
            for (fr, dc), v in zip(cells, values):
                w.writerow([fr, dc, side, v, "x", "digitized"])
    return path


class TestCalibrationValidation:
    def test_from_csv_loads_sides(self, tmp_path):
        cal = PlantCalibration.from_csv(
            write_grid(tmp_path / "s.csv", {"": [1, 2, 3, 4]}),
            write_grid(tmp_path / "t.csv", {"left": [1, 2, 3, 4], "right": [-1, -2, -3, -4]}),
        )
        assert cal.speed_map(2.0, 0.10) == 4.0
        assert cal.turn_map_left(1.0, 0.10) == 2.0
        assert cal.turn_map_right(2.0, 0.05) == -3.0

    @pytest.mark.parametrize("speed, turn", [
        ([1, -2, 3, 4], {"left": [1, 2, 3, 4], "right": [-1, -2, -3, -4]}),
        ([1, 2, 3, 4], {"left": [1, 2, -3, 4], "right": [-1, -2, -3, -4]}),
        ([1, 2, 3, 4], {"left": [1, 2, 3, 4], "right": [-1, 2, -3, -4]}),
    ])
    def test_sign_checks(self, tmp_path, speed, turn):
        with pytest.raises(ValueError, match="must be non"):
            PlantCalibration.from_csv(
                write_grid(tmp_path / "s.csv", {"": speed}), write_grid(tmp_path / "t.csv", turn)
            )
