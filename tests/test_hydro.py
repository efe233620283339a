import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cycle_reference
from milliswim import hydro
from milliswim.errors import ConvergenceError, DomainError
from milliswim.hydro import (
    MIN_DEFAULT_INERTIA_STEPS,
    SETTLE_REL_TOL,
    FluidEnv,
    PlateMotion,
    balanced_head_amplitude,
    default_yaw_inertia,
    reactive_torque,
    simulate_cycle,
)
from milliswim.planform import (
    OLD_DESIGN_RDF_HEAD,
    OLD_DESIGN_RDF_TAIL,
    Planform,
    rdf_report_from_constants,
)

NEW_RDFS = rdf_report_from_constants(1.14e5, 1.07e4)
OLD_RDFS = rdf_report_from_constants(OLD_DESIGN_RDF_HEAD, OLD_DESIGN_RDF_TAIL)


class TestDragForcePerLength:
    """The quadratic-drag rule on a whole plate (reactive_torque)."""

    def test_zero_omega(self):
        env = FluidEnv(rho=1000.0, c_d=2.0)
        p = Planform.rectangle(10.0, 20.0, 20.0)
        assert reactive_torque(env, p, 0.0) == 0.0

    def test_hand_checked_value(self):
        # RDF = 2 * 10 * 20^4 / 4 = 8e5 mm^5 = 8e-10 m^5:
        # -0.5 * 1000 * 2 * 1*|1| * 8e-10 = -8e-7 N*m
        env = FluidEnv(rho=1000.0, c_d=2.0)
        p = Planform.rectangle(10.0, 20.0, 20.0)
        assert reactive_torque(env, p, 1.0) == pytest.approx(-8e-7, rel=1e-9)

    def test_opposes_local_velocity(self):
        # a plate on either side of the axis: the torque opposes the rotation
        env = FluidEnv()
        for p in (Planform.rectangle(10.0, 0.0, 20.0), Planform.rectangle(10.0, 20.0, 0.0)):
            for omega in (2.0, -2.0):
                tau = reactive_torque(env, p, omega)
                assert math.copysign(1.0, tau) == -math.copysign(1.0, omega)


@pytest.mark.parametrize("name", ["rho", "c_d"])
@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
def test_fluid_properties_must_be_finite_and_positive(name, bad):
    with pytest.raises(ValueError, match="finite and positive"):
        FluidEnv(**{name: bad})


class TestReactiveTorque:
    def test_zero_omega(self):
        assert reactive_torque(FluidEnv(), Planform.rectangle(10, 5, 5), 0.0) == 0.0

    def test_closed_form_rectangle(self):
        # RDF 3125 mm^5 = 3.125e-12 m^5
        env = FluidEnv(rho=1000.0, c_d=2.0)
        p = Planform.rectangle(10.0, 5.0, 5.0)
        assert reactive_torque(env, p, 10.0) == pytest.approx(-3.125e-7, rel=1e-9)

    def test_odd_in_omega(self):
        env = FluidEnv()
        p = Planform.parabola(8.0, 12.0)
        for w in (0.5, 2.0, 7.0):
            assert reactive_torque(env, p, -w) == pytest.approx(
                -reactive_torque(env, p, w), rel=1e-12
            )

    def test_quadratic_scaling(self):
        env = FluidEnv()
        p = Planform.rectangle(10.0, 5.0, 5.0)
        assert reactive_torque(env, p, 2.0) == pytest.approx(
            4.0 * reactive_torque(env, p, 1.0), rel=1e-12
        )

    def test_drag_only_removes_energy(self):
        env = FluidEnv()
        p = Planform.parabola(8.0, 12.0)
        for w in np.linspace(-5.0, 5.0, 41):
            assert w * reactive_torque(env, p, w) <= 0.0

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 1e200],
                             ids=["nan", "inf", "-inf", "overflow"])
    def test_rejects_what_it_cannot_return(self, omega):
        with pytest.raises(DomainError,
                           match=re.escape(f"reactive torque is not finite at omega={omega:g}")):
            reactive_torque(FluidEnv(), Planform.parabola(8.0, 12.0), omega)


class TestNetBodyTorque:
    """The actuator torques cancel in the body total: simulate_cycle's
    tau_b = -tau_rh + tau_rt."""

    def test_balanced(self):
        res = simulate_cycle(FluidEnv(), None, None, PlateMotion.sinusoid(1.0, 2.0), rdfs=NEW_RDFS)
        assert np.array_equal(res.tau_b, res.tau_rt - res.tau_rh)
        assert abs(np.mean(res.tau_b)) < 1e-3 * res.torque_scale


class TestPlateMotion:
    @pytest.mark.parametrize("amplitude,freq", [
        (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1.0),
        (math.nan, 2.0), (math.inf, 2.0),
    ], ids=["freq-nan", "freq-inf", "freq-0", "freq-neg", "amp-nan", "amp-inf"])
    def test_rejected_at_construction(self, amplitude, freq):
        with pytest.raises(ValueError, match="must be finite"):
            PlateMotion(amplitude, freq)

    def test_closed_form(self):
        m = PlateMotion.sinusoid(-3.0, 4.0)
        assert (m.period, m.mean_square()) == (0.25, 4.5)


class TestBalancedHeadAmplitude:
    def test_symmetric(self):
        rdfs = rdf_report_from_constants(1.0e4, 1.0e4)
        m = PlateMotion.sinusoid(3.0, 2.0)
        assert balanced_head_amplitude(rdfs, m.mean_square()) == pytest.approx(3.0, rel=1e-6)

    def test_design_ratio(self):
        m = PlateMotion.sinusoid(1.0, 2.0)
        amp = balanced_head_amplitude(NEW_RDFS, m.mean_square())
        assert amp == pytest.approx(1.0 / math.sqrt(10.654), rel=1e-3)

    def test_large_head_rdf_anchors(self):
        m = PlateMotion.sinusoid(1.0, 2.0)
        huge = rdf_report_from_constants(1e12, 1.07e4)
        assert balanced_head_amplitude(huge, m.mean_square()) < 1e-3

    def test_satisfies_balance_identity(self):
        m = PlateMotion.sinusoid(2.2, 3.0)
        amp = balanced_head_amplitude(NEW_RDFS, m.mean_square())
        lhs = amp**2 / 2.0 * NEW_RDFS.i_head
        rhs = m.mean_square() * NEW_RDFS.i_tail
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestSimulateCycle:
    def test_zero_tail_motion(self):
        still = PlateMotion.sinusoid(0.0, 2.0)
        res = simulate_cycle(FluidEnv(), None, None, still, rdfs=NEW_RDFS)
        assert np.all(res.omega_h == 0.0)
        assert np.all(res.tau_b == 0.0)

    def test_symmetric_cycle_has_zero_mean_rotation(self):
        m = PlateMotion.sinusoid(1.5, 2.0)
        head = Planform.rectangle(10.0, 5.0, 5.0)
        res = simulate_cycle(FluidEnv(), head, head, m)
        assert abs(np.mean(res.omega_h)) < 1e-4 * np.max(np.abs(res.omega_h))

    def test_steady_state_torque_balance(self):
        m = PlateMotion.sinusoid(1.0, 2.0)
        res = simulate_cycle(FluidEnv(), None, None, m, rdfs=NEW_RDFS)
        assert abs(res.mean_tau_rh - res.mean_tau_rt) < 1e-3 * res.torque_scale

    def test_mean_square_speed_ratio(self):
        m = PlateMotion.sinusoid(1.0, 2.0)
        res = simulate_cycle(FluidEnv(), None, None, m, rdfs=NEW_RDFS)
        ratio = res.mean_sq_omega_h / res.mean_sq_omega_t
        assert ratio == pytest.approx(NEW_RDFS.i_tail / NEW_RDFS.i_head, rel=0.02)

    def test_matches_balanced_amplitude_closed_form(self):
        m = PlateMotion.sinusoid(1.0, 2.0)
        res = simulate_cycle(FluidEnv(), None, None, m, rdfs=NEW_RDFS)
        amp = balanced_head_amplitude(NEW_RDFS, m.mean_square())
        assert res.mean_sq_omega_h == pytest.approx(amp**2 / 2.0, rel=0.02)

    def test_step_halving_converged(self):
        m = PlateMotion.sinusoid(1.0, 2.0)
        coarse = simulate_cycle(FluidEnv(), None, None, m, rdfs=NEW_RDFS, n_steps=1000)
        fine = simulate_cycle(FluidEnv(), None, None, m, rdfs=NEW_RDFS, n_steps=2000)
        assert coarse.mean_sq_omega_h == pytest.approx(fine.mean_sq_omega_h, rel=1e-4)
        assert np.mean(np.abs(coarse.tau_rh)) == pytest.approx(
            np.mean(np.abs(fine.tau_rh)), rel=1e-4
        )

    def test_nonconvergence_raises(self, monkeypatch):
        # inertia thousands of times the default: the head still drifts
        # measurably each period but needs far more than 3 periods to settle
        monkeypatch.setattr(hydro, "MAX_PERIODS", 3)
        m = PlateMotion.sinusoid(1.0, 2.0)
        env = FluidEnv()
        slow = 6000.0 * default_yaw_inertia(env, NEW_RDFS, m.period, m.mean_square())
        with pytest.raises(ConvergenceError, match="in 3 periods"):
            simulate_cycle(env, None, None, m, rdfs=NEW_RDFS, yaw_inertia=slow)

    def test_requires_minimum_steps(self):
        m = PlateMotion.sinusoid(1.0, 2.0)
        with pytest.raises(ValueError):
            simulate_cycle(FluidEnv(), None, None, m, rdfs=NEW_RDFS, n_steps=50)

    @pytest.mark.parametrize("inertia", [math.nan, math.inf, 0.0, -1e-9])
    def test_rejects_non_finite_or_nonpositive_inertia(self, inertia):
        # unchecked, a NaN runs all MAX_PERIODS periods into a ConvergenceError
        # and an inf "converges" after one period with a still head
        m = PlateMotion.sinusoid(1.0, 2.0)
        with pytest.raises(ValueError, match="yaw_inertia must be finite and positive"):
            simulate_cycle(FluidEnv(), None, None, m, rdfs=NEW_RDFS, yaw_inertia=inertia)


def _outcome(fn, *args):
    """The six CycleResult arrays' bytes and periods_to_converge, or the
    ConvergenceError message."""
    try:
        res = fn(*args)
    except ConvergenceError as e:
        return str(e)
    return [a.tobytes() for a in (res.t, res.omega_h, res.omega_t, res.tau_rh, res.tau_rt,
                                  res.tau_b)] + [res.periods_to_converge]


@settings(max_examples=40, deadline=None)
@given(
    amp=st.sampled_from([0.0, -1.0, 1.0]).flatmap(
        lambda sign: st.floats(0.05, 3.0).map(lambda a: sign * a)),
    freq=st.floats(0.5, 5.0),
    n_steps=st.integers(100, 3000),
    inertia_factor=st.sampled_from([None, 10.0, 40.0]),
    rdfs=st.sampled_from([NEW_RDFS, OLD_RDFS]),
)
def test_cycle_matches_the_per_step_reference(amp, freq, n_steps, inertia_factor, rdfs):
    """The drive computed once per call, by phase, reproduces the per-step RK4
    bit for bit, the returned period included. Under about 150 steps per period
    the default inertia is RK4-unstable, and both must then raise the same
    ConvergenceError."""
    env, m = FluidEnv(), PlateMotion(amp, freq)
    inertia = None if inertia_factor is None else (
        inertia_factor * default_yaw_inertia(env, rdfs, m.period, m.mean_square()))
    args = (env, None, None, m, inertia, n_steps, rdfs)
    assert _outcome(simulate_cycle, *args) == _outcome(cycle_reference.simulate_cycle, *args)


def test_reference_and_cycle_fail_to_converge_alike(monkeypatch):
    monkeypatch.setattr(hydro, "MAX_PERIODS", 3)
    m = PlateMotion.sinusoid(1.0, 2.0)
    env = FluidEnv()
    slow = 6000.0 * default_yaw_inertia(env, NEW_RDFS, m.period, m.mean_square())
    for fn in (simulate_cycle, cycle_reference.simulate_cycle):
        with pytest.raises(ConvergenceError, match="in 3 periods"):
            fn(env, None, None, m, rdfs=NEW_RDFS, yaw_inertia=slow)


def _cycle_digest(res):
    h = hashlib.sha256()
    for a in (res.t, res.omega_h, res.omega_t, res.tau_rh, res.tau_rt, res.tau_b):
        h.update(a.tobytes())
    h.update(str(res.periods_to_converge).encode())
    return h.hexdigest()


def _pinned_cycle_cases():
    """name -> (tail motion, extra simulate_cycle arguments)."""
    cases = {}
    for seed in (3, 17, 42):
        rng = np.random.default_rng(seed)
        freq, amp = rng.uniform(0.5, 5.0), rng.uniform(0.2, 3.0)
        cases[f"seed{seed}"] = PlateMotion.sinusoid(amp, freq), {}
    def inertia(m):
        return default_yaw_inertia(FluidEnv(), NEW_RDFS, m.period, m.mean_square())

    m = PlateMotion.sinusoid(1.3, 2.5)
    cases["inertia"] = m, {"yaw_inertia": 40.0 * inertia(m)}
    m = PlateMotion.sinusoid(0.8, 1.7)
    cases["n100"] = m, {"n_steps": 100, "yaw_inertia": 10.0 * inertia(m)}
    # a 12 mm tail whose tip sweeps 6.34 mm peak to peak at 2 Hz
    cases["excursion"] = PlateMotion(2.0 * math.pi * 2.0 * math.asin(0.5 * 6.34 / 12.0), 2.0), {}
    return cases


# sha256 over the six CycleResult arrays (.tobytes()) and periods_to_converge,
# recorded once the drive was evaluated by phase within the period and the
# converging period became the cycle returned; cycle_reference reproduces them.
PINNED_CYCLES = {
    "seed3": (2, "8f16fa2e26d3d6d8aab574d9b8865c4f1f53c35d204907fc6e69f70f40d47c0d"),
    "seed17": (2, "e5c9c176f7e7ddb54911c6c89433caf2540d6f50f957f04ab847a4b2b3b3b006"),
    "seed42": (2, "e307dcaf3805843b0ef86ca8dd08bb67720e18867b88deae47ec04120cc7eaaa"),
    "inertia": (4, "07ddd9f43570c497ede9fb064484af252b4b90a6bddf978aa26a16ebfd69d976"),
    "n100": (2, "2531245606544b0ce0e3c367d70d88324ad3c04e736bc0821111113dd43bde69"),
    "excursion": (2, "f91dc86b9748aa5091224587bb5679b29215022f0302033452d2f06a8160417f"),
}


@pytest.mark.parametrize("name", PINNED_CYCLES)
def test_cycle_arrays_pinned(name):
    motion, kwargs = _pinned_cycle_cases()[name]
    res = simulate_cycle(FluidEnv(), None, None, motion, rdfs=NEW_RDFS, **kwargs)
    assert (res.periods_to_converge, _cycle_digest(res)) == PINNED_CYCLES[name]



@pytest.mark.parametrize("name", ["seed3", "inertia"])
def test_drive_is_computed_once_per_call(name, monkeypatch):
    # three sin calls per step in all, however many periods it takes to converge
    motion, kwargs = _pinned_cycle_cases()[name]
    calls = []
    sin = math.sin
    monkeypatch.setattr(math, "sin", lambda x: calls.append(x) or sin(x))
    res = simulate_cycle(FluidEnv(), None, None, motion, rdfs=NEW_RDFS, **kwargs)
    assert (res.periods_to_converge, len(calls)) == (PINNED_CYCLES[name][0], 3 * 1000)


@pytest.mark.parametrize("name", PINNED_CYCLES)
def test_returned_period_is_the_converging_one(name):
    """The reference's RK4 step, run over the returned period from its first
    head rate, comes back to that rate within the convergence bound."""
    motion, kwargs = _pinned_cycle_cases()[name]
    res = simulate_cycle(FluidEnv(), None, None, motion, rdfs=NEW_RDFS, **kwargs)
    rk4_step = cycle_reference.rk4_stepper(FluidEnv(), NEW_RDFS, motion,
                                           kwargs.get("yaw_inertia"), res.t.size)
    w = w0 = float(res.omega_h[0])
    for t in res.t.tolist():
        w = rk4_step(t, w)
    assert abs(w - w0) <= SETTLE_REL_TOL * math.sqrt(motion.mean_square())


@pytest.mark.parametrize("rdfs", [NEW_RDFS, OLD_RDFS], ids=["new", "old"])
@pytest.mark.parametrize("amp,freq", [(1.0, 2.0), (-0.8, 1.7), (2.5, 4.0)])
def test_default_inertia_stability_edge(rdfs, amp, freq):
    """The edge MIN_DEFAULT_INERTIA_STEPS rests on: with the default yaw
    inertia the cycle never settles at 145 steps per period, and settles in
    2 periods at 146 and at the least steps a config may ask for."""
    m = PlateMotion(amp, freq)
    with pytest.raises(ConvergenceError):
        simulate_cycle(FluidEnv(), None, None, m, n_steps=145, rdfs=rdfs)
    for n_steps in (146, MIN_DEFAULT_INERTIA_STEPS):
        res = simulate_cycle(FluidEnv(), None, None, m, n_steps=n_steps, rdfs=rdfs)
        assert res.periods_to_converge == 2
