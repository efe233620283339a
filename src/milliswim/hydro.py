"""Resistive hydrodynamic torques and the cycle-averaged torque balance.

The head and tail are modeled as flat plates in quadratic (resistive) drag.
Each plate rotating at signed angular speed w experiences a reactive torque
proportional to w*|w| times its resistive drag factor (RDF). With the
actuator's internal torque canceling in the body total, the head's yaw
response to a prescribed tail motion is

    J * dw_h/dt = tau_b = -tau_rh + tau_rt,

where tau_rh = 0.5*rho*C_d*w_h*|w_h|*I_h and tau_rt = 0.5*rho*C_d*w_t*|w_t|*I_t
are the axis-aligned signed reactive torque magnitudes. At periodic steady
state <tau_b> = 0, which forces <w_h^2>*I_h = <w_t^2>*I_t.

All geometry enters in SI units here; RDFs carried in mm^5 are converted at
this boundary (1 mm^5 = 1e-15 m^5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .planform import Planform, RdfReport, rdf_report, resistive_drag_factor

MM5_TO_M5 = 1e-15
# simulate_cycle's convergence bound on the period map of omega_h, relative to
# the tail rate scale
SETTLE_REL_TOL = 1e-10
MAX_PERIODS = 200  # simulate_cycle's ConvergenceError bound
MIN_CYCLE_STEPS = 100  # simulate_cycle's least RK4 steps per period


@dataclass(frozen=True)
class FluidEnv:
    """Water properties. C_d defaults to flat-plate normal drag; it cancels in
    all RDF-ratio statements, so only absolute torque values depend on it."""

    rho: float = 1000.0   # kg/m^3
    c_d: float = 1.9      # dimensionless

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.rho, self.c_d)):
            raise ValueError("fluid properties must be finite and positive")


@dataclass(frozen=True)
class PlateMotion:
    """Sinusoidal signed angular speed of a plate: amplitude * sin(2*pi*freq*t)."""

    amplitude: float  # rad/s
    freq: float       # Hz

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if not 0 < self.freq < math.inf:
            raise ValueError("freq must be finite and positive")

    @staticmethod
    def sinusoid(amplitude: float, freq: float) -> "PlateMotion":
        """omega(t) = amplitude * sin(2*pi*freq*t)."""
        return PlateMotion(amplitude, freq)

    @property
    def period(self) -> float:
        return 1.0 / self.freq

    def mean_square(self) -> float:
        """<omega^2> over one period: amplitude^2 / 2."""
        return 0.5 * self.amplitude * self.amplitude


def reactive_torque(env: FluidEnv, p: Planform, omega: float) -> float:
    """Total reactive torque on the plate, N*m: -0.5*rho*C_d*omega*|omega|*RDF.
    DomainError if the torque is not finite, as it is for every non-finite omega."""
    rdf_m5 = resistive_drag_factor(p) * MM5_TO_M5
    tau = -0.5 * env.rho * env.c_d * omega * abs(omega) * rdf_m5
    if not math.isfinite(tau):
        raise DomainError(f"reactive torque is not finite at omega={omega:g}")
    return tau


def balanced_head_amplitude(report: RdfReport, mean_sq_t: float) -> float:
    """Sinusoidal head rate amplitude satisfying the rectilinear balance with a
    tail motion whose <w_t^2> is mean_sq_t: solves (amp^2 / 2) * I_h = <w_t^2> * I_t.
    """
    return math.sqrt(2.0 * mean_sq_t * report.i_tail / report.i_head)


@dataclass
class CycleResult:
    """Steady-state cycle time series and averages from simulate_cycle."""

    t: np.ndarray         # s, one period
    omega_h: np.ndarray   # rad/s
    omega_t: np.ndarray   # rad/s
    tau_rh: np.ndarray    # N*m
    tau_rt: np.ndarray    # N*m
    tau_b: np.ndarray     # N*m
    periods_to_converge: int

    @property
    def mean_tau_rh(self) -> float:
        return float(np.mean(self.tau_rh))

    @property
    def mean_tau_rt(self) -> float:
        return float(np.mean(self.tau_rt))

    @property
    def mean_sq_omega_h(self) -> float:
        return float(np.mean(self.omega_h**2))

    @property
    def mean_sq_omega_t(self) -> float:
        return float(np.mean(self.omega_t**2))

    @property
    def torque_scale(self) -> float:
        """Cycle-mean reactive torque magnitude, for relative balance checks."""
        return float(np.mean(np.abs(self.tau_rt)))


# The least RK4 steps per period a config may ask for: the cycle command runs
# the default yaw inertia, whose head damping rate times the step, ~600/n_steps,
# depends on n_steps alone, and the cycle does not settle below 146 steps per
# period (measured for both design RDF pairs and several drives).
MIN_DEFAULT_INERTIA_STEPS = 150


def default_yaw_inertia(env: FluidEnv, rdfs: RdfReport, period: float, mean_sq_t: float) -> float:
    """Lumped yaw inertia giving fast, RK4-stable head settling against a tail
    motion of the given period and <w_t^2> = mean_sq_t.

    Sized so the head damping rate is ~600/period at the balanced head rate:
    transients settle well within five cycles, the quasi-steady lag error in
    <w_h^2> stays below 0.5%, and the rate remains RK4-stable at the default
    1000 steps/period.
    """
    amp_h = balanced_head_amplitude(rdfs, mean_sq_t)
    if amp_h == 0.0:
        return 1e-12
    damping = env.rho * env.c_d * rdfs.i_head * MM5_TO_M5 * amp_h
    return damping * period / 600.0


def simulate_cycle(
    env: FluidEnv,
    head: Planform | None,
    tail: Planform | None,
    tail_motion: PlateMotion,
    yaw_inertia: float | None = None,
    n_steps: int = 1000,
    rdfs: RdfReport | None = None,
) -> CycleResult:
    """Integrate head yaw dynamics against a prescribed sinusoidal tail motion
    to a periodic steady state and return one steady cycle.

    RDFs are taken from `rdfs` when given (e.g. stored design constants),
    otherwise computed from the planform geometry. Fixed-step classic RK4 with
    the tail rate amplitude * sin(2*pi*freq*t) evaluated at each stage's phase
    t within the period, so the drives are computed once per call. Convergence
    is declared when the period map of omega_h contracts below SETTLE_REL_TOL
    relative to the tail rate scale sqrt(<w_t^2>), and the period whose end met
    it is the cycle returned; periods_to_converge counts the periods
    integrated. ConvergenceError is raised if none has within MAX_PERIODS.
    """
    if n_steps < MIN_CYCLE_STEPS:
        raise ValueError(f"n_steps must be at least {MIN_CYCLE_STEPS} per period")
    if rdfs is None:
        if head is None or tail is None:
            raise ValueError("either planforms or an RdfReport must be provided")
        rdfs = rdf_report(head, tail)
    period = tail_motion.period
    mean_sq_t = tail_motion.mean_square()
    if yaw_inertia is None:
        yaw_inertia = default_yaw_inertia(env, rdfs, period, mean_sq_t)
    if not 0 < yaw_inertia < math.inf:
        raise ValueError(f"yaw_inertia must be finite and positive, got {yaw_inertia!r}")

    i_h = rdfs.i_head * MM5_TO_M5
    i_t = rdfs.i_tail * MM5_TO_M5
    half_rho_cd = 0.5 * env.rho * env.c_d
    dt = period / n_steps
    half_dt = 0.5 * dt
    amp = tail_motion.amplitude
    w_tail = 2.0 * math.pi * tail_motion.freq
    steps = np.arange(n_steps, dtype=float) * dt  # s * dt, the step offsets in a period
    # the tail rate amp * sin(w_tail * t) at each step's start, midpoint and end
    # phase, with libm's sin: numpy's own sin may dispatch to SIMD kernels whose
    # rounding differs between CPUs
    rates = [amp * np.fromiter(map(math.sin, (w_tail * t).tolist()), float, n_steps)
             for t in (steps, steps + half_dt, steps + dt)]
    w_t = rates[0]
    # the tail drives w_t*|w_t|*i_t at those phases, the same in every period
    drives = [(x * np.abs(x) * i_t).tolist() for x in rates]

    # slope = half_rho_cd * (w_t*|w_t|*i_t - w*|w|*i_h) / yaw_inertia; k2 and k3
    # share the midpoint drive. Each period logs the head rate at its step starts.
    scale = math.sqrt(mean_sq_t) or 1.0
    w = 0.0
    for k in range(MAX_PERIODS):
        w_start = w
        w_log = []
        log = w_log.append
        for drive_a, drive_b, drive_c in zip(*drives):
            log(w)
            k1 = half_rho_cd * (drive_a - w * abs(w) * i_h) / yaw_inertia
            w2 = w + half_dt * k1
            k2 = half_rho_cd * (drive_b - w2 * abs(w2) * i_h) / yaw_inertia
            w3 = w + half_dt * k2
            k3 = half_rho_cd * (drive_b - w3 * abs(w3) * i_h) / yaw_inertia
            w4 = w + dt * k3
            k4 = half_rho_cd * (drive_c - w4 * abs(w4) * i_h) / yaw_inertia
            # 2.0, not 2: the same products, without an int-to-float conversion
            w = w + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if abs(w - w_start) <= SETTLE_REL_TOL * scale:
            break
    else:
        raise ConvergenceError(
            f"head yaw did not reach a periodic steady state in {MAX_PERIODS} periods"
        )

    w_h = np.array(w_log)
    tau_rh = half_rho_cd * w_h * np.abs(w_h) * i_h
    tau_rt = half_rho_cd * w_t * np.abs(w_t) * i_t
    return CycleResult(
        t=steps, omega_h=w_h, omega_t=w_t,
        tau_rh=tau_rh, tau_rt=tau_rt, tau_b=tau_rt - tau_rh,
        periods_to_converge=k + 1,
    )
