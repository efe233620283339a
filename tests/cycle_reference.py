"""The cycle integrator in its per-step form, one nested RK4 step function
evaluating the tail rate at each stage's phase within the period: the
reference that hydro.simulate_cycle must reproduce bit for bit. Each period
logs the head rate at its step starts, and the period whose end meets
SETTLE_REL_TOL is the cycle returned."""

import math

import numpy as np

from milliswim import hydro
from milliswim.errors import ConvergenceError
from milliswim.hydro import MM5_TO_M5, SETTLE_REL_TOL, CycleResult, default_yaw_inertia
from milliswim.planform import rdf_report


def tail_rate(tail_motion, t):
    """amplitude * sin(2*pi*freq*t), one math.sin call."""
    return tail_motion.amplitude * math.sin(2.0 * math.pi * tail_motion.freq * t)


def rk4_stepper(env, rdfs, tail_motion, yaw_inertia, n_steps):
    """The head-rate map of one RK4 step of period/n_steps, rk4_step(t, w),
    from phase t; yaw_inertia None is the default inertia."""
    if yaw_inertia is None:
        yaw_inertia = default_yaw_inertia(env, rdfs, tail_motion.period,
                                          tail_motion.mean_square())
    i_h = rdfs.i_head * MM5_TO_M5
    i_t = rdfs.i_tail * MM5_TO_M5
    half_rho_cd = 0.5 * env.rho * env.c_d
    dt = tail_motion.period / n_steps

    def rk4_step(t, w):
        # slope = half_rho_cd * (w_t*|w_t|*i_t - w*|w|*i_h) / yaw_inertia;
        # k2 and k3 share the midpoint tail rate
        a = tail_rate(tail_motion, t)
        b = tail_rate(tail_motion, t + 0.5 * dt)
        c = tail_rate(tail_motion, t + dt)
        drive_a, drive_b, drive_c = a * abs(a) * i_t, b * abs(b) * i_t, c * abs(c) * i_t
        k1 = half_rho_cd * (drive_a - w * abs(w) * i_h) / yaw_inertia
        w2 = w + 0.5 * dt * k1
        k2 = half_rho_cd * (drive_b - w2 * abs(w2) * i_h) / yaw_inertia
        w3 = w + 0.5 * dt * k2
        k3 = half_rho_cd * (drive_b - w3 * abs(w3) * i_h) / yaw_inertia
        w4 = w + dt * k3
        k4 = half_rho_cd * (drive_c - w4 * abs(w4) * i_h) / yaw_inertia
        return w + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0

    return rk4_step


def simulate_cycle(env, head, tail, tail_motion, yaw_inertia=None, n_steps=1000, rdfs=None):
    """hydro.simulate_cycle, less its input checks: one rk4_step call and three
    math.sin calls per step. Reads hydro.MAX_PERIODS at call time, so a patched
    bound applies to both."""
    if rdfs is None:
        rdfs = rdf_report(head, tail)
    rk4_step = rk4_stepper(env, rdfs, tail_motion, yaw_inertia, n_steps)
    dt = tail_motion.period / n_steps
    phases = [s * dt for s in range(n_steps)]

    scale = math.sqrt(tail_motion.mean_square()) or 1.0
    w = 0.0
    converged_at = None
    for k in range(hydro.MAX_PERIODS):
        w_start = w
        w_h = np.empty(n_steps)
        for s, t in enumerate(phases):
            w_h[s] = w
            w = rk4_step(t, w)
        if abs(w - w_start) <= SETTLE_REL_TOL * scale:
            converged_at = k + 1
            break
    if converged_at is None:
        raise ConvergenceError(
            f"head yaw did not reach a periodic steady state in {hydro.MAX_PERIODS} periods"
        )

    w_t = np.array([tail_rate(tail_motion, t) for t in phases])
    half_rho_cd = 0.5 * env.rho * env.c_d
    i_h, i_t = rdfs.i_head * MM5_TO_M5, rdfs.i_tail * MM5_TO_M5
    tau_rh = half_rho_cd * w_h * np.abs(w_h) * i_h
    tau_rt = half_rho_cd * w_t * np.abs(w_t) * i_t
    return CycleResult(
        t=np.array(phases), omega_h=w_h, omega_t=w_t,
        tau_rh=tau_rh, tau_rt=tau_rt, tau_b=tau_rt - tau_rh,
        periods_to_converge=converged_at,
    )
