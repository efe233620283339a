"""Swimming-efficiency metrics and trajectory statistics.

CoT = P / (m g v), St = f A / v, Re = v L / nu, Sw = 2 pi f A L / nu; the
identity Sw = 2 pi Re St holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import ReferencePath
from .errors import DomainError

# Swimmer constants used as defaults throughout.
DEFAULT_MASS_KG = 59e-6
DEFAULT_LENGTH_M = 36e-3
DEFAULT_G = 9.81
DEFAULT_NU = 1.0e-6  # m^2/s, water near 20 C
# trajectory_stats' turning arc: the run around the |omega| peak above this share of it
TURN_WINDOW_FRAC = 0.9


@dataclass(frozen=True)
class SwimmerSpec:
    mass: float = DEFAULT_MASS_KG     # kg
    length: float = DEFAULT_LENGTH_M  # m
    g: float = DEFAULT_G              # m/s^2

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.mass, self.length, self.g)):
            raise ValueError("mass, length and g must be finite and positive")


def _finite(value: float, name: str, divisor: str, x: float) -> float:
    """value, or DomainError naming the divisor x when value is inf or nan (a
    tiny finite divisor overflows the quotient)."""
    if not math.isfinite(value):
        raise DomainError(f"{name} is not finite at {divisor}={x:g}")
    return value


def _nonnegative(**args: float) -> None:
    """DomainError naming the first argument that is not finite and nonnegative."""
    for name, x in args.items():
        if not 0 <= x < math.inf:
            raise DomainError(f"{name} must be finite and nonnegative")


def cost_of_transport(p_avg: float, spec: SwimmerSpec, v_avg: float) -> float:
    """CoT = P / (m g v): energy per unit weight per unit distance."""
    if not 0 < v_avg < math.inf:
        raise DomainError("v_avg must be finite and positive")
    weight_speed = spec.mass * spec.g * v_avg
    cot = p_avg / weight_speed if weight_speed else math.inf
    return _finite(cot, "cost of transport", "v_avg", v_avg)


def strouhal(f_o: float, a_pp: float, v_avg: float) -> float:
    """St = f * A_pp / v."""
    if not 0 < v_avg < math.inf:
        raise DomainError("v_avg must be finite and positive")
    _nonnegative(f_o=f_o, a_pp=a_pp)
    return _finite(f_o * a_pp / v_avg, "Strouhal number", "v_avg", v_avg)


def reynolds(v_avg: float, length: float, nu: float = DEFAULT_NU) -> float:
    """Re = v * L / nu."""
    if not 0 <= v_avg < math.inf:
        raise DomainError("v_avg must be finite and nonnegative")
    if not 0 < nu < math.inf:
        raise DomainError("nu must be finite and positive")
    return _finite(v_avg * length / nu, "Reynolds number", "nu", nu)


def swim_number(f_o: float, a_pp: float, length: float, nu: float = DEFAULT_NU) -> float:
    """Sw = 2 pi f A_pp L / nu = 2 pi Re St."""
    if not 0 < nu < math.inf:
        raise DomainError("nu must be finite and positive")
    _nonnegative(f_o=f_o, a_pp=a_pp)
    return _finite(2.0 * math.pi * f_o * a_pp * length / nu, "swim number", "nu", nu)


def format_table(summary: dict) -> str:
    """Aligned two-column text table of a summary dict."""
    width = max(len(k) for k in summary)
    lines = []
    for k, v in summary.items():
        sv = "n/a" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))
        lines.append(f"{k:<{width}}  {sv}")
    return "\n".join(lines)


def _turning_window(omega: np.ndarray) -> np.ndarray:
    """Boolean mask of the contiguous run around the |omega| peak where
    |omega| stays above TURN_WINDOW_FRAC * peak."""
    a = np.abs(omega)
    peak = a.max()
    mask = np.zeros(a.size, dtype=bool)
    if peak <= 0:
        return mask
    k = int(np.argmax(a))
    lo = k
    while lo > 0 and a[lo - 1] >= TURN_WINDOW_FRAC * peak:
        lo -= 1
    hi = k
    while hi < a.size - 1 and a[hi + 1] >= TURN_WINDOW_FRAC * peak:
        hi += 1
    mask[lo : hi + 1] = True
    return mask


def lateral_errors(path: ReferencePath, r1, r2) -> np.ndarray:
    """Per-sample lateral error of a logged trajectory, with the segment
    switching of the control tick (control.controller) replayed from the
    first sample.

    Segment s is active from the sample at which segment s - 1's waypoint is
    first crossed (inclusive) up to the first sample at which its own is.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    errs = np.empty(r1.size)
    start = 0
    last = len(path.segments) - 1
    for idx, seg in enumerate(path.segments):
        end = r1.size
        if idx < last and seg.waypoint is not None:
            along = (r1 if seg.along_axis == 1 else r2)[start:]
            crossed = np.flatnonzero(seg.along_sign * (along - seg.waypoint) >= 0.0)
            if crossed.size:
                end = start + int(crossed[0])
        r_lat = r1 if seg.lateral_axis == 1 else r2
        errs[start:end] = seg.target - r_lat[start:end]
        if end == r1.size:
            break
        start = end
    return errs


def trajectory_stats(
    t: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
    v: np.ndarray,
    omega: np.ndarray,
    path: ReferencePath,
    window: float,
) -> dict:
    """Tracking statistics over the trailing `window` seconds of a log, as the
    stats.json fields rms_error_m, mean_speed_mps, mean_turn_rate_radps,
    mean_turn_rate_degps and turn_radius_m.

    The RMS error uses the per-sample lateral error along the active
    segment's axis, replaying the path's own segment-switching rule. Turn
    rate and radius are taken over the contiguous peak-yaw-rate window (the
    main turning arc) of a path with more than one segment; a one-segment
    path has no turn, so its turn rate is the window's mean yaw rate and its
    radius None.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0 or t[-1] - t[0] < window:
        raise DomainError("log does not span the requested window")
    sel = t >= t[-1] - window

    errs = lateral_errors(path, r1, r2)
    v_sel, omega_sel = np.asarray(v)[sel], np.asarray(omega)[sel]
    radius = None
    if len(path.segments) == 1:
        mean_rate = float(np.mean(omega_sel))
    else:
        turn = _turning_window(omega_sel)
        if turn.any():
            w_turn = omega_sel[turn]
            mean_rate = float(np.mean(w_turn))
            # median of the per-sample osculating radius: robust against the
            # first-order-lag ramp at the ends of the arc
            radius = float(np.median(v_sel[turn] / np.abs(w_turn)))
        else:
            mean_rate = 0.0
    return {
        "rms_error_m": float(np.sqrt(np.mean(errs[sel] ** 2))),
        "mean_speed_mps": float(np.mean(v_sel)),
        "mean_turn_rate_radps": mean_rate,
        "mean_turn_rate_degps": math.degrees(mean_rate),
        "turn_radius_m": radius,
    }
