"""Cascaded trajectory-tracking controller.

A lateral-position controller (PI) converts the cross-track error along the
active path segment into a desired heading; a proportional heading controller
converts the heading error into a steering input u_psi; the actuator mapping
adds u_psi to one channel's duty cycle and subtracts it from the other,
clamped to [0, u_max]. Positive u_psi (counterclockwise demand) biases the
left channel, since left-unimorph excitation produces a left turn.

Reference paths are sequences of axis-aligned segments. Each segment tracks
one lateral coordinate (r1 or r2) while progressing along the other; segment
switching triggers when the along-path coordinate passes the waypoint, and
the integrator resets at the switch.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .actuator import ExcitationCommand

# Safeguards beyond the basic law: the clamps on the LPC output and on
# |k_i * integral| (windup).
PSI_D_LIMIT = math.pi / 2
INTEGRATOR_LIMIT = math.pi / 4


@dataclass(frozen=True)
class ControlConfig:
    k_p: float = 3.0          # rad/m
    k_i: float = 1.0          # rad/(m*s)
    k_p_psi: float = 2.0      # 1/rad
    u_v: float = 0.11         # per-unit speed reference
    u_max: float = 0.22       # per-unit duty saturation bound
    freq: float = 3.0         # Hz, actuation frequency
    loop_rate: float = 250.0  # Hz, controller tick rate

    def __post_init__(self):
        if not all(0 <= g < math.inf for g in (self.k_p, self.k_i, self.k_p_psi)):
            raise ValueError("gains must be finite and nonnegative")
        if not 0.0 < self.u_v <= self.u_max <= 1.0:
            raise ValueError("require 0 < u_v <= u_max <= 1")
        if not (0 < self.loop_rate < math.inf and 0 < self.freq < math.inf):
            raise ValueError("freq and loop_rate must be finite and positive")


@dataclass(frozen=True)
class PathSegment:
    """One axis-aligned leg of a reference path.

    heading: nominal travel direction, a multiple of pi/2.
    target: desired value of the lateral coordinate (the axis perpendicular
    to travel). waypoint: along-path coordinate value that ends the segment
    (None for a terminal segment).
    """

    heading: float
    target: float
    waypoint: float | None = None

    # Derived from heading once, in __post_init__ (the tracking loop reads
    # them every tick):
    # lateral_axis: 1 or 2, the coordinate the segment holds at `target`;
    # along_axis: the other one;
    # along_sign: +1 when the along-path coordinate increases during travel;
    # left_normal_sign: s such that s * (target - r_lat) is the error toward
    # body-left.
    lateral_axis: int = field(init=False, repr=False, compare=False)
    along_axis: int = field(init=False, repr=False, compare=False)
    along_sign: float = field(init=False, repr=False, compare=False)
    left_normal_sign: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c, s = math.cos(self.heading), math.sin(self.heading)
        lateral = 1 if abs(s) > 0.5 else 2
        along = 2 if lateral == 1 else 1
        # left normal of heading theta is (-sin(theta), cos(theta))
        if lateral == 2:
            left = 1.0 if c >= 0 else -1.0
        else:
            left = -1.0 if s >= 0 else 1.0
        for name, value in (
            ("lateral_axis", lateral),
            ("along_axis", along),
            ("along_sign", 1.0 if (c if along == 1 else s) >= 0 else -1.0),
            ("left_normal_sign", left),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ReferencePath:
    segments: tuple[PathSegment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("path needs at least one segment")

    @staticmethod
    def rectilinear() -> "ReferencePath":
        """Travel +n1 holding r2 = 0."""
        return ReferencePath((PathSegment(heading=0.0, target=0.0),))

    @staticmethod
    def left_turn(corner: float = 0.05) -> "ReferencePath":
        """Travel +n1 holding r2 = 0, then turn left and travel +n2 holding
        r1 = corner."""
        return ReferencePath((
            PathSegment(heading=0.0, target=0.0, waypoint=corner),
            PathSegment(heading=math.pi / 2, target=corner),
        ))

    @staticmethod
    def right_turn(corner: float = 0.05) -> "ReferencePath":
        """Travel +n1 holding r2 = 0, then turn right and travel -n2 holding
        r1 = corner."""
        return ReferencePath((
            PathSegment(heading=0.0, target=0.0, waypoint=corner),
            PathSegment(heading=-math.pi / 2, target=corner),
        ))

    def advance(self, index: int, r1: float, r2: float) -> int:
        """Active segment index after checking waypoint crossings at (r1, r2)."""
        while index < len(self.segments) - 1:
            seg = self.segments[index]
            if seg.waypoint is None:
                break
            along = r1 if seg.along_axis == 1 else r2
            if seg.along_sign * (along - seg.waypoint) >= 0.0:
                index += 1
            else:
                break
        return index


@dataclass
class ControllerState:
    integrator: float = 0.0   # m*s, accumulated cross-track error
    active_segment: int = 0
    integrator_clamps: int = 0  # ticks on which INTEGRATOR_LIMIT cut the integrator


def controller(
    cfg: ControlConfig, path: ReferencePath, dt: float
) -> Callable[[ControllerState, float, float, float], tuple[float, float]]:
    """The control tick of the module docstring, bound once to cfg's gains,
    the path and the tick length dt: step(st, r1, r2, psi) -> (u_l, u_r), the
    duty cycles for an observed pose, updating st. The PI integral uses the
    rectangular rule at dt; |k_i * integral| is clamped at INTEGRATOR_LIMIT
    (each cut counted in st.integrator_clamps) and the LPC output at
    PSI_D_LIMIT. The correction is applied about the active segment's nominal
    heading, signed so that a body-left error steers left; the heading demand
    and the heading error are wrapped by plant.wrap_angle's rule, inline.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    k_p, k_i, k_p_psi, u_v, u_max = cfg.k_p, cfg.k_i, cfg.k_p_psi, cfg.u_v, cfg.u_max
    clamp = k_i > 0
    hi = INTEGRATOR_LIMIT / k_i if clamp else math.inf
    lo, psi_d_hi, psi_d_lo = -hi, PSI_D_LIMIT, -PSI_D_LIMIT
    legs = [(s.heading, s.target, s.lateral_axis == 1, s.left_normal_sign)
            for s in path.segments]
    last = len(legs) - 1
    advance = path.advance
    fmod, pi, two_pi = math.fmod, math.pi, 2.0 * math.pi

    def step(st: ControllerState, r1: float, r2: float, psi: float) -> tuple[float, float]:
        idx = st.active_segment
        if idx < last:
            new = advance(idx, r1, r2)
            if new != idx:
                st.active_segment = idx = new
                st.integrator = 0.0
        heading, target, on_r1, sign = legs[idx]
        r_e = sign * (target - (r1 if on_r1 else r2))  # lateral error, + to body-left
        integral = st.integrator + r_e * dt
        if clamp and not lo <= integral <= hi:
            integral = min(max(integral, lo), hi)
            st.integrator_clamps += 1
        st.integrator = integral
        psi_d = k_p * r_e + k_i * integral
        if psi_d > psi_d_hi:
            psi_d = psi_d_hi
        elif psi_d < psi_d_lo:
            psi_d = psi_d_lo
        # psi_d = wrap_angle(heading + psi_d); u_psi = k_p_psi * wrap_angle(psi_d - psi)
        a = fmod(heading + psi_d + pi, two_pi)
        if a <= 0.0:
            a += two_pi
        psi_d = a - pi
        a = fmod(psi_d - psi + pi, two_pi)
        if a <= 0.0:
            a += two_pi
        u_psi = k_p_psi * (a - pi)
        u_l, u_r = u_v + u_psi, u_v - u_psi
        return (u_max if u_l > u_max else 0.0 if u_l < 0.0 else u_l,
                u_max if u_r > u_max else 0.0 if u_r < 0.0 else u_r)

    return step


def closed_loop_tick(cfg: ControlConfig, path: ReferencePath, st: ControllerState,
                     r1: float, r2: float, psi: float, dt: float) -> ExcitationCommand:
    """One control tick (controller bound for it) as an excitation command."""
    u_l, u_r = controller(cfg, path, dt)(st, r1, r2, psi)
    return ExcitationCommand(freq=cfg.freq, dc_left=u_l, dc_right=u_r)
