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
from dataclasses import dataclass, field

from .actuator import ExcitationCommand
from .plant import wrap_angle

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


def lateral_error(path: ReferencePath, st: ControllerState, r1: float, r2: float) -> float:
    """Lateral error r_e,j = r_d,j - r_j along the active segment's axis j
    (path.segments[st.active_segment].lateral_axis).

    Advances st.active_segment past crossed waypoints first, resetting the
    integrator on a switch.
    """
    idx = path.advance(st.active_segment, r1, r2)
    if idx != st.active_segment:
        st.active_segment = idx
        st.integrator = 0.0
    seg = path.segments[idx]
    return seg.target - (r1 if seg.lateral_axis == 1 else r2)


def lpc_step(cfg: ControlConfig, st: ControllerState, r_e: float, dt: float) -> float:
    """PI lateral-position law: psi_d = k_p*r_e + k_i*integral(r_e).

    The integral uses the rectangular rule at the loop rate. |k_i * integral|
    is clamped at INTEGRATOR_LIMIT and the output at PSI_D_LIMIT.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    st.integrator += r_e * dt
    if cfg.k_i > 0:
        bound = INTEGRATOR_LIMIT / cfg.k_i
        clamped = min(max(st.integrator, -bound), bound)
        if clamped != st.integrator:
            st.integrator = clamped
            st.integrator_clamps += 1
    psi_d = cfg.k_p * r_e + cfg.k_i * st.integrator
    return min(max(psi_d, -PSI_D_LIMIT), PSI_D_LIMIT)


def heading_step(cfg: ControlConfig, psi_d: float, psi: float) -> float:
    """Proportional heading law on the wrapped heading error."""
    return cfg.k_p_psi * wrap_angle(psi_d - psi)


def actuator_mapping(cfg: ControlConfig, u_v: float, u_psi: float) -> tuple[float, float]:
    """Split the steering input across the two channels with saturation."""
    u_l = min(max(u_v + u_psi, 0.0), cfg.u_max)
    u_r = min(max(u_v - u_psi, 0.0), cfg.u_max)
    return u_l, u_r


def tick(
    cfg: ControlConfig,
    path: ReferencePath,
    st: ControllerState,
    r1: float,
    r2: float,
    psi: float,
    dt: float,
) -> tuple[float, float]:
    """One control tick: LPC -> heading controller -> actuator mapping.

    Returns the channel duty cycles (u_l, u_r). The LPC correction is applied
    about the active segment's nominal heading, signed so that a positive
    body-left cross-track error steers left. For the rectilinear path
    (heading 0, lateral axis 2) this reduces to the bare PI law on r_e,2.
    """
    r_e = lateral_error(path, st, r1, r2)
    seg = path.segments[st.active_segment]
    psi_d = wrap_angle(seg.heading + lpc_step(cfg, st, seg.left_normal_sign * r_e, dt))
    return actuator_mapping(cfg, cfg.u_v, heading_step(cfg, psi_d, psi))


def closed_loop_tick(
    cfg: ControlConfig,
    path: ReferencePath,
    st: ControllerState,
    r1: float,
    r2: float,
    psi: float,
    dt: float,
) -> ExcitationCommand:
    """One control tick as an excitation command; see tick."""
    u_l, u_r = tick(cfg, path, st, r1, r2, psi, dt)
    return ExcitationCommand(freq=cfg.freq, dc_left=u_l, dc_right=u_r)
