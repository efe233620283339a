"""Free-swimming behavioral surrogate.

Excitation commands map to steady forward speed and yaw rate through
empirically calibrated tables; the planar pose advances with unicycle
kinematics. Rates relax toward their commanded values with a first-order lag
so commands never produce instantaneous velocity jumps.

Forward speed during a pure turn is not part of the calibration data; it is
reconstructed as |omega| times a per-side nominal turn radius, which
reproduces the observed closed-loop turn geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .actuator import ExcitationCommand, Mode, classify_mode
from .errors import CalibrationRangeError
from .tables import BilinearTable

DEG = math.pi / 180.0


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


@dataclass(frozen=True)
class SwimmerState:
    """Planar pose plus body-frame rates."""

    r1: float = 0.0      # m, inertial
    r2: float = 0.0      # m, inertial
    psi: float = 0.0     # rad, heading from n1 to b1, CCW positive
    v: float = 0.0       # m/s along b1
    omega: float = 0.0   # rad/s about b3

    def __post_init__(self):
        object.__setattr__(self, "psi", wrap_angle(self.psi))


@dataclass(frozen=True)
class PlantCalibration:
    """Calibrated speed and turn-rate maps plus nominal turn radii."""

    speed_map: BilinearTable                 # (f, dc) -> mm/s
    turn_map_left: BilinearTable             # (f, dc) -> deg/s, >= 0
    turn_map_right: BilinearTable            # (f, dc) -> deg/s, <= 0
    turn_radius_left: float = 0.024          # m, nominal left-turn radius
    turn_radius_right: float = 0.010         # m, nominal right-turn radius

    def __post_init__(self):
        if np.any(self.speed_map.values < 0):
            raise ValueError("speeds must be nonnegative")
        if np.any(self.turn_map_left.values < 0):
            raise ValueError("left turn rates must be nonnegative")
        if np.any(self.turn_map_right.values > 0):
            raise ValueError("right turn rates must be nonpositive")

    @staticmethod
    def from_csv(speed_path, turn_path) -> "PlantCalibration":
        turn = BilinearTable.from_csv(turn_path, "value")
        return PlantCalibration(
            speed_map=BilinearTable.from_csv(speed_path, "value")["both"],
            turn_map_left=turn["left"],
            turn_map_right=turn["right"],
        )

    @staticmethod
    def default() -> "PlantCalibration":
        data = resources.files("milliswim.data")
        with resources.as_file(data / "speed.csv") as sp, resources.as_file(
            data / "turn.csv"
        ) as tp:
            return PlantCalibration.from_csv(sp, tp)


def command_to_rates(cal: PlantCalibration, cmd: ExcitationCommand) -> tuple[float, float]:
    """Steady-state (v m/s, omega rad/s) for an excitation command.

    Bimorph: calibrated forward speed, zero yaw rate. Unimorph: calibrated
    turn rate with forward speed omega * nominal radius. Mixed: speed from the
    mean duty cycle, yaw rate scaled from the dominant channel's unimorph rate
    by the duty-cycle asymmetry.
    """
    mode = classify_mode(cmd)
    if mode is Mode.IDLE:
        return 0.0, 0.0
    if mode is Mode.BIMORPH:
        return cal.speed_map(cmd.freq, cmd.dc_left) * 1e-3, 0.0
    if mode is Mode.UNIMORPH_LEFT:
        w = cal.turn_map_left(cmd.freq, cmd.dc_left) * DEG
        return abs(w) * cal.turn_radius_left, w
    if mode is Mode.UNIMORPH_RIGHT:
        w = cal.turn_map_right(cmd.freq, cmd.dc_right) * DEG
        return abs(w) * cal.turn_radius_right, w
    # mixed: linear blend by duty-cycle asymmetry, saturating at the
    # unimorph endpoints
    asym = (cmd.dc_left - cmd.dc_right) / (cmd.dc_left + cmd.dc_right)
    dc_dom = max(cmd.dc_left, cmd.dc_right)
    if asym > 0:
        w = asym * cal.turn_map_left(cmd.freq, dc_dom) * DEG
    else:
        w = -asym * cal.turn_map_right(cmd.freq, dc_dom) * DEG
    v = cal.speed_map(cmd.freq, 0.5 * (cmd.dc_left + cmd.dc_right)) * 1e-3
    return v, w


def step(
    state: SwimmerState,
    v_cmd: float,
    omega_cmd: float,
    dt: float,
    response_time: float = 0.0,
) -> SwimmerState:
    """Advance the pose by dt with commanded rates.

    Rates relax first-order toward the commands (exact discretization);
    the pose then follows a constant-rate arc over the step, which keeps
    constant-command trajectories exactly circular.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
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


def measure(
    state: SwimmerState,
    noise_sigma: float,
    rng: np.random.Generator | None = None,
    heading_scale: float = 0.01,
) -> tuple[float, float, float]:
    """Motion-capture style observation of (r1, r2, psi).

    Positions get zero-mean Gaussian noise of std noise_sigma; the heading
    noise is the position noise divided by the marker baseline heading_scale
    (m). Noiseless passthrough when noise_sigma = 0.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
    if noise_sigma == 0.0 or rng is None:
        return state.r1, state.r2, state.psi
    n = rng.normal(0.0, noise_sigma, size=3)
    return (
        state.r1 + n[0],
        state.r2 + n[1],
        wrap_angle(state.psi + n[2] / heading_scale),
    )
