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
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .actuator import BIMORPH, IDLE, MIXED, UNIMORPH_LEFT, UNIMORPH_RIGHT, Mode
from .errors import CalibrationRangeError
from .tables import BilinearTable

DEG = math.pi / 180.0
MARKER_BASELINE_M = 0.01  # m; observe divides a position-noise draw by it for the heading
NOISE_CHUNK_TICKS = 250   # noise triples per rng.normal call of observation_noise


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
        if min(map(min, self.speed_map.values)) < 0:
            raise ValueError("speeds must be nonnegative")
        if min(map(min, self.turn_map_left.values)) < 0:
            raise ValueError("left turn rates must be nonnegative")
        if max(map(max, self.turn_map_right.values)) > 0:
            raise ValueError("right turn rates must be nonpositive")

    def at(self, freq: float) -> CalibrationSlice:
        """The calibration at actuation frequency freq, located once per map.
        Raises CalibrationRangeError, prefixed with the map's name, if a map
        does not cover freq."""
        maps = []
        for name in ("speed_map", "turn_map_left", "turn_map_right"):
            try:
                maps.append(getattr(self, name).at(freq))
            except CalibrationRangeError as e:
                raise CalibrationRangeError(f"{name}: {e}") from None
        return CalibrationSlice(*maps, self.turn_radius_left, self.turn_radius_right)

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


class CalibrationSlice(NamedTuple):
    """A PlantCalibration at one actuation frequency: each map's dc -> value
    slice (BilinearTable.at) plus the nominal turn radii."""

    speed_map: Callable[[float], float]          # dc -> mm/s
    turn_map_left: Callable[[float], float]      # dc -> deg/s, >= 0
    turn_map_right: Callable[[float], float]     # dc -> deg/s, <= 0
    turn_radius_left: float                      # m
    turn_radius_right: float                     # m


def rates(cal: CalibrationSlice, dc_l: float, dc_r: float) -> tuple[Mode, float, float]:
    """Drive mode and steady-state (v m/s, omega rad/s) of a duty-cycle pair,
    at the frequency cal was bound to (PlantCalibration.at).

    The mode is idle when both duty cycles are 0, else bimorph when they are
    equal, else unimorph when one is 0, else mixed. Bimorph: calibrated forward
    speed, zero yaw rate. Unimorph: calibrated turn rate with forward speed
    omega * nominal radius. Mixed: speed from the mean duty cycle, yaw rate
    scaled from the dominant channel's unimorph rate by the duty-cycle
    asymmetry.
    """
    if dc_l == 0.0 and dc_r == 0.0:
        return IDLE, 0.0, 0.0
    if dc_l == dc_r:
        return BIMORPH, cal.speed_map(dc_l) * 1e-3, 0.0
    if dc_r == 0.0:
        w = cal.turn_map_left(dc_l) * DEG
        return UNIMORPH_LEFT, abs(w) * cal.turn_radius_left, w
    if dc_l == 0.0:
        w = cal.turn_map_right(dc_r) * DEG
        return UNIMORPH_RIGHT, abs(w) * cal.turn_radius_right, w
    # mixed: linear blend by duty-cycle asymmetry, saturating at the
    # unimorph endpoints
    asym = (dc_l - dc_r) / (dc_l + dc_r)
    dc_dom = max(dc_l, dc_r)
    if asym > 0:
        w = asym * cal.turn_map_left(dc_dom) * DEG
    else:
        w = -asym * cal.turn_map_right(dc_dom) * DEG
    v = cal.speed_map(0.5 * (dc_l + dc_r)) * 1e-3
    return MIXED, v, w


def integrator(
    dt: float, n: int, response_time: float
) -> Callable[..., tuple[float, float, float, float, float]]:
    """The plant's motion over n sub-steps of dt:
    advance(r1, r2, psi, v, w, v_cmd, w_cmd) -> (r1, r2, psi, v, w), the pose
    and rates after n steps with constant commanded rates.

    Per step, rates relax first-order toward the commands with time constant
    response_time (exact discretization; none when it is 0); the pose then
    follows a constant-rate arc, which keeps constant-command trajectories
    exactly circular. psi is wrapped once per step, from the raw psi + w*dt,
    by wrap_angle's rule written inline, as a SwimmerState built from it would
    be (the wrap is not the identity on (-pi, pi]: wrap_angle(1e-20) == 0.0).
    dt is checked and the lag factor computed once, here.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    blend = 1.0 - math.exp(-dt / response_time) if response_time > 0 else None
    sin, cos, fmod, pi, two_pi = math.sin, math.cos, math.fmod, math.pi, 2.0 * math.pi
    steps = range(n)

    def advance(r1, r2, psi, v, w, v_cmd, w_cmd):
        for _ in steps:
            if blend is not None:
                v = v + (v_cmd - v) * blend
                w = w + (w_cmd - w) * blend
            else:
                v, w = v_cmd, w_cmd
            psi1 = psi + w * dt
            if abs(w) > 1e-12:
                k = v / w
                r1 = r1 + k * (sin(psi1) - sin(psi))
                r2 = r2 - k * (cos(psi1) - cos(psi))
            else:
                r1 = r1 + v * cos(psi) * dt
                r2 = r2 + v * sin(psi) * dt
            psi = fmod(psi1 + pi, two_pi)
            if psi <= 0.0:
                psi += two_pi
            psi -= pi
        return r1, r2, psi, v, w

    return advance


def step(
    state: SwimmerState,
    v_cmd: float,
    omega_cmd: float,
    dt: float,
    response_time: float = 0.0,
) -> SwimmerState:
    """Advance the pose by dt with commanded rates (one integrator step)."""
    r1, r2, psi, v, w = integrator(dt, 1, response_time)(
        state.r1, state.r2, state.psi, state.v, state.omega, v_cmd, omega_cmd)
    out = SwimmerState(r1=r1, r2=r2, v=v, omega=w)
    object.__setattr__(out, "psi", psi)  # already wrapped by the integrator
    return out


def observe(
    r1: float, r2: float, psi: float, noise: Sequence[float] | None = None
) -> tuple[float, float, float]:
    """Motion-capture style observation of (r1, r2, psi).

    noise is one (n1, n2, n3) triple of zero-mean position noise (m), as
    observation_noise yields them: n1 and n2 are added to the position, and
    the heading noise is n3 divided by the marker baseline MARKER_BASELINE_M
    (m). Noiseless passthrough when noise is None.
    """
    if noise is None:
        return r1, r2, psi
    n1, n2, n3 = noise
    return r1 + n1, r2 + n2, wrap_angle(psi + n3 / MARKER_BASELINE_M)


def observation_noise(
    rng: np.random.Generator, sigma: float, n: int
) -> Iterator[list[float] | None]:
    """Yield n noise triples for observe, each the three floats of one
    rng.normal(0, sigma, size=3) call, drawn NOISE_CHUNK_TICKS triples at a
    time (a block draw fills its array in the order single draws would); n
    Nones, drawing nothing, when sigma = 0.

    Closing the generator before its end leaves rng where one size=3 call per
    triple taken would have: the generator rewinds to the state before its
    current chunk and redraws the triples already taken.
    """
    if sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
    if sigma == 0:
        yield from repeat(None, n)
        return
    for start in range(0, n, NOISE_CHUNK_TICKS):
        size = min(NOISE_CHUNK_TICKS, n - start)
        state = rng.bit_generator.state
        taken = 0
        try:
            for taken, triple in enumerate(rng.normal(0.0, sigma, size=(size, 3)).tolist(), 1):
                yield triple
        finally:
            if taken < size:
                rng.bit_generator.state = state
                rng.normal(0.0, sigma, size=(taken, 3))
