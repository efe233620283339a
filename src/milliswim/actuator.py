"""Dual-channel PWM excitation model for the bimorph tail actuator.

Both channels share the excitation frequency; the right channel's on-window is
shifted by half a period (antiphase). Average electrical power follows the
measured linear fit P(DC) = 720*DC mW for symmetric bimorph drive, split evenly
between the two supplies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from importlib import resources

from .tables import BilinearTable

POWER_FIT_W_PER_DC = 0.720     # symmetric-bimorph power slope, W per unit DC


class Mode(enum.Enum):
    BIMORPH = "bimorph"
    UNIMORPH_LEFT = "unimorph_left"
    UNIMORPH_RIGHT = "unimorph_right"
    MIXED = "mixed"
    IDLE = "idle"

    # Members are singletons compared by identity; the identity hash keeps a
    # dict keyed by Mode off Enum's Python-level __hash__.
    __hash__ = object.__hash__


# The members as module names, read by plant.rates every control tick: on
# Python 3.11 each Mode.X lookup runs EnumType's Python-level __getattr__ hook.
BIMORPH, UNIMORPH_LEFT, UNIMORPH_RIGHT, MIXED, IDLE = Mode


@dataclass(frozen=True)
class ExcitationCommand:
    """One PWM excitation: shared frequency, per-channel duty cycles."""

    freq: float                       # Hz
    dc_left: float                    # per-unit in [0, 1]
    dc_right: float                   # per-unit in [0, 1]

    def __post_init__(self):
        if not 0 < self.freq < math.inf:
            raise ValueError(f"freq must be finite and positive, got {self.freq}")
        for name, dc in (("dc_left", self.dc_left), ("dc_right", self.dc_right)):
            if not 0.0 <= dc <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {dc}")


def average_power(cmd: ExcitationCommand) -> float:
    """Average electrical power in W, linear in each channel's duty cycle.

    Per-channel convention: half the symmetric-bimorph fit, so bimorph drive
    at duty DC reproduces 720*DC mW and a single unimorph channel draws half.
    """
    return 0.5 * POWER_FIT_W_PER_DC * (cmd.dc_left + cmd.dc_right)


def default_excursion_table() -> BilinearTable:
    """(freq, dc) -> peak-to-peak tail excursion A_pp in mm, with per-point ESD
    as the auxiliary grid, from the calibration shipped with the package."""
    with resources.as_file(resources.files("milliswim.data") / "excursion.csv") as p:
        table = BilinearTable.from_csv(p, "app_mm", "esd_mm")["both"]
    if min(map(min, table.values)) < 0:
        raise ValueError("excursions must be nonnegative")
    return table
