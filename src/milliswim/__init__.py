"""Simulation and control toolkit for a single-tail undulatory milliswimmer."""

__version__ = "0.1.0"

from .actuator import (
    ExcitationCommand,
    Mode,
    average_power,
    default_excursion_table,
    mode_of,
)
from .control import (
    ControlConfig,
    ControllerState,
    PathSegment,
    ReferencePath,
    actuator_mapping,
    closed_loop_tick,
    heading_step,
    lateral_error,
    lpc_step,
    tick,
)
from .hydro import (
    FluidEnv,
    PlateMotion,
    balanced_head_amplitude,
    reactive_torque,
    simulate_cycle,
    tail_motion_from_excursion,
)
from .metrics import (
    SwimmerSpec,
    cost_of_transport,
    lateral_errors,
    reynolds,
    strouhal,
    swim_number,
    trajectory_stats,
)
from .plant import (
    PlantCalibration,
    SwimmerState,
    advance,
    observe,
    rates,
    step,
    wrap_angle,
)
from .planform import (
    Planform,
    RdfReport,
    chord_at,
    rdf_report,
    rdf_report_from_constants,
    resistive_drag_factor,
)
