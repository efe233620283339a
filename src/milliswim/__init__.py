"""Simulation and control toolkit for a single-tail undulatory milliswimmer."""

__version__ = "0.1.0"

from .actuator import (
    ExcitationCommand,
    ExcursionTable,
    Mode,
    average_power,
    classify_mode,
    default_excursion_table,
    excursion,
    waveform_sample,
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
)
from .hydro import (
    FluidEnv,
    PlateMotion,
    balanced_head_amplitude,
    drag_force_per_length,
    net_body_torque,
    reactive_torque,
    simulate_cycle,
    tail_motion_from_excursion,
)
from .metrics import (
    SwimmerSpec,
    cost_of_transport,
    reynolds,
    strouhal,
    swim_number,
    trajectory_stats,
)
from .plant import (
    PlantCalibration,
    SwimmerState,
    command_to_rates,
    measure,
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
