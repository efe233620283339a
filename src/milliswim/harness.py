"""Experiment runner and CLI.

Reproduces the open-loop characterization sweeps (excursion, speed, turn) and
the closed-loop tracking maneuvers (rectilinear, left turn, right turn), plus
the constrained head-fixed cycle simulation. Every run writes into its own
output directory: manifest.json, config.snapshot.json, and the data CSVs.

All randomness flows from a single generator seeded per run, and CSV floats
are formatted deterministically, so (config, seed) fully determines every
data byte.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import platform
import sys
from array import array
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__, csvlog
from .actuator import (
    ExcitationCommand,
    Mode,
    average_power,
    default_excursion_table,
)
from .control import ControlConfig, ControllerState, ReferencePath, controller
from .csvlog import LOG_BLOCK, LogWriter
from .errors import CalibrationRangeError
from .hydro import MIN_DEFAULT_INERTIA_STEPS, FluidEnv, PlateMotion, simulate_cycle
from .metrics import (
    SwimmerSpec,
    cost_of_transport,
    format_table,
    reynolds,
    strouhal,
    swim_number,
    trajectory_stats,
)
from .plant import CalibrationSlice, PlantCalibration, integrator, observation_noise, observe, rates
from .planform import (
    NEW_DESIGN_RDF_HEAD,
    NEW_DESIGN_RDF_TAIL,
    OLD_DESIGN_RDF_HEAD,
    OLD_DESIGN_RDF_TAIL,
    Planform,
    rdf_report,
    rdf_report_from_constants,
)

# The speed and turn sweeps print their grids' nodes up to these duty cycles;
# the excursion sweep prints every node of its grid.
SPEED_SWEEP_MAX_DC = 0.10
TURN_SWEEP_MAX_DC = 0.15

PLANT_SUBSTEP_S = 1e-3  # zero-order-hold plant step between control ticks
STATS_WINDOW_FRAC = 0.8  # tracking stats cover this trailing share of the run


# The experiment config schema: INI section -> key -> (field path in
# ExperimentConfig, type). from_file reads INI files and config snapshots
# through it and snapshot writes one, so each key is named only here.
CONFIG_SCHEMA = {
    "run": {
        "kind": ("kind", str), "duration_s": ("duration", float), "seed": ("seed", int),
        "out": ("output_dir", Path), "repeats": ("repeats", int),
        "abort_error_m": ("abort_error_m", float),
    },
    "control": {
        "kp": ("control.k_p", float), "ki": ("control.k_i", float),
        "kp_psi": ("control.k_p_psi", float), "uv": ("control.u_v", float),
        "umax": ("control.u_max", float), "freq_hz": ("control.freq", float),
        "loop_hz": ("control.loop_rate", float),
    },
    "plant": {"noise_sigma_m": ("noise_sigma", float), "response_time_s": ("response_time", float)},
    "fluid": {"rho": ("fluid.rho", float), "c_d": ("fluid.c_d", float)},
    "cycle": {
        "freq_hz": ("cycle_freq", float), "tail_amp_radps": ("cycle_tail_amp", float),
        "i_head_mm5": ("cycle_i_head", float), "i_tail_mm5": ("cycle_i_tail", float),
        "n_steps": ("cycle_n_steps", int),
    },
}


@dataclass
class ExperimentConfig:
    kind: str = "track_rectilinear"
    duration: float = 60.0
    seed: int = 0
    output_dir: Path = Path("run")
    repeats: int = 1
    abort_error_m: float = 0.3
    control: ControlConfig = field(default_factory=ControlConfig)
    fluid: FluidEnv = field(default_factory=FluidEnv)
    noise_sigma: float = 0.0
    response_time: float = 0.5
    # constrained-cycle parameters
    cycle_freq: float = 2.0
    cycle_tail_amp: float = 1.0   # rad/s
    cycle_i_head: float = NEW_DESIGN_RDF_HEAD
    cycle_i_tail: float = NEW_DESIGN_RDF_TAIL
    cycle_n_steps: int = 1000

    def __post_init__(self):
        if self.kind not in RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name in ("repeats", "duration", "abort_error_m", "cycle_freq", "cycle_i_head",
                     "cycle_i_tail"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("seed", "noise_sigma", "response_time"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not math.isfinite(self.cycle_tail_amp):
            raise ValueError("cycle_tail_amp must be finite")
        if self.cycle_n_steps < MIN_DEFAULT_INERTIA_STEPS:
            raise ValueError(f"cycle_n_steps must be at least {MIN_DEFAULT_INERTIA_STEPS}, "
                             "where the default yaw inertia settles")
        if self.kind in TRACK_PATHS:
            if not math.isfinite(self.duration * self.control.loop_rate):
                raise ValueError(f"duration {self.duration:g} s at {self.control.loop_rate:g} Hz"
                                 " is not a finite number of control ticks")
            n_ticks, dt_tick = _tick_grid(self)
            # trajectory_stats compares the log's span, n_ticks - 1 ticks, with this
            # window; a run shorter than one tick fails it too
            if (n_ticks - 1) * dt_tick < STATS_WINDOW_FRAC * self.duration:
                raise ValueError(
                    f"duration {self.duration:g} s is too short: its {n_ticks} control ticks "
                    f"span less than the {STATS_WINDOW_FRAC * self.duration:g} s stats window"
                )

    @staticmethod
    def from_file(path, **overrides) -> "ExperimentConfig":
        """Load an INI file or a run's config.snapshot.json (a .json file, whose
        numbers are read as text, so both parse alike); `overrides` (field ->
        value) replace the file's values, so the config is built and checked
        once. Unknown keys and mistyped values raise ValueError."""
        path = Path(path)
        if path.suffix == ".json":
            snap = json.loads(path.read_text(), parse_int=str, parse_float=str, parse_constant=str)
            if not isinstance(snap, dict):
                raise ValueError(f"{path}: a config snapshot must be a JSON object")
            # [run] keys sit at the top level (where a "run" object is an unknown
            # key), every other section is an object
            sections = {k: v for k, v in snap.items() if isinstance(v, dict)}
            sections["run"] = {
                k: v for k, v in snap.items() if k == "run" or not isinstance(v, dict)}
        else:
            ini = configparser.ConfigParser()
            with open(path) as f:
                ini.read_file(f)
            sections = {k: dict(v) for k, v in ini.items() if k != ini.default_section or len(v)}
        fields, nested = {}, {}
        for section, body in sections.items():
            if section not in CONFIG_SCHEMA:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in body.items():
                if key not in CONFIG_SCHEMA[section]:
                    raise ValueError(f"unknown config key [{section}] {key}")
                field_path, typ = CONFIG_SCHEMA[section][key]
                try:  # int("1.5") fails: a value is never truncated
                    if not isinstance(raw, str):  # JSON true, null or a list
                        raise ValueError
                    value = typ(raw)
                except ValueError:
                    raise ValueError(
                        f"[{section}] {key} = {raw!r}: expected {typ.__name__}") from None
                parent, _, name = field_path.rpartition(".")
                (nested.setdefault(parent, {}) if parent else fields)[name] = value
        for parent, values in nested.items():  # ControlConfig(**values), FluidEnv(**values)
            fields[parent] = ExperimentConfig.__dataclass_fields__[parent].default_factory(**values)
        return ExperimentConfig(**{**fields, **overrides})

    def snapshot(self) -> dict:
        """The config by CONFIG_SCHEMA key, less the output directory: [run] keys
        at the top level, one object per other section."""
        snap = {section: {key: attrgetter(field_path)(self)
                          for key, (field_path, _) in keys.items() if field_path != "output_dir"}
                for section, keys in CONFIG_SCHEMA.items()}
        return {**snap.pop("run"), **snap}


@functools.cache
def _environment() -> dict:
    """The versions and platform a run's output bytes depend on (libm rounding,
    Generator streams), for manifest.json."""
    return dict(python=platform.python_version(), numpy=np.__version__,
                machine=platform.machine())


class _RunDir:
    """A run's output directory and its one writer, made after the runner's config
    checks and before any compute. In a reused directory, the old manifest goes
    first, with the files it lists that are bare names of regular files. Every
    output path comes from path, and the manifest that close writes lists those."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg, self.dir, self.files = cfg, cfg.output_dir, []
        try:
            try:
                self.dir.mkdir(parents=True)
            except FileExistsError:
                if not self.dir.is_dir():
                    raise
                self._remove_previous()
        except OSError as e:
            raise ValueError(f"output directory: {e}") from None

    def _remove_previous(self) -> None:
        manifest = self.dir / "manifest.json"
        try:
            files = json.loads(manifest.read_text())["files"]
        except (OSError, ValueError, TypeError, KeyError):  # none, or not a manifest
            return
        # the old manifest is outside input: only a bare name of a regular file,
        # not a path, a symlink or a directory, is unlinked
        for name in files if isinstance(files, list) else ():
            path = self.dir / str(name)
            if name != ".." and path.name == name and path.is_file() and not path.is_symlink():
                path.unlink()
        manifest.unlink()

    def path(self, name: str) -> Path:
        self.files.append(name)
        return self.dir / name

    def write_csv(self, name: str, header: str, row_format: str, rows) -> Path:
        path = self.path(name)
        csvlog.write_csv(path, header, row_format, rows)
        return path

    def close(self, summary: dict, **extra) -> None:
        """Write the config snapshot, then the manifest (tmp file, then replace)."""
        self.path("config.snapshot.json").write_text(
            json.dumps(self.cfg.snapshot(), indent=2, sort_keys=True) + "\n")
        manifest = dict(version=__version__, kind=self.cfg.kind, seed=self.cfg.seed,
                        files=sorted(self.files), summary=summary, **_environment(), **extra)
        tmp = self.dir / "manifest.json.tmp"
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        tmp.replace(self.dir / "manifest.json")


# The shipped calibration, read once per process and shared by every run; its
# grids are read-only.
@functools.cache
def _calibration():
    return PlantCalibration.default(), default_excursion_table()


# ---------------------------------------------------------------- sweeps

def _nodes(table, max_dc: float = math.inf) -> list[tuple[int, float, int, float]]:
    """(i, freqs[i], j, dcs[j]) of each node of table with dc <= max_dc, row by row."""
    return [(i, fr, j, dc) for i, fr in enumerate(table.freqs)
            for j, dc in enumerate(table.dcs) if dc <= max_dc]


def run_excursion_sweep(cfg: ExperimentConfig) -> Path:
    """Excursion sweep over the excursion table's nodes; one row per (f, DC)."""
    run = _RunDir(cfg)
    cal, table = _calibration()
    rows = []
    for i, fr, j, dc in _nodes(table):
        app = table.values[i][j]
        p_mw = average_power(ExcitationCommand(fr, dc, dc)) * 1e3
        st = strouhal(fr, app, cal.speed_map(fr, dc))
        rows.append((fr, dc, app, table.aux[i][j], p_mw, st, table.provenance[i][j]))
    header = "freq_hz,dc_pu,app_mm,esd_mm,p_mw,st,provenance"
    path = run.write_csv("excursion_sweep.csv", header, "%.9g,%.2f,%.9g,%.9g,%.9g,%.9g,%s", rows)
    run.close({"rows": len(rows)})
    return path


def run_speed_sweep(cfg: ExperimentConfig) -> Path:
    run = _RunDir(cfg)
    speed = _calibration()[0].speed_map
    rows = [(fr, dc, speed.values[i][j], speed.provenance[i][j])
            for i, fr, j, dc in _nodes(speed, SPEED_SWEEP_MAX_DC)]
    path = run.write_csv("speed_sweep.csv", "freq_hz,dc_pu,v_mmps,provenance",
                         "%.9g,%.2f,%.9g,%s", rows)
    run.close({"rows": len(rows)})
    return path


def run_turn_sweep(cfg: ExperimentConfig) -> Path:
    run = _RunDir(cfg)
    cal = _calibration()[0]
    rows = [(fr, dc, side, table.values[i][j], table.provenance[i][j])
            for side, table in (("left", cal.turn_map_left), ("right", cal.turn_map_right))
            for i, fr, j, dc in _nodes(table, TURN_SWEEP_MAX_DC)]
    path = run.write_csv("turn_sweep.csv", "freq_hz,dc_pu,side,rate_degps,provenance",
                         "%.9g,%.2f,%s,%.9g,%s", rows)
    run.close({"rows": len(rows)})
    return path


# ---------------------------------------------------------------- tracking

TRACK_PATHS = {
    "track_rectilinear": ReferencePath.rectilinear(),
    "track_left": ReferencePath.left_turn(corner=0.05),
    "track_right": ReferencePath.right_turn(corner=0.05),
}


@dataclass
class TrackingResult:
    log_path: Path
    stats: dict
    failed: bool
    counters: dict


def _tick_grid(cfg: ExperimentConfig) -> tuple[int, float]:
    """(number of control ticks, tick length in s) of a tracking run."""
    rate = cfg.control.loop_rate
    return int(round(cfg.duration * rate)), 1.0 / rate


def _run_one_tracking(cfg: ExperimentConfig, path_obj: ReferencePath, log_path: Path,
                      rng: np.random.Generator, cal: CalibrationSlice) -> TrackingResult:
    """One closed-loop run on plain floats: observe -> control -> rates -> log
    -> advance, then the divergence check, per control tick. The controller and
    the plant integrator are bound to the run's settings once, before the first
    tick."""
    cc = cfg.control
    n_ticks, dt_tick = _tick_grid(cfg)
    substeps = max(1, round(dt_tick / PLANT_SUBSTEP_S))
    abort_m, u_max = cfg.abort_error_m, cc.u_max
    control = controller(cc, path_obj, dt_tick)
    advance = integrator(dt_tick / substeps, substeps, cfg.response_time)
    segments = path_obj.segments

    r1 = r2 = psi = v = w = 0.0
    ctrl = ControllerState()
    log = [array("d") for _ in range(8)]
    log_t, log_r1, log_r2, log_psi, log_v, log_w, log_ul, log_ur = (c.append for c in log)
    modes = dict.fromkeys(Mode, 0)
    sat_l = sat_r = 0
    switch_times = []
    seg_idx, seg = 0, segments[0]
    peak_err = 0.0
    failed = False
    noises = observation_noise(rng, cfg.noise_sigma, n_ticks)
    block_end = LOG_BLOCK - 1  # the tick that fills a block of the log

    # a child interpreter formats each full block of the log while the ticks go on
    with LogWriter(log_path, "t_s,r1_m,r2_m,psi_rad,v_mps,omega_radps,uL,uR",
                   ",".join(["%.9g"] * 8), log) as writer:
        for k, noise in enumerate(noises):
            t = k * dt_tick
            r1_o, r2_o, psi_o = observe(r1, r2, psi, noise)
            u_l, u_r = control(ctrl, r1_o, r2_o, psi_o)
            mode, v_cmd, w_cmd = rates(cal, u_l, u_r)
            log_t(t)
            log_r1(r1)
            log_r2(r2)
            log_psi(psi)
            log_v(v)
            log_w(w)
            log_ul(u_l)
            log_ur(u_r)
            if k == block_end:
                writer.send()
                block_end += LOG_BLOCK
            r1, r2, psi, v, w = advance(r1, r2, psi, v, w, v_cmd, w_cmd)
            modes[mode] += 1
            if u_l >= u_max:
                sat_l += 1
            if u_r >= u_max:
                sat_r += 1
            if ctrl.active_segment != seg_idx:
                seg_idx = ctrl.active_segment
                seg = segments[seg_idx]
                switch_times.append(t)
            err = abs(seg.target - (r1 if seg.lateral_axis == 1 else r2))
            if err > peak_err:
                peak_err = err
            if err > abort_m:
                failed = True
                break
    noises.close()  # after an abort, leaves rng where per-tick draws would

    ticks = len(log[0])
    counters = {
        "ticks": ticks,
        "substeps": ticks * substeps,
        "saturated_ticks": {"left": sat_l, "right": sat_r},
        "modes": {m.value: n for m, n in modes.items()},
        "integrator_clamps": ctrl.integrator_clamps,
        "segment_switch_times_s": switch_times,
        "abort_margin_m": abort_m - peak_err,
    }
    stats: dict = {"failed": failed}
    if not failed:
        t_log, r1_log, r2_log, _, v_log, w_log, _, _ = (
            np.frombuffer(c, dtype=float) for c in log
        )
        stats.update(trajectory_stats(
            t_log, r1_log, r2_log, v_log, w_log, path_obj, STATS_WINDOW_FRAC * cfg.duration
        ))
    return TrackingResult(log_path=log_path, stats=stats, failed=failed, counters=counters)


def check_reachable_lookups(cc: ControlConfig, cal: PlantCalibration) -> CalibrationSlice:
    """Raise CalibrationRangeError unless every lookup the controller can make
    at cc.freq lies inside the calibration; return cal bound at cc.freq. With
    duty cycles u_v +- u_psi clamped to [0, u_max] and 0 < u_v <= u_max, rates
    reads the speed grid at the pair's mean, in [min(u_v, u_max/2), u_v], and a
    turn grid at the dominant channel, in [u_v, u_max]; both ends of each range
    are looked up."""
    cal_f = cal.at(cc.freq)
    for name, lo, hi in (("speed_map", min(cc.u_v, cc.u_max / 2), cc.u_v),
                         ("turn_map_left", cc.u_v, cc.u_max), ("turn_map_right", cc.u_v, cc.u_max)):
        try:
            for dc in (lo, hi):
                getattr(cal_f, name)(dc)
        except CalibrationRangeError as e:
            raise CalibrationRangeError(f"{name}: {e}") from None
    return cal_f


def run_tracking(cfg: ExperimentConfig) -> list[TrackingResult]:
    """Closed-loop maneuver runs (repeat count per cfg.repeats).

    The repeats share one generator seeded by cfg.seed, each drawing three
    normals per tick it runs when noise_sigma > 0.
    """
    if cfg.kind not in TRACK_PATHS:
        raise ValueError(f"{cfg.kind!r} is not a tracking experiment")
    cal = _calibration()[0]
    cal_f = check_reachable_lookups(cfg.control, cal)
    run = _RunDir(cfg)
    rng = np.random.default_rng(cfg.seed)
    path_obj = TRACK_PATHS[cfg.kind]
    results = [_run_one_tracking(cfg, path_obj, run.path(f"trajectory_{rep + 1}.csv"), rng, cal_f)
               for rep in range(cfg.repeats)]
    summary = {f"test_{i + 1}": r.stats for i, r in enumerate(results)}
    run.path("stats.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    run.close(summary, counters={f"test_{i + 1}": r.counters for i, r in enumerate(results)})
    return results


def run_constrained_cycle(cfg: ExperimentConfig) -> Path:
    """Head-fixed-frame cycle simulation with prescribed sinusoidal tail motion."""
    run = _RunDir(cfg)
    motion = PlateMotion.sinusoid(cfg.cycle_tail_amp, cfg.cycle_freq)
    rdfs = rdf_report_from_constants(cfg.cycle_i_head, cfg.cycle_i_tail)
    res = simulate_cycle(
        cfg.fluid, None, None, motion, rdfs=rdfs, n_steps=cfg.cycle_n_steps
    )
    cols = (res.t, res.omega_h, res.omega_t, res.tau_rh, res.tau_rt, res.tau_b)
    path = run.write_csv("cycle.csv", "t_s,omega_h,omega_t,tau_rh,tau_rt,tau_b",
                         ",".join(["%.10g"] * 6), zip(*(c.tolist() for c in cols)))
    summary = {
        "mean_tau_rh": res.mean_tau_rh,
        "mean_tau_rt": res.mean_tau_rt,
        "mean_sq_omega_h": res.mean_sq_omega_h,
        "mean_sq_omega_t": res.mean_sq_omega_t,
        "speed_sq_ratio": res.mean_sq_omega_h / res.mean_sq_omega_t,
        "periods_to_converge": res.periods_to_converge,
    }
    run.close(summary)
    return path


# Every experiment kind: its runner and the CLI (command, argument) that
# selects it. The CLI and ExperimentConfig read this.
RUNNERS = {
    "excursion_sweep": (run_excursion_sweep, "sweep", "excursion"),
    "speed_sweep": (run_speed_sweep, "sweep", "speed"),
    "turn_sweep": (run_turn_sweep, "sweep", "turn"),
    "track_rectilinear": (run_tracking, "track", "line"),
    "track_left": (run_tracking, "track", "left"),
    "track_right": (run_tracking, "track", "right"),
    "constrained_cycle": (run_constrained_cycle, "cycle", None),
}
CLI_KINDS = {(command, arg): kind for kind, (_, command, arg) in RUNNERS.items()}


# ---------------------------------------------------------------- CLI

def _cli_args(command: str) -> list[str]:
    return [arg for cmd, arg in CLI_KINDS if cmd == command]


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="milliswim",
        description="Milliswimmer design, simulation, and control experiments.",
    )
    p.add_argument("--config", type=Path, help="INI config, or a run's config.snapshot.json")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--out", type=Path, help="override the output directory")
    sub = p.add_subparsers(dest="command", required=True)

    rdf = sub.add_parser("rdf", help="planform drag-factor report")
    rdf.add_argument("--head", type=Path, help="head planform JSON config")
    rdf.add_argument("--tail", type=Path, help="tail planform JSON config")
    rdf.add_argument(
        "--design", choices=("new", "old"),
        help="use the stored design constants instead of geometry",
    )

    sweep = sub.add_parser("sweep", help="open-loop characterization sweeps")
    sweep.add_argument("which", choices=_cli_args("sweep"))

    track = sub.add_parser("track", help="closed-loop tracking maneuvers")
    track.add_argument("maneuver", choices=_cli_args("track"))
    track.add_argument("--repeats", type=int, help="number of tests (default: the config's)")
    track.add_argument("--duration", type=float, help="run duration in seconds")
    track.add_argument("--noise-sigma", type=float, help="measurement noise std, m")

    sub.add_parser("cycle", help="constrained head-fixed cycle simulation")

    met = sub.add_parser("metrics", help="efficiency metrics from given values")
    met.add_argument("--f", type=float, required=True, help="tail frequency, Hz")
    met.add_argument("--app-mm", type=float, required=True)
    met.add_argument("--v-mmps", type=float, required=True)
    met.add_argument("--p-mw", type=float, required=True)
    met.add_argument("--mass-mg", type=float, default=59.0)
    met.add_argument("--length-mm", type=float, default=36.0)
    met.add_argument("--nu", type=float, default=1e-6)
    met.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    return p


def _cmd_rdf(args) -> int:
    if args.design and (args.head or args.tail):
        print("rdf: --design takes no --head or --tail", file=sys.stderr)
        return 1
    if args.design:
        if args.design == "new":
            report = rdf_report_from_constants(NEW_DESIGN_RDF_HEAD, NEW_DESIGN_RDF_TAIL)
        else:
            report = rdf_report_from_constants(OLD_DESIGN_RDF_HEAD, OLD_DESIGN_RDF_TAIL)
    elif args.head and args.tail:
        report = rdf_report(Planform.from_file(args.head), Planform.from_file(args.tail))
    else:
        print("rdf: provide --design or both --head and --tail", file=sys.stderr)
        return 1
    print(format_table(dict(
        i_head_mm5=report.i_head, i_tail_mm5=report.i_tail,
        ratio_head_over_tail=report.ratio_head_over_tail,
    )))
    return 0


def _cmd_metrics(args) -> int:
    for name in ("f", "app_mm", "v_mmps", "p_mw", "mass_mg", "length_mm", "nu"):
        x, rule = getattr(args, name), "nonnegative" if name == "p_mw" else "positive"
        if not (0 <= x < math.inf and (x > 0 or name == "p_mw")):
            raise ValueError(f"--{name.replace('_', '-')} must be finite and {rule}, got {x:g}")
    spec = SwimmerSpec(mass=args.mass_mg * 1e-6, length=args.length_mm * 1e-3)
    v = args.v_mmps * 1e-3
    app = args.app_mm * 1e-3
    summary = {
        "cot": cost_of_transport(args.p_mw * 1e-3, spec, v),
        "st": strouhal(args.f, app, v),
        "re": reynolds(v, spec.length, args.nu),
        "sw": swim_number(args.f, app, spec.length, args.nu),
    }
    print(json.dumps(summary, indent=2, sort_keys=True) if args.json else format_table(summary))
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0

    try:
        if args.command == "rdf":
            return _cmd_rdf(args)
        if args.command == "metrics":
            return _cmd_metrics(args)

        given = dict(seed=args.seed, output_dir=args.out)
        if args.command == "track":
            given.update(
                repeats=args.repeats, duration=args.duration, noise_sigma=args.noise_sigma
            )
        given = {k: v for k, v in given.items() if v is not None}
        given.update(
            kind=CLI_KINDS[args.command, getattr(args, "which", getattr(args, "maneuver", None))])
        if args.config:
            try:
                cfg = ExperimentConfig.from_file(args.config, **given)
            except OSError as e:  # the OS cannot open or read the config
                print(f"error: {e}", file=sys.stderr)
                return 1
        else:
            cfg = ExperimentConfig(**given)
        out = RUNNERS[cfg.kind][0](cfg)
        if args.command != "track":
            print(out)
            return 0
        for i, r in enumerate(out):
            print(f"test {i + 1}: {json.dumps(r.stats, sort_keys=True)}")
        return 2 if any(r.failed for r in out) else 0
    except (ValueError, FileNotFoundError, IsADirectoryError, configparser.Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failures (convergence, I/O mid-run, ...)
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
