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
import csv
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .actuator import (
    ExcitationCommand,
    average_power,
    default_excursion_table,
)
from .control import (
    ControlConfig,
    ControllerState,
    ReferencePath,
    closed_loop_tick,
)
from .errors import CalibrationRangeError, DomainError
from .hydro import FluidEnv, PlateMotion, simulate_cycle
from .metrics import (
    SwimmerSpec,
    cost_of_transport,
    format_table,
    metrics_summary,
    reynolds,
    strouhal,
    swim_number,
    trajectory_stats,
)
from .plant import PlantCalibration, SwimmerState, command_to_rates, measure, step
from .planform import (
    NEW_DESIGN_RDF_HEAD,
    NEW_DESIGN_RDF_TAIL,
    OLD_DESIGN_RDF_HEAD,
    OLD_DESIGN_RDF_TAIL,
    Planform,
    RdfReport,
    rdf_report,
    rdf_report_from_constants,
)

SWEEP_FREQS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
SWEEP_DCS = tuple(round(k / 100.0, 2) for k in range(1, 11))
TURN_FREQS = (1.0, 2.0, 3.0, 4.0, 5.0)
TURN_DCS = tuple(round(k / 100.0, 2) for k in range(5, 16))

PLANT_SUBSTEP_S = 1e-3  # zero-order-hold plant step between control ticks


def _fmt(x: float) -> str:
    return f"{x:.9g}"


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

    KINDS = (
        "excursion_sweep", "speed_sweep", "turn_sweep",
        "track_rectilinear", "track_left", "track_right", "constrained_cycle",
    )

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        """Load from a sectioned key-value (INI) file.

        Sections: [run] kind, duration_s, seed, out, repeats;
        [control] kp, ki, kp_psi, uv, umax, freq_hz, loop_hz;
        [plant] noise_sigma_m, response_time_s; [fluid] rho, c_d, nu;
        [cycle] freq_hz, tail_amp_radps, i_head_mm5, i_tail_mm5, n_steps.
        """
        ini = configparser.ConfigParser()
        if not ini.read(path):
            raise FileNotFoundError(path)
        cfg = ExperimentConfig()
        if ini.has_section("run"):
            r = ini["run"]
            cfg.kind = r.get("kind", cfg.kind)
            cfg.duration = r.getfloat("duration_s", cfg.duration)
            cfg.seed = r.getint("seed", cfg.seed)
            cfg.output_dir = Path(r.get("out", str(cfg.output_dir)))
            cfg.repeats = r.getint("repeats", cfg.repeats)
        if ini.has_section("control"):
            c = ini["control"]
            cc = cfg.control
            cfg.control = replace(
                cc,
                k_p=c.getfloat("kp", cc.k_p),
                k_i=c.getfloat("ki", cc.k_i),
                k_p_psi=c.getfloat("kp_psi", cc.k_p_psi),
                u_v=c.getfloat("uv", cc.u_v),
                u_max=c.getfloat("umax", cc.u_max),
                freq=c.getfloat("freq_hz", cc.freq),
                loop_rate=c.getfloat("loop_hz", cc.loop_rate),
            )
        if ini.has_section("plant"):
            p = ini["plant"]
            cfg.noise_sigma = p.getfloat("noise_sigma_m", cfg.noise_sigma)
            cfg.response_time = p.getfloat("response_time_s", cfg.response_time)
        if ini.has_section("fluid"):
            fl = ini["fluid"]
            cfg.fluid = FluidEnv(
                rho=fl.getfloat("rho", cfg.fluid.rho),
                c_d=fl.getfloat("c_d", cfg.fluid.c_d),
                nu=fl.getfloat("nu", cfg.fluid.nu),
            )
        if ini.has_section("cycle"):
            cy = ini["cycle"]
            cfg.cycle_freq = cy.getfloat("freq_hz", cfg.cycle_freq)
            cfg.cycle_tail_amp = cy.getfloat("tail_amp_radps", cfg.cycle_tail_amp)
            cfg.cycle_i_head = cy.getfloat("i_head_mm5", cfg.cycle_i_head)
            cfg.cycle_i_tail = cy.getfloat("i_tail_mm5", cfg.cycle_i_tail)
            cfg.cycle_n_steps = cy.getint("n_steps", cfg.cycle_n_steps)
        return cfg

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "duration_s": self.duration,
            "seed": self.seed,
            "repeats": self.repeats,
            "abort_error_m": self.abort_error_m,
            "control": {
                "kp": self.control.k_p, "ki": self.control.k_i,
                "kp_psi": self.control.k_p_psi, "uv": self.control.u_v,
                "umax": self.control.u_max, "freq_hz": self.control.freq,
                "loop_hz": self.control.loop_rate,
            },
            "plant": {
                "noise_sigma_m": self.noise_sigma,
                "response_time_s": self.response_time,
            },
            "fluid": {"rho": self.fluid.rho, "c_d": self.fluid.c_d, "nu": self.fluid.nu},
            "cycle": {
                "freq_hz": self.cycle_freq, "tail_amp_radps": self.cycle_tail_amp,
                "i_head_mm5": self.cycle_i_head, "i_tail_mm5": self.cycle_i_tail,
                "n_steps": self.cycle_n_steps,
            },
        }


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, files: list[str], summary: dict):
    """Write config snapshot and manifest; the manifest lands last (atomic-ish)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    snap = out_dir / "config.snapshot.json"
    snap.write_text(json.dumps(cfg.snapshot(), indent=2, sort_keys=True) + "\n")
    manifest = {
        "version": __version__,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "files": sorted(files + ["config.snapshot.json"]),
        "summary": summary,
    }
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    tmp.replace(out_dir / "manifest.json")


# ---------------------------------------------------------------- sweeps

def run_excursion_sweep(cfg: ExperimentConfig) -> Path:
    """Excursion sweep over the characterization grid; one row per (f, DC)."""
    table = default_excursion_table()
    cal = PlantCalibration.default()
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "excursion_sweep.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["freq_hz", "dc_pu", "app_mm", "esd_mm", "p_mw", "st", "provenance"])
        for fr in SWEEP_FREQS:
            for dc in SWEEP_DCS:
                app = table(fr, dc)
                i = int(np.argmin(np.abs(table.freqs - fr)))
                j = int(np.argmin(np.abs(table.dcs - dc)))
                esd = float(table.aux[i, j])
                p_mw = average_power(ExcitationCommand(fr, dc, dc)) * 1e3
                try:
                    v_mmps = cal.speed_map(fr, dc)
                    st = strouhal(fr, app, v_mmps) if v_mmps > 0 else float("nan")
                except CalibrationRangeError:
                    st = float("nan")
                w.writerow([
                    _fmt(fr), f"{dc:.2f}", _fmt(app), _fmt(esd), _fmt(p_mw),
                    "n/a" if math.isnan(st) else _fmt(st),
                    table.node_provenance(fr, dc),
                ])
    _write_manifest(out, cfg, [path.name], {"rows": len(SWEEP_FREQS) * len(SWEEP_DCS)})
    return path


def run_speed_sweep(cfg: ExperimentConfig) -> Path:
    cal = PlantCalibration.default()
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "speed_sweep.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["freq_hz", "dc_pu", "v_mmps", "provenance"])
        for fr in SWEEP_FREQS:
            for dc in SWEEP_DCS:
                w.writerow([
                    _fmt(fr), f"{dc:.2f}", _fmt(cal.speed_map(fr, dc)),
                    cal.speed_map.node_provenance(fr, dc),
                ])
    _write_manifest(out, cfg, [path.name], {"rows": len(SWEEP_FREQS) * len(SWEEP_DCS)})
    return path


def run_turn_sweep(cfg: ExperimentConfig) -> Path:
    cal = PlantCalibration.default()
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "turn_sweep.csv"
    n = 0
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["freq_hz", "dc_pu", "side", "rate_degps", "provenance"])
        for side, table in (("left", cal.turn_map_left), ("right", cal.turn_map_right)):
            for fr in TURN_FREQS:
                for dc in TURN_DCS:
                    w.writerow([
                        _fmt(fr), f"{dc:.2f}", side, _fmt(table(fr, dc)),
                        table.node_provenance(fr, dc),
                    ])
                    n += 1
    _write_manifest(out, cfg, [path.name], {"rows": n})
    return path


# ---------------------------------------------------------------- tracking

TRACK_PATHS = {
    "track_rectilinear": lambda: ReferencePath.rectilinear(length=1.0),
    "track_left": lambda: ReferencePath.left_turn(corner=0.05),
    "track_right": lambda: ReferencePath.right_turn(corner=0.05),
}


@dataclass
class TrackingResult:
    log_path: Path
    stats: dict
    failed: bool


def _run_one_tracking(cfg: ExperimentConfig, path_obj: ReferencePath, log_path: Path,
                      rng: np.random.Generator, cal: PlantCalibration) -> TrackingResult:
    cc = cfg.control
    dt_tick = 1.0 / cc.loop_rate
    substeps = max(1, round(dt_tick / PLANT_SUBSTEP_S))
    dt_sub = dt_tick / substeps
    n_ticks = int(round(cfg.duration * cc.loop_rate))

    state = SwimmerState()
    ctrl = ControllerState()
    failed = False
    t_log = np.empty(n_ticks)
    cols = {k: np.empty(n_ticks) for k in ("r1", "r2", "psi", "v", "omega", "uL", "uR")}

    for k in range(n_ticks):
        t = k * dt_tick
        r1_o, r2_o, psi_o = measure(state, cfg.noise_sigma, rng)
        cmd = closed_loop_tick(cc, path_obj, ctrl, r1_o, r2_o, psi_o, dt_tick)
        v_cmd, w_cmd = command_to_rates(cal, cmd)
        t_log[k] = t
        cols["r1"][k] = state.r1
        cols["r2"][k] = state.r2
        cols["psi"][k] = state.psi
        cols["v"][k] = state.v
        cols["omega"][k] = state.omega
        cols["uL"][k] = cmd.dc_left
        cols["uR"][k] = cmd.dc_right
        for _ in range(substeps):
            state = step(state, v_cmd, w_cmd, dt_sub, response_time=cfg.response_time)
        seg = path_obj.segments[ctrl.active_segment]
        r_lat = state.r1 if seg.lateral_axis == 1 else state.r2
        if abs(seg.target - r_lat) > cfg.abort_error_m:
            failed = True
            n_ticks = k + 1
            t_log = t_log[:n_ticks]
            cols = {name: c[:n_ticks] for name, c in cols.items()}
            break

    with open(log_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_s", "r1_m", "r2_m", "psi_rad", "v_mps", "omega_radps", "uL", "uR"])
        for k in range(n_ticks):
            w.writerow([_fmt(t_log[k])] + [
                _fmt(cols[name][k]) for name in ("r1", "r2", "psi", "v", "omega", "uL", "uR")
            ])

    stats: dict = {"failed": failed}
    if not failed:
        window = 0.8 * cfg.duration
        ts = trajectory_stats(
            t_log, cols["r1"], cols["r2"], cols["v"], cols["omega"], path_obj, window
        )
        stats.update(ts.as_dict())
        if not math.isnan(ts.mean_turn_rate_radps):
            stats["mean_turn_rate_degps"] = math.degrees(ts.mean_turn_rate_radps)
    return TrackingResult(log_path=log_path, stats=stats, failed=failed)


def run_tracking(cfg: ExperimentConfig) -> list[TrackingResult]:
    """Closed-loop maneuver runs (repeat count per cfg.repeats)."""
    if cfg.kind not in TRACK_PATHS:
        raise ValueError(f"{cfg.kind!r} is not a tracking experiment")
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    cal = PlantCalibration.default(
        noise_sigma=cfg.noise_sigma, response_time=cfg.response_time
    )
    rng = np.random.default_rng(cfg.seed)
    results = []
    for rep in range(cfg.repeats):
        path_obj = TRACK_PATHS[cfg.kind]()
        log_path = out / f"trajectory_{rep + 1}.csv"
        results.append(_run_one_tracking(cfg, path_obj, log_path, rng, cal))
    summary = {f"test_{i + 1}": r.stats for i, r in enumerate(results)}
    (out / "stats.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_manifest(
        out, cfg, [r.log_path.name for r in results] + ["stats.json"], summary
    )
    return results


def run_constrained_cycle(cfg: ExperimentConfig) -> Path:
    """Head-fixed-frame cycle simulation with prescribed sinusoidal tail motion."""
    motion = PlateMotion.sinusoid(cfg.cycle_tail_amp, cfg.cycle_freq)
    rdfs = rdf_report_from_constants(cfg.cycle_i_head, cfg.cycle_i_tail)
    res = simulate_cycle(
        cfg.fluid, None, None, motion, rdfs=rdfs, n_steps=cfg.cycle_n_steps
    )
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "cycle.csv"
    res.write_csv(path)
    summary = {
        "mean_tau_rh": res.mean_tau_rh,
        "mean_tau_rt": res.mean_tau_rt,
        "mean_sq_omega_h": res.mean_sq_omega_h,
        "mean_sq_omega_t": res.mean_sq_omega_t,
        "speed_sq_ratio": res.mean_sq_omega_h / res.mean_sq_omega_t,
        "periods_to_converge": res.periods_to_converge,
    }
    _write_manifest(out, cfg, [path.name], summary)
    return path


def run_experiment(cfg: ExperimentConfig):
    if cfg.kind == "excursion_sweep":
        return run_excursion_sweep(cfg)
    if cfg.kind == "speed_sweep":
        return run_speed_sweep(cfg)
    if cfg.kind == "turn_sweep":
        return run_turn_sweep(cfg)
    if cfg.kind == "constrained_cycle":
        return run_constrained_cycle(cfg)
    return run_tracking(cfg)


# ---------------------------------------------------------------- CLI

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="milliswim",
        description="Milliswimmer design, simulation, and control experiments.",
    )
    p.add_argument("--config", type=Path, help="INI experiment config file")
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
    sweep.add_argument("which", choices=("excursion", "speed", "turn"))

    track = sub.add_parser("track", help="closed-loop tracking maneuvers")
    track.add_argument("maneuver", choices=("line", "left", "right"))
    track.add_argument("--repeats", type=int, default=1)
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
    print(format_table({
        "i_head_mm5": report.i_head,
        "i_tail_mm5": report.i_tail,
        "ratio_head_over_tail": report.ratio_head_over_tail,
    }))
    return 0


def _cmd_metrics(args) -> int:
    spec = SwimmerSpec(mass=args.mass_mg * 1e-6, length=args.length_mm * 1e-3)
    v = args.v_mmps * 1e-3
    app = args.app_mm * 1e-3
    summary = metrics_summary(
        cot=cost_of_transport(args.p_mw * 1e-3, spec, v),
        st=strouhal(args.f, app, v),
        re=reynolds(v, spec.length, args.nu),
        sw=swim_number(args.f, app, spec.length, args.nu),
    )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_table(summary))
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

        cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out

        if args.command == "sweep":
            cfg.kind = f"{args.which}_sweep"
            out = run_experiment(cfg)
            print(out)
            return 0
        if args.command == "cycle":
            cfg.kind = "constrained_cycle"
            out = run_constrained_cycle(cfg)
            print(out)
            return 0
        if args.command == "track":
            cfg.kind = {
                "line": "track_rectilinear",
                "left": "track_left",
                "right": "track_right",
            }[args.maneuver]
            cfg.repeats = args.repeats
            if args.duration is not None:
                cfg.duration = args.duration
            if args.noise_sigma is not None:
                cfg.noise_sigma = args.noise_sigma
            results = run_tracking(cfg)
            for i, r in enumerate(results):
                print(f"test {i + 1}: {json.dumps(r.stats, sort_keys=True)}")
            return 2 if any(r.failed for r in results) else 0
    except (ValueError, DomainError, FileNotFoundError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failures (convergence, I/O mid-run, ...)
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
