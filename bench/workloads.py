"""The benchmark's three workloads: inputs from a seed, one timed batch, checks.

Each workload is a closed loop with a single caller: the next operation
starts when the previous one returns. Operations go through milliswim's
public functions, looked up on their modules at call time so that the tracer
in tracer.py can wrap them, and are timed one by one by a Clock, which also
samples the host-speed reference between chunks of them. Output checks run
after the timed part of a batch.

- track: the three paper maneuvers (line, left, right), 60 s each, once
  noiseless and once with seeded measurement noise. Exercises control, plant,
  tables, actuator, metrics and the harness log writer; planform and hydro
  never run.
- design: drag factors of seeded rectangle, parabola and one tabulated
  planform, reactive torque over an omega sweep, and simulate_cycle on a
  seeded frequency x amplitude grid. Only planform and hydro do real work.
- characterize: repeated in-process CLI runs (three sweeps, cycle, rdf for
  both designs, metrics), each into a fresh directory. Per-run set-up
  (calibration reloads, table construction, manifests) dominates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from milliswim import actuator, harness, hydro, planform, plant


# Timed work between two samples of the host-speed reference, seconds.
CHUNK_S = 0.25


class Clock:
    """Times a batch's operations and scales them to a nominal host speed.

    The reference is a callable returning reference-task times, in seconds.
    The clock samples it before the first operation, after every CHUNK_S of
    timed work and at close(). Each operation's time is then multiplied by
    ``nominal_s`` over the median reference time on either side of its chunk,
    so a slow phase of a shared host slows the reference and the operations
    alike and cancels.
    """

    def __init__(self, reference: Callable[[], list[float]], nominal_s: float):
        self._reference, self._nominal = reference, nominal_s
        self._gaps = [reference()]
        self._raw, self._chunk = [], []
        self._in_chunk = 0.0
        self._scale: list[float] = []

    def call(self, fn, *args, **kwargs):
        """Call fn; return (result or None on error, handle of its time)."""
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # an operation failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = None
        dt = time.perf_counter() - t0
        self._raw.append(dt)
        self._chunk.append(len(self._gaps) - 1)
        self._in_chunk += dt
        if self._in_chunk >= CHUNK_S:
            self._gaps.append(self._reference())
            self._in_chunk = 0.0
        return out, len(self._raw) - 1

    def close(self) -> None:
        """End the batch; times are read after this."""
        if self._in_chunk > 0.0:
            self._gaps.append(self._reference())
        chunks = [self._nominal / statistics.median(a + b)
                  for a, b in zip(self._gaps, self._gaps[1:])]
        self._scale = [chunks[c] for c in self._chunk]

    def seconds(self, handle: int) -> float:
        return self._scale[handle] * self._raw[handle]

    def batch(self, **kwargs) -> "Batch":
        """A Batch holding this clock's totals."""
        return Batch(wall_s=sum(map(self.seconds, range(len(self._raw)))),
                     raw_wall_s=sum(self._raw),
                     host_scale=statistics.median(self._scale), **kwargs)


@dataclass
class Batch:
    """Timings and check outcomes of one batch of a workload."""

    wall_s: float                      # scaled time of the operations, summed
    raw_wall_s: float                  # the same, as measured
    host_scale: float                  # median scale applied to its operations
    rate: float                        # primary operations per scaled second
    op_samples: list[float]            # scaled seconds per secondary operation
    named: dict[str, float] = field(default_factory=dict)
    rel_errors: dict[str, float] = field(default_factory=dict)  # checked results, unscaled
    ops: int = 0
    ops_failed: int = 0
    checks: list[tuple[str, bool]] = field(default_factory=list)
    bytes_written: int = 0
    files_written: int = 0


def _rel_err(got, exact) -> float:
    return abs(got - exact) / abs(exact)


def _load_calibration():
    """The three calibration CSVs every workload's operations depend on."""
    return plant.PlantCalibration.default(), actuator.default_excursion_table()


def _tree_size(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


# ------------------------------------------------------------------ track

TRACK_KINDS = ("track_rectilinear", "track_left", "track_right")
TRACK_DURATION_S = 60.0
TRACK_NOISE_SIGMA_M = 1e-4

# sha256 of the noiseless trajectory CSVs run_tracking writes (seed-independent).
TRACK_LOG_SHA256 = {
    "track_rectilinear": "8ff0c46eac9aa39cdc685b09424b1fab923517c9e770fcca6d21a6445a2fe7a8",
    "track_left": "b1c2addc7cce4475e62b5fd82a135c6157b6acc48a127438d9e5b34ac6634d09",
    "track_right": "fdf9d8a193375f5e784416ad18ffe6b6b610b8bd8c21bd73440a010d1c37ad23",
}


def _within(x, target, rel):
    return x is not None and abs(x - target) <= rel * target


def _criterion6_bands(kind: str, s: dict) -> bool:
    """The acceptance bands of the paper maneuvers (tests/test_acceptance.py)."""
    if kind == "track_rectilinear":
        return s["rms_error_m"] <= 2.6e-3 and s["mean_speed_mps"] >= 9.1e-3
    if kind == "track_left":
        return (_within(s["mean_turn_rate_degps"], 10.8, 0.15)
                and _within(s["turn_radius_m"], 24e-3, 0.15))
    return (_within(abs(s["mean_turn_rate_degps"]), 13.1, 0.15)
            and _within(s["turn_radius_m"], 10e-3, 0.15))


def track_prepare(seed: int):
    _load_calibration()
    noise_seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=len(TRACK_KINDS))
    return [(kind, 0.0, 0) for kind in TRACK_KINDS] + [
        (kind, TRACK_NOISE_SIGMA_M, int(s)) for kind, s in zip(TRACK_KINDS, noise_seeds)
    ]


def track_batch(maneuvers, workdir: Path, inject: str | None, clock: Clock) -> Batch:
    results, handles = [], []
    for i, (kind, sigma, seed) in enumerate(maneuvers):
        cfg = harness.ExperimentConfig(
            kind=kind, duration=TRACK_DURATION_S, seed=seed, noise_sigma=sigma,
            output_dir=workdir / f"m{i}",
        )
        res, h = clock.call(harness.run_tracking, cfg)
        results.append(res[0] if res else None)
        handles.append(h)
    clock.close()

    b = clock.batch(rate=0.0, op_samples=[clock.seconds(h) for h in handles],
                    ops=len(maneuvers))
    ticks = 0
    for (kind, sigma, _), res in zip(maneuvers, results):
        if res is None:
            b.ops_failed += 1
            continue
        b.checks.append((f"{kind} no abort", not res.failed))
        data = res.log_path.read_bytes()
        ticks += data.count(b"\n") - 1
        if sigma == 0.0:
            if inject == "flip-log-byte" and kind == TRACK_KINDS[0]:
                k = len(data) // 2
                data = data[:k] + bytes([data[k] ^ 1]) + data[k + 1:]
            digest = hashlib.sha256(data).hexdigest()
            b.checks.append((f"{kind} log sha256", digest == TRACK_LOG_SHA256[kind]))
            b.checks.append((f"{kind} criterion-6 bands",
                             not res.failed and _criterion6_bands(kind, res.stats)))
    b.rate = ticks / b.wall_s
    b.bytes_written, b.files_written = _tree_size(workdir)
    return b


# ----------------------------------------------------------------- design

N_SMOOTH = 150         # rectangles, and as many parabolas
N_TAB_KNOTS = 16
# The tabulated span is fixed: the midpoint fallback sizes its arrays from the
# split of the span at x = 0, so a seeded span would make memory seed-dependent.
TAB_SPAN_MM = (6.0, 18.0)
# Interior knots sit on an evenly spaced grid of stations, each moved by up to
# this share of the station spacing, as a chord measured at stations along a
# plate is. Uniformly drawn knots can fall microns apart; the midpoint fallback
# errs by about (slope jump) x (slice width)^2 at every knot, which reached
# 2.9e-9 relative at a 3.4 um gap, beyond the 1e-9 check.
TAB_JITTER = 0.3
N_OMEGA = 40
CYCLE_FREQS, CYCLE_AMPS = 6, 4


@dataclass
class DesignInputs:
    rects: list          # (planform, h, l1, l2)
    paras: list          # (planform, height, root, l1)
    tab: planform.Planform
    tab_knots: list      # sorted (x, h) pairs spanning [-l1, l2]
    omegas: list
    cycles: list         # (freq, amp)
    cycle_rdfs: planform.RdfReport
    env: hydro.FluidEnv


def design_prepare(seed: int) -> DesignInputs:
    _load_calibration()
    rng = np.random.default_rng(seed)
    rects = []
    for h, l1, l2 in rng.uniform(0.5, 25.0, size=(N_SMOOTH, 3)):
        rects.append((planform.Planform.rectangle(h, l1, l2), h, l1, l2))
    paras = []
    for height, root, frac in rng.uniform((0.5, 2.0, 0.0), (20.0, 25.0, 1.0), size=(N_SMOOTH, 3)):
        l1 = frac * root
        paras.append((planform.Planform.parabola(height, root, l1), height, root, l1))
    l1, l2 = TAB_SPAN_MM
    xs = np.linspace(-l1, l2, N_TAB_KNOTS)
    step = (l1 + l2) / (N_TAB_KNOTS - 1)
    xs[1:-1] += step * rng.uniform(-TAB_JITTER, TAB_JITTER, N_TAB_KNOTS - 2)
    knots = [(float(x), float(h)) for x, h in zip(xs, rng.uniform(0.5, 10.0, N_TAB_KNOTS))]
    cycles = [(float(f), float(a)) for f in np.sort(rng.uniform(0.5, 5.0, CYCLE_FREQS))
              for a in np.sort(rng.uniform(0.2, 3.0, CYCLE_AMPS))]
    i_head, i_tail = rng.uniform(1e4, 2e5), rng.uniform(5e3, 5e4)
    return DesignInputs(
        rects=rects, paras=paras,
        tab=planform.Planform.tabulated(knots, l1, l2), tab_knots=knots,
        omegas=[float(w) for w in rng.uniform(-20.0, 20.0, N_OMEGA)],
        cycles=cycles,
        cycle_rdfs=planform.rdf_report_from_constants(i_head, i_tail),
        env=hydro.FluidEnv(),
    )


def _parabola_rdf(height, root, l1) -> float:
    """Closed form of the parabola RDF for 0 <= l1 <= root."""
    return height * (root**4 / 12.0 + l1**4 / 4.0 - l1**6 / (6.0 * root**2))


def _piecewise_linear_rdf(knots) -> float:
    """Exact integral of a piecewise-linear chord times |x|^3, in rationals."""
    total = Fraction(0)
    pts = [(Fraction(x), Fraction(h)) for x, h in knots]
    for (x0, h0), (x1, h1) in zip(pts, pts[1:]):
        if x1 == x0:
            continue
        slope = (h1 - h0) / (x1 - x0)
        c0 = h0 - slope * x0

        def prim(x):  # antiderivative of (c0 + slope*x) * x^3
            return c0 * x**4 / 4 + slope * x**5 / 5

        for a, b in ((x0, min(x1, Fraction(0))), (max(x0, Fraction(0)), x1)):
            if b > a:
                sign = -1 if b <= 0 else 1
                total += sign * (prim(b) - prim(a))
    return float(total)


def design_batch(d: DesignInputs, workdir: Path, inject: str | None, clock: Clock) -> Batch:
    rdf = planform.resistive_drag_factor
    tab_val, h_tab = clock.call(rdf, d.tab)
    rect_vals, para_vals, smooth = [], [], []
    for planforms, vals in ((d.rects, rect_vals), (d.paras, para_vals)):
        for p, *_ in planforms:
            v, h = clock.call(rdf, p)
            vals.append(v)
            smooth.append(h)
    torque_p = d.paras[0][0]
    torques = [clock.call(hydro.reactive_torque, d.env, torque_p, w)[0] for w in d.omegas]
    cycles, cycle_handles = [], []
    for freq, amp in d.cycles:
        motion = hydro.PlateMotion.sinusoid(amp, freq)
        res, h = clock.call(hydro.simulate_cycle, d.env, None, None, motion, rdfs=d.cycle_rdfs)
        cycles.append(res)
        cycle_handles.append(h)
    clock.close()

    t_smooth = sum(map(clock.seconds, smooth))
    b = clock.batch(
        rate=len(smooth) / t_smooth, op_samples=[clock.seconds(h) for h in cycle_handles],
        named={"rdf_tabulated_s": clock.seconds(h_tab),
               "rdf_smooth_ms": 1e3 * t_smooth / len(smooth)},
    )
    if inject == "perturb-rdf" and rect_vals[0] is not None:
        rect_vals[0] *= 1.0 + 1e-6
    values = [tab_val] + rect_vals + para_vals + torques + cycles
    b.ops = len(values)
    b.ops_failed = sum(v is None for v in values)

    if tab_val is not None:
        err = _rel_err(tab_val, _piecewise_linear_rdf(d.tab_knots))
        b.rel_errors["rdf_tabulated"] = err
        b.checks.append(("tabulated rdf exact to 1e-9", err <= 1e-9))
    for v, (_, h, l1, l2) in zip(rect_vals, d.rects):
        if v is not None:
            b.checks.append(("rectangle rdf exact to 1e-10",
                             _rel_err(v, h * (l1**4 + l2**4) / 4.0) <= 1e-10))
    for v, (_, height, root, l1) in zip(para_vals, d.paras):
        if v is not None:
            b.checks.append(("parabola rdf exact to 1e-10",
                             _rel_err(v, _parabola_rdf(height, root, l1)) <= 1e-10))
    i_torque = _parabola_rdf(*d.paras[0][1:]) * hydro.MM5_TO_M5
    for tau, w in zip(torques, d.omegas):
        if tau is not None:
            exact = -0.5 * d.env.rho * d.env.c_d * w * abs(w) * i_torque
            b.checks.append(("reactive torque exact to 1e-10", _rel_err(tau, exact) <= 1e-10))
    target = d.cycle_rdfs.i_tail / d.cycle_rdfs.i_head
    for res in cycles:
        if res is not None:
            balance = abs(res.mean_tau_rh - res.mean_tau_rt) / res.torque_scale
            ratio = res.mean_sq_omega_h / res.mean_sq_omega_t
            b.checks.append(("cycle balance residual < 1e-3", balance < 1e-3))
            b.checks.append(("cycle speed-sq ratio within 2%", _rel_err(ratio, target) <= 0.02))
    return b


# ----------------------------------------------------------- characterize

CHARACTERIZE_ROUNDS = 8

# Cells of the stored calibration that the sweeps must reproduce exactly:
# (sweep, key columns) -> expected text, as in acceptance criterion 5.
FIXTURE_CELLS = [
    ("excursion", ("1", "0.06"), "7.8"),
    ("excursion", ("0.5", "0.10"), "6.59"),
    ("excursion", ("2", "0.10"), "6.34"),
    ("excursion", ("3", "0.10"), "5.62"),
    ("excursion", ("4", "0.10"), "4.84"),
    ("excursion", ("5", "0.10"), "3.75"),
    ("speed", ("2", "0.10"), "13.6"),
    ("turn", ("left", "2", "0.12"), "12"),
    ("turn", ("left", "3", "0.13"), "10.2"),
    ("turn", ("right", "4", "0.15"), "-7.5"),
    ("turn", ("right", "5", "0.15"), "-8.9"),
]
DESIGN_RATIO_BANDS = {"new": (10.65, 0.01), "old": (0.858, 0.001)}


def characterize_prepare(seed: int):
    _load_calibration()
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(CHARACTERIZE_ROUNDS):
        s = ["--seed", str(int(rng.integers(0, 2**31 - 1)))]
        f, app, v, p = rng.uniform((0.5, 1.0, 2.0, 20.0), (5.0, 8.0, 20.0, 150.0))
        rounds.append([
            ("excursion", s + ["sweep", "excursion"]),
            ("speed", s + ["sweep", "speed"]),
            ("turn", s + ["sweep", "turn"]),
            ("cycle", s + ["cycle"]),
            ("rdf-new", s + ["rdf", "--design", "new"]),
            ("rdf-old", s + ["rdf", "--design", "old"]),
            ("metrics", s + ["metrics", "--json", "--f", repr(float(f)), "--app-mm",
                             repr(float(app)), "--v-mmps", repr(float(v)),
                             "--p-mw", repr(float(p))]),
        ])
    return rounds


def _sweep_cells(name: str, out: Path) -> dict:
    rows = (out / f"{name}_sweep.csv").read_text().splitlines()[1:]
    cells = {}
    for line in rows:
        cols = line.split(",")
        if name == "turn":
            cells[(cols[2], cols[0], cols[1])] = cols[3]
        else:
            cells[(cols[0], cols[1])] = cols[2]
    return cells


def _manifest_complete(out: Path) -> bool:
    listed = set(json.loads((out / "manifest.json").read_text())["files"])
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    return listed == written


def _metrics_exact(argv: list[str], text: str) -> bool:
    opts = argv[argv.index("--f"):]
    arg = {k: float(v) for k, v in zip(opts[::2], opts[1::2])}
    f, app, v, p = arg["--f"], arg["--app-mm"] * 1e-3, arg["--v-mmps"] * 1e-3, arg["--p-mw"] * 1e-3
    mass, length, g, nu = 59e-6, 36e-3, 9.81, 1e-6
    exact = {"cot": p / (mass * g * v), "st": f * app / v, "re": v * length / nu,
             "sw": 2.0 * math.pi * f * app * length / nu}
    got = json.loads(text)
    return all(_rel_err(got[k], exact[k]) <= 1e-12 for k in exact)


def _rdf_ratio_ok(design: str, text: str) -> bool:
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key == "ratio_head_over_tail":
            target, tol = DESIGN_RATIO_BANDS[design]
            return abs(float(value) - target) <= tol
    return False


def characterize_batch(rounds, workdir: Path, inject: str | None, clock: Clock) -> Batch:
    runs, handles = [], []
    for r, commands in enumerate(rounds):
        for name, argv in commands:
            out = workdir / f"r{r}-{name}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc, h = clock.call(harness.cli_main, ["--out", str(out)] + argv)
            runs.append((r, name, argv, out, rc, buf.getvalue()))
            handles.append(h)
    clock.close()

    b = clock.batch(rate=0.0, op_samples=[clock.seconds(h) for h in handles], ops=len(runs))
    b.rate = len(runs) / b.wall_s
    b.bytes_written, b.files_written = _tree_size(workdir)
    if inject == "drop-manifest-entry":
        manifest = workdir / "r0-excursion" / "manifest.json"
        m = json.loads(manifest.read_text())
        m["files"] = m["files"][1:]
        manifest.write_text(json.dumps(m))
    sweeps = {}
    for r, name, argv, out, rc, text in runs:
        if rc != 0:
            b.ops_failed += 1
            continue
        if name in ("excursion", "speed", "turn", "cycle"):
            b.checks.append((f"{name} manifest lists every file", _manifest_complete(out)))
        if name in ("excursion", "speed", "turn"):
            sweeps[(r, name)] = _sweep_cells(name, out)
        elif name.startswith("rdf-"):
            b.checks.append((f"{name} ratio", _rdf_ratio_ok(name[4:], text)))
        elif name == "metrics":
            b.checks.append(("metrics closed forms", _metrics_exact(argv, text)))
    for r in range(len(rounds)):
        for sweep, key, expected in FIXTURE_CELLS:
            cells = sweeps.get((r, sweep))
            if cells is not None:
                b.checks.append((f"{sweep} fixture {key}", cells.get(key) == expected))
    return b


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int], Any]                     # seed -> inputs
    batch: Callable[[Any, Path, str | None, Clock], Batch]   # inputs, workdir, inject, clock
    rate_alias: str        # what ops_per_s counts on this workload
    op_alias: str          # what op_p50_ms times on this workload
    inject: str            # the fault --inject can feed this workload's checks


WORKLOADS = {
    w.name: w for w in (
        Workload("track", track_prepare, track_batch,
                 "ticks_per_s", "maneuver_p50", "flip-log-byte"),
        Workload("design", design_prepare, design_batch,
                 "smooth_rdfs_per_s", "cycle_p50", "perturb-rdf"),
        Workload("characterize", characterize_prepare, characterize_batch,
                 "runs_per_s", "run_p50", "drop-manifest-entry"),
    )
}
