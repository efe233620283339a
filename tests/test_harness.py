import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from milliswim import csvlog, harness
from milliswim.actuator import Mode, default_excursion_table
from milliswim.control import ControlConfig, ControllerState, ReferencePath
from milliswim.csvlog import LOG_BLOCK
from milliswim.errors import CalibrationRangeError
from milliswim.harness import (
    CLI_KINDS,
    CONFIG_SCHEMA,
    RUNNERS,
    TRACK_PATHS,
    ExperimentConfig,
    check_reachable_lookups,
    cli_main,
    run_excursion_sweep,
    run_speed_sweep,
    run_tracking,
    run_turn_sweep,
)
from milliswim.hydro import MIN_DEFAULT_INERTIA_STEPS, FluidEnv
from milliswim.metrics import format_table
from milliswim.planform import Planform
from milliswim.plant import PlantCalibration, SwimmerState, observe, rates, step
from milliswim.tables import BilinearTable

from control_reference import tick
from planform_reference import exact_rdf

# sha256 of the sweep and cycle CSVs of `milliswim --seed 7 sweep ...|cycle`.
PINNED_SHA256 = {
    ("sweep", "excursion"): ("excursion_sweep.csv",
                             "9d04967468ff9246435a6c7e040066803206d32053456dbc4ce644e00fd50dc9"),
    ("sweep", "speed"): ("speed_sweep.csv",
                         "5dc6f5d5f63e2639fbd95854e9259e8b4a66cd721db5c430f22e1e5c6e8c1b0c"),
    ("sweep", "turn"): ("turn_sweep.csv",
                        "4bf11769c23fce8ada128a277a6236b18dad01067d2dc374b60d952bb17a3cba"),
    ("cycle",): ("cycle.csv",
                 "55d4b823ad03a2da0464b18db0acc9126d9c245b93bef4582f4cc54a730f2920"),
}


# sha256 of (trajectory_1.csv, stats.json) of
# `milliswim --seed 7 track <maneuver> --duration 60 [--noise-sigma 0.0001]`.
PINNED_TRACK_SHA256 = {
    ("line", False): ("8ff0c46eac9aa39cdc685b09424b1fab923517c9e770fcca6d21a6445a2fe7a8",
                      "797e83ac6b5d80ff5df1f658e290b4533b62a7b8adda0a5b5203ae7bc8f21325"),
    ("line", True): ("2bf09ffb7b6df24bb5f5d8ec34030fbf08e89f20cab5c8eb6ace626126d0b6d7",
                     "5cb7c8f803f827c6751c0216089a1ede961aa0f7ccbb9c915c796529220a1b3c"),
    ("left", False): ("b1c2addc7cce4475e62b5fd82a135c6157b6acc48a127438d9e5b34ac6634d09",
                      "0d9fc204802256a8d964a341c482be1a8cc3ccce04cde945f1e58cbb5d80a06d"),
    ("left", True): ("b3fb540f365f2700100f3d6be99250affb40a1643d31b78bf52e7d544b6e9285",
                     "f35c35ac0c6319a59dafdf79c0736b67962b8b6f8ef04d34b31d576bebad0916"),
    ("right", False): ("fdf9d8a193375f5e784416ad18ffe6b6b610b8bd8c21bd73440a010d1c37ad23",
                       "1f52bf03b2566c8dee2e10b682d52dbbb9964d3e8e9028f251896457f93da59f"),
    ("right", True): ("eed0718c4c6eb17230bb89d7bac9906d1ae421fb447e4a8588f12a494ff1480b",
                      "cd16ee7b0a3e95f23fdb6736bc7bad5eb87794539ecb25a2473bb6dcaf3d3a47"),
}

# sha256 of the stdout of `milliswim rdf --design new|old`, and of
# `milliswim rdf --head <RDF_PLANFORMS[k]> --tail <RDF_TAIL>` per planform kind k.
# steep_knots jumps by 9.9 mm over 1 nm at x = 20 mm; its digest is that of the
# text of the rational integral (test_rdf_steep_knots_is_the_rational_integral).
RDF_PLANFORMS = {
    "rectangle": {"kind": "rectangle", "height_mm": 4.0, "l1_mm": 2.0, "l2_mm": 8.0},
    "parabola": {"kind": "parabola", "height_mm": 5.0, "root_mm": 10.0, "l1_mm": 3.0},
    "clipped_parabola": {"kind": "parabola", "height_mm": 5.0, "root_mm": 6.0, "l1_mm": 9.0},
    "tabulated": {"kind": "tabulated", "points": [[-3, 1], [0, 4], [5, 3.5], [12, 0.5]],
                  "l1_mm": 2.5, "l2_mm": 11.0},
    "steep_knots": {"kind": "tabulated",
                    "points": [[-1.0, 1.0], [19.999999, 0.1], [20.0, 10.0], [25.0, 10.0]],
                    "l1_mm": 1.0, "l2_mm": 25.0},
}
RDF_TAIL = {"kind": "rectangle", "height_mm": 6.0, "l1_mm": 0.0, "l2_mm": 15.0}
PINNED_RDF_SHA256 = {
    "new": "00a3aadfc6987e52f8c7981ddb57cf9eb7eafdbacf579a517cffca7d4e43ce5c",
    "old": "0505649cd0ce9f41d5bbee3b1a30b1e73b56e62a436406ba12041e0bb6b040e8",
    "rectangle": "edeb9411274b77f300faf6886b592b12424967867f45a85ed6ed6c36c6367846",
    "parabola": "52d71d8858b670b5c16814971174b653b424175a9c39f08dbf714f99363ca1c2",
    "clipped_parabola": "6ed1893e65a94babe76c3d11a7f95e74b25decf2c5c75d03691baea84f58a9cc",
    "tabulated": "732bfd04a90ebccbf1ad11f9e1ad2cfd68499015a93a67ddb81647e701acfc48",
    "steep_knots": "75758a2c394d872a146a36f9496e62d29ffba8497f063ec3c166795b1b354e69",
}

# Two noisy right turns sharing one generator: the first aborts at tick 2849,
# the second runs its 20 s from the stream position the abort left.
ABORT_CASE = dict(kind="track_right", duration=20.0, seed=5, repeats=2, noise_sigma=1e-4,
                  abort_error_m=0.0159)
ABORT_CASE_SHA256 = {
    "trajectory_1.csv": "049696959833bff92d5dca744eabf0529bdc396c46e9e09ab4053ca7ee2b8ece",
    "trajectory_2.csv": "7488f4828de5bf2265dada255c80589d29cc0d295ce78e9df69731b0cdf67fbc",
    "stats.json": "520ac6f9b918bd1571fd1699411bc93ffb48893da17501977a6d148674f34fcf",
}


# stands for the config file's path in an argv of test_invalid_final_config_exit_1
CONFIG = object()


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def cfg_for(tmp_path, kind, **kw):
    return ExperimentConfig(kind=kind, output_dir=tmp_path / kind, **kw)


class TestExcursionSweep:
    def test_row_count_and_measured_cell(self, tmp_path):
        rows = read_rows(run_excursion_sweep(cfg_for(tmp_path, "excursion_sweep")))
        assert len(rows) == 60
        cell = {(r["freq_hz"], r["dc_pu"]): r for r in rows}
        assert cell[("1", "0.06")]["app_mm"] == "7.8"
        assert cell[("2", "0.10")]["app_mm"] == "6.34"

    def test_provenance_column(self, tmp_path):
        rows = read_rows(run_excursion_sweep(cfg_for(tmp_path, "excursion_sweep")))
        assert {r["provenance"] for r in rows} <= {"text", "digitized"}
        assert any(r["provenance"] == "text" for r in rows)

    def test_power_column_linear(self, tmp_path):
        rows = read_rows(run_excursion_sweep(cfg_for(tmp_path, "excursion_sweep")))
        for r in rows:
            assert float(r["p_mw"]) == pytest.approx(720.0 * float(r["dc_pu"]), rel=1e-9)

    def test_st_column_consistent(self, tmp_path):
        # St per row is computed from that row's excursion and the speed
        # calibration at the same command, never invented
        rows = read_rows(run_excursion_sweep(cfg_for(tmp_path, "excursion_sweep")))
        from milliswim.metrics import strouhal
        from milliswim.plant import PlantCalibration

        cal = PlantCalibration.default()
        for r in rows:
            f, dc = float(r["freq_hz"]), float(r["dc_pu"])
            v = cal.speed_map(f, dc)
            assert float(r["st"]) == pytest.approx(strouhal(f, float(r["app_mm"]), v), rel=1e-6)

    def test_speed_grid_covers_the_sweep(self):
        # the sweep's st column divides by the speed at each excursion node and
        # has no fallback
        speed, table = PlantCalibration.default().speed_map, default_excursion_table()
        for fr in table.freqs:
            speed_at = speed.at(fr)  # raises outside the grid
            for dc in table.dcs:
                assert speed_at(dc) > 0, (fr, dc)

    def test_byte_identical_rerun(self, tmp_path):
        a = run_excursion_sweep(cfg_for(tmp_path / "a", "excursion_sweep"))
        b = run_excursion_sweep(cfg_for(tmp_path / "b", "excursion_sweep"))
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written(self, tmp_path):
        out = run_excursion_sweep(cfg_for(tmp_path, "excursion_sweep")).parent
        manifest = json.loads((out / "manifest.json").read_text())
        assert "excursion_sweep.csv" in manifest["files"]
        assert (out / "config.snapshot.json").exists()

    def test_manifest_names_the_environment(self, tmp_path):
        out = run_excursion_sweep(cfg_for(tmp_path, "excursion_sweep")).parent
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["python"], manifest["numpy"], manifest["machine"]) == (
            platform.python_version(), np.__version__, platform.machine())
        # the data and the config snapshot do not carry them
        assert "numpy" not in (out / "config.snapshot.json").read_text()


class TestSpeedAndTurnSweeps:
    def test_speed_measured_cell(self, tmp_path):
        rows = read_rows(run_speed_sweep(cfg_for(tmp_path, "speed_sweep")))
        assert len(rows) == 60
        cell = {(r["freq_hz"], r["dc_pu"]): r["v_mmps"] for r in rows}
        assert cell[("2", "0.10")] == "13.6"

    def test_turn_grid_and_measured_cells(self, tmp_path):
        rows = read_rows(run_turn_sweep(cfg_for(tmp_path, "turn_sweep")))
        assert len(rows) == 110
        cell = {(r["side"], r["freq_hz"], r["dc_pu"]): r["rate_degps"] for r in rows}
        assert cell[("left", "2", "0.12")] == "12"
        assert cell[("left", "3", "0.13")] == "10.2"
        assert cell[("right", "4", "0.15")] == "-7.5"
        assert cell[("right", "5", "0.15")] == "-8.9"

    def test_turn_sign_convention(self, tmp_path):
        rows = read_rows(run_turn_sweep(cfg_for(tmp_path, "turn_sweep")))
        for r in rows:
            rate = float(r["rate_degps"])
            assert rate >= 0 if r["side"] == "left" else rate <= 0


class TestTracking:
    def test_rectilinear_run(self, tmp_path):
        cfg = cfg_for(tmp_path, "track_rectilinear", duration=20.0)
        (res,) = run_tracking(cfg)
        assert not res.failed
        assert res.stats["rms_error_m"] <= 2.6e-3
        assert res.stats["mean_speed_mps"] >= 9.1e-3
        rows = read_rows(res.log_path)
        assert len(rows) == int(20.0 * cfg.control.loop_rate)
        assert list(rows[0]) == [
            "t_s", "r1_m", "r2_m", "psi_rad", "v_mps", "omega_radps", "uL", "uR"
        ]

    def test_duty_cycles_logged_within_bounds(self, tmp_path):
        (res,) = run_tracking(cfg_for(tmp_path, "track_rectilinear", duration=5.0))
        for r in read_rows(res.log_path):
            assert 0.0 <= float(r["uL"]) <= 0.22
            assert 0.0 <= float(r["uR"]) <= 0.22

    def test_deterministic_reruns(self, tmp_path):
        a = run_tracking(cfg_for(tmp_path / "a", "track_rectilinear", duration=3.0,
                                 seed=7, noise_sigma=1e-4))
        b = run_tracking(cfg_for(tmp_path / "b", "track_rectilinear", duration=3.0,
                                 seed=7, noise_sigma=1e-4))
        assert a[0].log_path.read_bytes() == b[0].log_path.read_bytes()

    def test_repeats_write_separate_logs(self, tmp_path):
        res = run_tracking(cfg_for(tmp_path, "track_rectilinear", duration=3.0,
                                   repeats=3))
        assert [r.log_path.name for r in res] == [
            "trajectory_1.csv", "trajectory_2.csv", "trajectory_3.csv"
        ]
        stats = json.loads((res[0].log_path.parent / "stats.json").read_text())
        assert set(stats) == {"test_1", "test_2", "test_3"}

    def test_divergence_marks_failed_retains_partial_log(self, tmp_path):
        # the left-turn corner always overshoots by more than 1 mm (the turn
        # radius is ~24 mm), so this bound forces an abort mid-run
        cfg = cfg_for(tmp_path, "track_left", duration=30.0)
        cfg.abort_error_m = 1e-3
        (res,) = run_tracking(cfg)
        assert res.failed
        assert res.stats == {"failed": True}
        rows = read_rows(res.log_path)
        assert 0 < len(rows) < int(30.0 * cfg.control.loop_rate)


class TestPinnedTracking:
    @pytest.mark.parametrize("maneuver, noisy", list(PINNED_TRACK_SHA256),
                             ids=lambda x: str(x))
    def test_paper_maneuver_digests(self, tmp_path, capsys, maneuver, noisy):
        argv = ["--out", str(tmp_path), "--seed", "7", "track", maneuver, "--duration", "60"]
        assert cli_main(argv + (["--noise-sigma", "0.0001"] if noisy else [])) == 0
        assert (sha256(tmp_path / "trajectory_1.csv"), sha256(tmp_path / "stats.json")) == (
            PINNED_TRACK_SHA256[maneuver, noisy])

    def test_repeat_after_abort_digests(self, tmp_path):
        res = run_tracking(ExperimentConfig(output_dir=tmp_path, **ABORT_CASE))
        assert [r.failed for r in res] == [True, False]
        assert {name: sha256(tmp_path / name) for name in ABORT_CASE_SHA256} == ABORT_CASE_SHA256


class InProcessWriter:
    """harness.LogWriter as the in-process write_csv after the loop, which the
    child interpreter replaced: the reference for the log's bytes."""

    def __init__(self, path, header, row_format, cols):
        self.args = path, header, row_format, cols

    def __enter__(self):
        return self

    def send(self):
        pass

    def __exit__(self, exc_type, exc, tb):
        assert exc_type is None
        path, header, row_format, cols = self.args
        csvlog.write_csv(path, header, row_format, zip(*cols))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLogWriter:
    """The trajectory log formatted by a child interpreter fed raw blocks."""

    @pytest.mark.parametrize("ticks", [LOG_BLOCK - 1, LOG_BLOCK, LOG_BLOCK + 1, 2 * LOG_BLOCK])
    @pytest.mark.parametrize("noise_sigma, repeats", [(0.0, 1), (1e-4, 1), (1e-4, 3)],
                             ids=["noiseless", "noisy", "noisy-repeats-3"])
    def test_log_bytes_equal_an_in_process_write(self, tmp_path, monkeypatch, ticks,
                                                 noise_sigma, repeats):
        cfg = ExperimentConfig(kind="track_left", duration=ticks / 250.0, seed=3,
                               noise_sigma=noise_sigma, repeats=repeats)
        res = run_tracking(replace(cfg, output_dir=tmp_path / "child"))
        assert_no_child_left()
        monkeypatch.setattr(harness, "LogWriter", InProcessWriter)
        run_tracking(replace(cfg, output_dir=tmp_path / "in-process"))
        assert [len(read_rows(r.log_path)) for r in res] == [ticks] * repeats
        assert tree_digests(tmp_path / "child") == tree_digests(tmp_path / "in-process")

    @pytest.mark.parametrize("sends", [[], [10], [LOG_BLOCK + 3, 2 * LOG_BLOCK, 3 * LOG_BLOCK]],
                             ids=["close-only", "partial-block", "mid-block-and-at-edges"])
    def test_any_send_pattern_writes_the_same_bytes(self, tmp_path, sends):
        # send passes only full blocks, whatever the row count, and close the rest
        rng = np.random.default_rng(0)
        specials = [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 1e16]
        cols = [array("d", rng.standard_normal(3 * LOG_BLOCK + 5).tolist() + specials)
                for _ in range(3)]
        grown = [array("d") for _ in cols]
        with csvlog.LogWriter(tmp_path / "child.csv", "a,b,c", "%.9g,%.9g,%.9g", grown) as w:
            for n in sends + [len(cols[0])]:
                for g, c in zip(grown, cols):
                    g.extend(c[len(g):n])
                w.send()
        assert_no_child_left()
        csvlog.write_csv(tmp_path / "ref.csv", "a,b,c", "%.9g,%.9g,%.9g", zip(*cols))
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_log_path_a_directory_exit_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "trajectory_1.csv").mkdir(parents=True)
        with pytest.raises(OSError) as expected:
            open(out / "trajectory_1.csv", "w")
        assert cli_main(["--out", str(out), "track", "line", "--duration", "5"]) == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert sorted(os.listdir(out)) == ["trajectory_1.csv"]
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_log_device_full_exit_2(self, tmp_path, capsys):
        # the child fails at its first flush; the run raises its error at the next
        # block send or at the final wait, and leaves what the child wrote through
        out = tmp_path / "run"
        out.mkdir()
        (out / "trajectory_1.csv").symlink_to("/dev/full")
        assert cli_main(["--out", str(out), "track", "line", "--duration", "10"]) == 2
        assert capsys.readouterr().err == "runtime error: [Errno 28] No space left on device\n"
        assert (out / "trajectory_1.csv").is_symlink()
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
    @pytest.mark.parametrize("full", [False, True], ids=["log-a-directory", "device-full"])
    def test_child_failure_stops_the_loop_at_the_next_send(self, tmp_path, capsys,
                                                           monkeypatch, full):
        if full and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")

        class ExitedWriter(csvlog.LogWriter):
            """Waits for the child to exit, leaving it unreaped: before the first
            tick if it cannot open the log, after the first block if it can but
            the device is full."""

            def __init__(self, *args):
                super().__init__(*args)
                if not full:
                    self.wait_for_exit()

            def send(self, last=False):
                super().send(last)
                if full and self.sent == LOG_BLOCK:
                    self.wait_for_exit()

            def wait_for_exit(self):
                os.waitid(os.P_PID, self.proc.pid, os.WEXITED | os.WNOWAIT)

        calls = []

        def counted(*args):
            calls.append(None)
            return rates(*args)

        monkeypatch.setattr(harness, "LogWriter", ExitedWriter)
        monkeypatch.setattr(harness, "rates", counted)
        out = tmp_path / "run"
        out.mkdir()
        if full:
            (out / "trajectory_1.csv").symlink_to("/dev/full")
            message = "runtime error: [Errno 28] No space left on device"
        else:
            (out / "trajectory_1.csv").mkdir()
            with pytest.raises(OSError) as expected:
                open(out / "trajectory_1.csv", "w")
            message = f"error: {expected.value}"
        rc = cli_main(["--out", str(out), "track", "line", "--duration", "60"])
        assert (rc, capsys.readouterr().err) == (2 if full else 1, message + "\n")
        assert len(calls) == (2 if full else 1) * LOG_BLOCK  # of 15 000 ticks
        # what the child wrote through stays
        log = out / "trajectory_1.csv"
        assert os.listdir(out) == [log.name] and (log.is_symlink() if full else log.is_dir())
        assert_no_child_left()

    def test_child_killed_exit_2(self, tmp_path, capsys, monkeypatch):
        class KilledWriter(csvlog.LogWriter):
            def __init__(self, *args):
                super().__init__(*args)
                self.proc.kill()

        monkeypatch.setattr(harness, "LogWriter", KilledWriter)
        assert cli_main(["--out", str(tmp_path), "track", "line", "--duration", "5"]) == 2
        assert capsys.readouterr().err == "runtime error: log writer exited with -9: \n"
        assert_no_child_left()

    @pytest.mark.parametrize("calls, made", [(10, False), (LOG_BLOCK + 10, True)],
                             ids=["early", "after-the-child-made-the-log"])
    def test_loop_raising_leaves_no_log(self, tmp_path, monkeypatch, calls, made):
        def failing(*args, n=iter(range(calls))):
            if next(n, None) is None:
                deadline = time.monotonic() + 60
                while made and not (tmp_path / "trajectory_1.csv").exists():
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                raise RuntimeError("rates failed")
            return rates(*args)

        monkeypatch.setattr(harness, "rates", failing)
        cfg = ExperimentConfig(kind="track_right", duration=10.0, output_dir=tmp_path)
        with pytest.raises(RuntimeError, match="^rates failed$"):
            run_tracking(cfg)
        assert os.listdir(tmp_path) == []
        assert_no_child_left()


def assert_manifest_lists_the_directory(out: Path):
    listed = json.loads((out / "manifest.json").read_text())["files"]
    regular = [p.name for p in out.iterdir() if p.is_file() and not p.is_symlink()]
    assert sorted(regular) == sorted(listed + ["manifest.json"])


# one short CLI run of each of the seven run kinds
RUN_ARGV = {
    "excursion": ["sweep", "excursion"],
    "speed": ["sweep", "speed"],
    "turn": ["sweep", "turn"],
    "cycle": ["cycle"],
    "line": ["track", "line", "--duration", "2"],
    "left": ["track", "left", "--duration", "2", "--noise-sigma", "0.0001"],
    "right": ["track", "right", "--duration", "2", "--repeats", "2"],
}


class TestRunDirectory:
    """A run's directory holds exactly the files its manifest lists."""

    @pytest.mark.parametrize("argv", list(RUN_ARGV.values()), ids=list(RUN_ARGV))
    def test_manifest_lists_every_file(self, tmp_path, capsys, argv):
        assert cli_main(["--out", str(tmp_path / "run"), *argv]) == 0
        assert_manifest_lists_the_directory(tmp_path / "run")

    @pytest.mark.parametrize("first, second", [
        (["track", "line", "--duration", "2", "--repeats", "3"], RUN_ARGV["line"]),
        (RUN_ARGV["cycle"], RUN_ARGV["line"]),
        (RUN_ARGV["turn"], RUN_ARGV["cycle"]),
    ], ids=["track-repeats-3-then-1", "cycle-then-track", "sweep-turn-then-cycle"])
    def test_rerun_into_a_reused_directory(self, tmp_path, capsys, first, second):
        out = tmp_path / "run"
        for argv in (first, second):
            assert cli_main(["--out", str(out), "--seed", "7", *argv]) == 0
            assert_manifest_lists_the_directory(out)
        assert cli_main(["--out", str(tmp_path / "fresh"), "--seed", "7", *second]) == 0
        assert tree_digests(out) == tree_digests(tmp_path / "fresh")

    def test_snapshot_replayed_into_its_own_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli_main(["--out", str(out), "--seed", "7", "track", "left", "--duration", "2",
                         "--noise-sigma", "0.0001", "--repeats", "2"]) == 0
        before = tree_digests(out)
        assert cli_main(["--config", str(out / "config.snapshot.json"), "--out", str(out),
                         "track", "left"]) == 0
        assert tree_digests(out) == before
        assert_manifest_lists_the_directory(out)

    def test_cleanup_unlinks_only_bare_names_of_regular_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "sub").mkdir(parents=True)
        kept = [tmp_path / "outside.csv", tmp_path / "target.csv", out / "sub" / "inner.csv",
                out / "unlisted.csv"]
        for f in kept + [out / "old.csv"]:
            f.write_text("old\n")
        (out / "link.csv").symlink_to(tmp_path / "target.csv")
        (out / "manifest.json").write_text(json.dumps({"files": [
            "../outside.csv", "sub", "sub/inner.csv", "link.csv", str(tmp_path / "target.csv"),
            "old.csv", "", ".", "..", "a\0b", 7, None]}))
        assert cli_main(["--out", str(out), "sweep", "speed"]) == 0
        assert not (out / "old.csv").exists()
        assert all(f.read_text() == "old\n" for f in kept)
        assert (out / "link.csv").is_symlink() and (out / "sub").is_dir()
        assert json.loads((out / "manifest.json").read_text())["files"] == [
            "config.snapshot.json", "speed_sweep.csv"]

    @pytest.mark.parametrize("text", [
        "not json", '["kept.csv"]', '{"kind": "speed_sweep"}', '{"files": "kept.csv"}',
        '{"files": {"kept.csv": 1}}'], ids=["not-json", "a-list", "no-files",
                                            "files-a-string", "files-an-object"])
    def test_cleanup_skips_a_manifest_it_cannot_read(self, tmp_path, capsys, text):
        out = tmp_path / "run"
        out.mkdir()
        kept = [out / "kept.csv", out / "k"]  # "k": the string's first character
        for f in kept:
            f.write_text("old\n")
        (out / "manifest.json").write_text(text)
        assert cli_main(["--out", str(out), "sweep", "speed"]) == 0
        assert all(f.read_text() == "old\n" for f in kept)
        assert json.loads((out / "manifest.json").read_text())["kind"] == "speed_sweep"

    def test_failure_mid_run_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert cli_main(["--out", str(out), "cycle"]) == 0

        def full(path, *args):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(csvlog, "write_csv", full)
        assert cli_main(["--out", str(out), "cycle"]) == 2
        assert capsys.readouterr().err == "runtime error: [Errno 28] No space left on device\n"
        assert os.listdir(out) == []


def object_api_run(cfg, path):
    """The tracking loop written with the object API (SwimmerState, step)
    around observe, rates and the decomposed reference tick, with
    one rng.normal(size=3) call per noisy tick: the reference for the log rows
    and counters of run_tracking."""
    cal = PlantCalibration.default().at(cfg.control.freq)
    rng = np.random.default_rng(cfg.seed)
    dt = 1.0 / cfg.control.loop_rate
    state, ctrl = SwimmerState(), ControllerState()
    rows, modes, switches = [], dict.fromkeys([m.value for m in Mode], 0), []
    sat, peak = {"left": 0, "right": 0}, 0.0
    for k in range(int(round(cfg.duration * cfg.control.loop_rate))):
        seg_before = ctrl.active_segment
        noise = rng.normal(0.0, cfg.noise_sigma, size=3).tolist() if cfg.noise_sigma else None
        pose = observe(state.r1, state.r2, state.psi, noise)
        u_l, u_r = tick(cfg.control, path, ctrl, *pose, dt)
        mode, v_cmd, w_cmd = rates(cal, u_l, u_r)
        rows.append((k * dt, state.r1, state.r2, state.psi, state.v, state.omega, u_l, u_r))
        for _ in range(4):
            state = step(state, v_cmd, w_cmd, dt / 4, response_time=cfg.response_time)
        modes[mode.value] += 1
        sat["left"] += u_l >= cfg.control.u_max
        sat["right"] += u_r >= cfg.control.u_max
        if ctrl.active_segment != seg_before:
            switches.append(k * dt)
        seg = path.segments[ctrl.active_segment]
        peak = max(peak, abs(seg.target - (state.r1 if seg.lateral_axis == 1 else state.r2)))
    counters = {
        "ticks": len(rows), "substeps": 4 * len(rows), "saturated_ticks": sat, "modes": modes,
        "integrator_clamps": ctrl.integrator_clamps, "segment_switch_times_s": switches,
        "abort_margin_m": cfg.abort_error_m - peak,
    }
    return rows, counters


class TestCounters:
    def test_log_and_counters_match_the_object_api_loop(self, tmp_path):
        # a large integral gain makes the integrator bound INTEGRATOR_LIMIT / k_i
        # tight, so that the clamp counter moves
        cfg = cfg_for(tmp_path, "track_left", duration=10.0, seed=3, noise_sigma=1e-4,
                      control=ControlConfig(k_i=400.0))
        (res,) = run_tracking(cfg)
        rows, counters = object_api_run(cfg, ReferencePath.left_turn(corner=0.05))
        lines = res.log_path.read_bytes().split(b"\r\n")
        assert lines[1:-1] == [",".join(f"{x:.9g}" for x in r).encode() for r in rows]
        assert res.counters == counters
        assert counters["integrator_clamps"] > 0
        assert len(counters["segment_switch_times_s"]) == 1
        manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
        assert manifest["counters"] == {"test_1": json.loads(json.dumps(counters))}
        # counters stay out of stats.json
        stats = json.loads((cfg.output_dir / "stats.json").read_text())
        assert set(stats["test_1"]) == {
            "failed", "mean_speed_mps", "mean_turn_rate_degps", "mean_turn_rate_radps",
            "rms_error_m", "turn_radius_m"}

    def test_aborted_run_counts_up_to_the_abort(self, tmp_path):
        cfg = cfg_for(tmp_path, "track_left", duration=30.0, abort_error_m=1e-3)
        (res,) = run_tracking(cfg)
        c = res.counters
        assert c["ticks"] == len(read_rows(res.log_path))
        assert c["abort_margin_m"] < 0

    def test_rectilinear_has_no_switch(self, tmp_path):
        (res,) = run_tracking(cfg_for(tmp_path, "track_rectilinear", duration=3.0))
        assert res.counters["segment_switch_times_s"] == []
        assert res.counters["modes"]["bimorph"] == res.counters["ticks"]


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    """An ExperimentConfig with every CONFIG_SCHEMA field drawn."""
    u_v, u_max = sorted(draw(finite(1e-6, 1.0)) for _ in range(2))
    return ExperimentConfig(
        kind=draw(st.sampled_from(list(RUNNERS))),
        duration=draw(finite(1.0, 1e3)),
        seed=draw(st.integers(0, 2**64)),
        repeats=draw(st.integers(1, 10)),
        abort_error_m=draw(finite(1e-6, 10.0)),
        control=ControlConfig(
            k_p=draw(finite(0.0, 1e3)), k_i=draw(finite(0.0, 1e3)),
            k_p_psi=draw(finite(0.0, 1e3)), u_v=u_v, u_max=u_max,
            freq=draw(finite(1e-3, 1e3)), loop_rate=draw(finite(10.0, 1e4)),
        ),
        noise_sigma=draw(finite(0.0, 1.0)),
        response_time=draw(finite(0.0, 10.0)),
        fluid=FluidEnv(rho=draw(finite(1e-6, 1e6)), c_d=draw(finite(1e-6, 10.0))),
        cycle_freq=draw(finite(1e-3, 1e3)),
        cycle_tail_amp=draw(finite(-1e3, 1e3)),
        cycle_i_head=draw(finite(1e-6, 1e12)),
        cycle_i_tail=draw(finite(1e-6, 1e12)),
        cycle_n_steps=draw(st.integers(MIN_DEFAULT_INERTIA_STEPS, 10**6)),
    )


def grid_edge_or(lo, hi, *edges):
    return finite(lo, hi) | st.sampled_from(edges)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(tuple(TRACK_PATHS)),
    freq=grid_edge_or(0.3, 5.5, 0.5, 1.0, 5.0),
    duties=st.lists(grid_edge_or(0.005, 0.25, 0.01, 0.05, 0.22), min_size=2, max_size=2),
    gains=st.lists(finite(0.0, 50.0), min_size=3, max_size=3),
    noise=st.sampled_from([0.0, 1e-4, 1e-3]),
    seed=st.integers(0, 2**32),
)
def test_preflight_passing_configs_stay_in_the_calibration(kind, freq, duties, gains, noise, seed):
    u_v, u_max = sorted(duties)
    cc = ControlConfig(*gains, u_v=u_v, u_max=u_max, freq=freq)
    try:
        check_reachable_lookups(cc, PlantCalibration.default())
    except CalibrationRangeError:
        assume(False)
    with tempfile.TemporaryDirectory() as d:
        cfg = ExperimentConfig(kind=kind, duration=2.0, seed=seed, noise_sigma=noise,
                               abort_error_m=10.0, control=cc, output_dir=Path(d) / "run")
        (res,) = run_tracking(cfg)  # a CalibrationRangeError here fails the test
        assert not res.failed


@pytest.mark.parametrize("ini, argv, message", [
    ("[control]\nfreq_hz = 0.3\n", ["track", "line"],
     "speed_map: freq=0.3 outside calibration range [0.5, 5]"),
    ("[control]\nuv = 0.23\numax = 0.25\n", ["track", "line"],
     "speed_map: dc=0.23 outside calibration range [0.01, 0.22]"),
    ("[control]\nfreq_hz = 0.5\n", ["track", "left", "--duration", "30"],
     "turn_map_left: freq=0.5 outside calibration range [1, 5]"),
    ("[control]\nuv = 0.04\n", ["track", "right"],
     "turn_map_left: dc=0.04 outside calibration range [0.05, 0.22]"),
    ("[control]\numax = 0.25\n", ["track", "line"],
     "turn_map_left: dc=0.25 outside calibration range [0.05, 0.22]"),
])
def test_preflight_error_names_the_grid(tmp_path, capsys, ini, argv, message):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ini)
    out = tmp_path / "run"
    assert cli_main(["--config", str(cfg), "--out", str(out), *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_preflight_names_the_right_turn_grid():
    cal = PlantCalibration.default()
    narrow = BilinearTable([1.0, 5.0], [0.05, 0.15], [[-1.0, -2.0], [-3.0, -4.0]])
    with pytest.raises(CalibrationRangeError, match=r"^turn_map_right: dc=0\.22 outside"):
        check_reachable_lookups(ControlConfig(), replace(cal, turn_map_right=narrow))


class TestConfigFile:
    def test_ini_roundtrip(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[run]\nkind = track_left\nduration_s = 12\nseed = 3\nrepeats = 2\n"
            f"out = {tmp_path / 'runs'}\n"
            "[control]\nkp = 4\nuv = 0.10\n"
            "[plant]\nnoise_sigma_m = 0.0001\nresponse_time_s = 0.3\n"
            "[fluid]\nc_d = 2.0\n"
            "[cycle]\nfreq_hz = 3\nn_steps = 500\n"
        )
        cfg = ExperimentConfig.from_file(ini)
        assert cfg.kind == "track_left"
        assert cfg.duration == 12.0
        assert cfg.seed == 3
        assert cfg.repeats == 2
        assert cfg.control.k_p == 4.0
        assert cfg.control.u_v == 0.10
        assert cfg.control.k_i == 1.0  # untouched default
        assert cfg.noise_sigma == 1e-4
        assert cfg.response_time == 0.3
        assert cfg.fluid.c_d == 2.0
        assert cfg.cycle_freq == 3.0
        assert cfg.cycle_n_steps == 500

    def test_abort_bound_from_ini(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[run]\nabort_error_m = 0.05\n")
        assert ExperimentConfig.from_file(ini).abort_error_m == 0.05

    def test_snapshot_must_be_an_object(self, tmp_path):
        path = tmp_path / "config.snapshot.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_file(path)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_snapshot_roundtrip(self, data):
        # snapshot -> from_file -> snapshot, through the snapshot and through an INI
        cfg = data.draw(configs())
        snap = cfg.snapshot()
        text = json.dumps(snap, indent=2, sort_keys=True) + "\n"
        sections = {"run": {k: v for k, v in snap.items() if not isinstance(v, dict)},
                    **{s: body for s, body in snap.items() if isinstance(body, dict)}}
        schema_keys = {(s, k) for s, body in CONFIG_SCHEMA.items() for k in body}
        assert {(s, k) for s, body in sections.items() for k in body} == (
            schema_keys - {("run", "out")})
        # str(x) of a float is its shortest round-tripping repr
        ini = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                      for s, body in sections.items())
        with tempfile.TemporaryDirectory() as d:
            for name, content in (("config.snapshot.json", text), ("exp.ini", ini)):
                path = Path(d) / name
                path.write_text(content)
                again = ExperimentConfig.from_file(path)
                assert again == cfg
                assert json.dumps(again.snapshot(), indent=2, sort_keys=True) + "\n" == text

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_file(tmp_path / "nope.ini")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="swim_backwards")

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_abort_bound_rejected(self, bound):
        # a NaN bound would never abort: err > nan is always false
        with pytest.raises(ValueError, match="abort_error_m"):
            ExperimentConfig(abort_error_m=bound)

    def test_kinds_are_the_runner_table(self):
        # ExperimentConfig accepts every kind RUNNERS has, and the CLI reaches each
        assert [ExperimentConfig(kind=kind).kind for kind in RUNNERS] == list(RUNNERS)
        assert set(CLI_KINDS.values()) == set(RUNNERS)


class TestCli:
    def test_rdf_design_new(self, capsys):
        assert cli_main(["rdf", "--design", "new"]) == 0
        out = capsys.readouterr().out
        assert "ratio_head_over_tail" in out
        assert "10.65" in out

    def test_rdf_from_planform_files(self, tmp_path, capsys):
        head = tmp_path / "head.json"
        tail = tmp_path / "tail.json"
        head.write_text(json.dumps(
            {"kind": "rectangle", "height_mm": 10.0, "l1_mm": 5.0, "l2_mm": 5.0}))
        tail.write_text(json.dumps(
            {"kind": "parabola", "height_mm": 8.0, "root_mm": 12.0}))
        assert cli_main(["rdf", "--head", str(head), "--tail", str(tail)]) == 0
        assert "i_head_mm5" in capsys.readouterr().out

    @pytest.mark.parametrize("case", list(PINNED_RDF_SHA256))
    def test_rdf_stdout_digests(self, tmp_path, capsys, case):
        if case in ("new", "old"):
            argv = ["--design", case]
        else:
            head, tail = tmp_path / "head.json", tmp_path / "tail.json"
            head.write_text(json.dumps(RDF_PLANFORMS[case]))
            tail.write_text(json.dumps(RDF_TAIL))
            argv = ["--head", str(head), "--tail", str(tail)]
        assert cli_main(["rdf", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_RDF_SHA256[case]

    def test_rdf_steep_knots_is_the_rational_integral(self, tmp_path, capsys):
        head, tail = tmp_path / "head.json", tmp_path / "tail.json"
        head.write_text(json.dumps(RDF_PLANFORMS["steep_knots"]))
        tail.write_text(json.dumps(RDF_TAIL))
        i_head = exact_rdf(Planform.from_file(head))
        i_tail = exact_rdf(Planform.from_file(tail))
        assert cli_main(["rdf", "--head", str(head), "--tail", str(tail)]) == 0
        assert capsys.readouterr().out == format_table(dict(
            i_head_mm5=float(i_head), i_tail_mm5=float(i_tail),
            ratio_head_over_tail=float(i_head / i_tail))) + "\n"

    @pytest.mark.parametrize("bad, msg", [
        ({"kind": "rectangle", "height_mm": 0.0, "l1_mm": 0.0, "l2_mm": 10.0},
         "i_head must be finite and positive, got 0"),
        ({"kind": "parabola", "height_mm": 1, "root_mm": 1e-320},
         "root must be finite and positive, with height/root^2 finite, got 9.99989e-321"),
    ], ids=["zero-height", "parabola-curvature-overflows"])
    def test_rdf_bad_head_named_exit_1(self, tmp_path, capsys, bad, msg):
        head, tail = tmp_path / "head.json", tmp_path / "tail.json"
        head.write_text(json.dumps(bad))
        tail.write_text(json.dumps(RDF_TAIL))
        assert cli_main(["rdf", "--head", str(head), "--tail", str(tail)]) == 1
        assert capsys.readouterr() == ("", f"error: {msg}\n")

    def test_rdf_bad_tabulated_knots_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        ok = tmp_path / "ok.json"
        bad.write_text(json.dumps(
            {"kind": "tabulated", "points": [[0, 5], [5, 5], [5, 1], [10, 1]],
             "l1_mm": 0.0, "l2_mm": 10.0}))
        ok.write_text(json.dumps(
            {"kind": "rectangle", "height_mm": 10.0, "l1_mm": 5.0, "l2_mm": 5.0}))
        assert cli_main(["rdf", "--head", str(bad), "--tail", str(ok)]) == 1
        assert "duplicate knot" in capsys.readouterr().err

    def test_rdf_overflowing_sum_exit_1(self, tmp_path, capsys):
        # every panel is finite, their sum is not
        big, rect = tmp_path / "big.json", tmp_path / "rect.json"
        big.write_text(json.dumps(
            {"kind": "tabulated", "points": [[-100 + 2 * i, 5e300] for i in range(101)],
             "l1_mm": 100.0, "l2_mm": 100.0}))
        rect.write_text(json.dumps(RDF_TAIL))
        assert cli_main(["rdf", "--head", str(big), "--tail", str(rect)]) == 1
        assert capsys.readouterr().err == "error: RDF is not finite: inf\n"

    @pytest.mark.parametrize("given", [["--head"], ["--tail"], ["--head", "--tail"]],
                             ids="-".join)
    def test_rdf_design_with_planforms_exit_1(self, tmp_path, capsys, given):
        argv = [a for flag in given for a in (flag, str(tmp_path / "missing.json"))]
        assert cli_main(["rdf", "--design", "new", *argv]) == 1
        assert capsys.readouterr() == ("", "rdf: --design takes no --head or --tail\n")

    def test_rdf_missing_planform_key_exit_1(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"kind": "rectangle", "l1_mm": 1, "l2_mm": 2}))
        assert cli_main(["rdf", "--head", str(p), "--tail", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: missing key 'height_mm' for a rectangle planform\n")

    def test_internal_key_error_exit_2(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            return {}["missing"]

        monkeypatch.setitem(RUNNERS, "speed_sweep", (broken, "sweep", "speed"))
        assert cli_main(["--out", str(tmp_path / "o"), "sweep", "speed"]) == 2
        assert capsys.readouterr().err == "runtime error: 'missing'\n"

    @pytest.mark.parametrize("argv", [
        ["cycle"], ["sweep", "speed"], ["track", "line", "--duration", "2"]], ids="-".join)
    @pytest.mark.parametrize("under", [("run",), ()], ids=["below-a-file", "a-file"])
    def test_out_the_os_refuses_exit_1(self, tmp_path, capsys, monkeypatch, argv, under):
        # the run directory is made before any compute: the cycle never runs
        def no_cycle(*args, **kwargs):
            raise AssertionError("simulated before making the run directory")
        monkeypatch.setattr(harness, "simulate_cycle", no_cycle)
        f = tmp_path / "f"
        f.write_text("keep\n")
        out = f.joinpath(*under)
        with pytest.raises(OSError) as expected:
            out.mkdir(parents=True, exist_ok=True)
        assert cli_main(["--out", str(out), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: output directory: {expected.value}\n"
        assert captured.out == ""
        assert f.read_text() == "keep\n"

    def test_write_failure_mid_run_exit_2(self, tmp_path, capsys, monkeypatch):
        def full(path, *args):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(csvlog, "write_csv", full)
        out = tmp_path / "run"
        assert cli_main(["--out", str(out), "cycle"]) == 2
        assert capsys.readouterr().err == "runtime error: [Errno 28] No space left on device\n"
        assert out.is_dir()

    def test_rdf_missing_args(self, capsys):
        assert cli_main(["rdf"]) == 1

    def test_metrics_values(self, capsys):
        rc = cli_main([
            "metrics", "--f", "2", "--app-mm", "6.34",
            "--v-mmps", "13.6", "--p-mw", "72", "--json",
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["st"] == pytest.approx(0.93, abs=0.01)
        assert summary["sw"] == pytest.approx(2868.0, rel=0.01)
        assert summary["cot"] == pytest.approx(9304.0, rel=0.05)

    def test_sweep_subcommand(self, tmp_path, capsys):
        rc = cli_main(["--out", str(tmp_path / "sw"), "sweep", "excursion"])
        assert rc == 0
        assert (tmp_path / "sw" / "excursion_sweep.csv").exists()

    def test_track_determinism(self, tmp_path, capsys):
        for d in ("t1", "t2"):
            rc = cli_main([
                "--out", str(tmp_path / d), "--seed", "7",
                "track", "line", "--duration", "3", "--noise-sigma", "0.0001",
            ])
            assert rc == 0
        a = (tmp_path / "t1" / "trajectory_1.csv").read_bytes()
        b = (tmp_path / "t2" / "trajectory_1.csv").read_bytes()
        assert a == b

    def test_cycle_subcommand(self, tmp_path, capsys):
        rc = cli_main(["--out", str(tmp_path / "cy"), "cycle"])
        assert rc == 0
        assert (tmp_path / "cy" / "cycle.csv").exists()

    def test_unknown_flag_exit_1(self, capsys):
        assert cli_main(["--bogus-flag", "cycle"]) == 1

    def test_bad_config_exit_1(self, tmp_path, capsys):
        assert cli_main(["--config", str(tmp_path / "missing.ini"), "cycle"]) == 1

    # each makes the config path p, f<suffix>/x<suffix>, unreadable
    @pytest.mark.parametrize("make", [
        lambda p: p.parent.mkdir(),            # no such file
        lambda p: p.mkdir(parents=True),       # a directory
        lambda p: p.parent.touch(),            # f<suffix> is a regular file
    ], ids=["missing", "directory", "not-a-directory"])
    def test_unreadable_ini_reports_the_os_error(self, tmp_path, capsys, make):
        for suffix in (".ini", ".json"):  # an INI file and a config snapshot
            path = tmp_path / suffix[1:] / f"f{suffix}" / f"x{suffix}"
            out = tmp_path / suffix[1:] / "run"
            path.parent.parent.mkdir()
            make(path)
            with pytest.raises(OSError) as expected:
                open(path)
            assert cli_main(["--config", str(path), "--out", str(out), "cycle"]) == 1
            assert capsys.readouterr().err == f"error: {expected.value}\n"
            assert not out.exists()

    @pytest.mark.parametrize("name", ["exp.ini", "config.snapshot.json"])
    def test_config_directory_exit_1(self, tmp_path, capsys, name):
        (tmp_path / name).mkdir()
        out = tmp_path / "run"
        assert cli_main(["--config", str(tmp_path / name), "--out", str(out), "cycle"]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("ini, argv", [
        ("[run]\nduration_s = -5\n", ["track", "line"]),
        ("", ["track", "line", "--repeats", "0"]),
        ("", ["track", "line", "--repeats", "-2"]),
        ("", ["track", "line", "--duration", "nan"]),
        ("", ["track", "line", "--duration", "0"]),
        ("", ["track", "line", "--duration", "inf"]),
        ("", ["track", "line", "--duration", "1e308"]),
        ("[control]\nloop_hz = 1e308\n", ["track", "line"]),
        ("[run]\nrepeats = 0\n", ["cycle"]),
        ("", ["track", "line", "--noise-sigma", "-0.001"]),
        ("", ["track", "line", "--noise-sigma", "nan"]),
        ("[plant]\nnoise_sigma_m = -1e-4\n", ["track", "left"]),
        ("", ["track", "line", "--duration", "1e-4"]),
        ("", ["track", "right", "--duration", "0.01"]),
        ("[fluid]\nrho = nan\n", ["cycle"]),
        ("[cycle]\nfreq_hz = 0\n", ["cycle"]),
        ("[cycle]\nn_steps = 99\n", ["cycle"]),
        ("[cycle]\nn_steps = 149\n", ["cycle"]),
        ("[plant]\nresponse_time_s = -1\n", ["track", "line"]),
        ("[plant]\nresponse_time_s = nan\n", ["track", "line"]),
        ("[control]\nkp = nan\n", ["track", "line"]),
        ("[control]\nloop_hz = nan\n", ["track", "line"]),
        ("", ["--seed", "-1", "track", "line"]),
        ("seed = 1\n", ["cycle"]),
        ("[run]\nseed = 1\nseed = 2\n", ["cycle"]),
        ('{"kind": "tabulated", "points": [[-0.0, 1.0], [2.225073858507203e-309, 0.5]], '
         '"l1_mm": 0.0, "l2_mm": 2.225073858507203e-309}',
         ["rdf", "--head", CONFIG, "--tail", CONFIG]),
        ("[control]\nfreq_hz = 0.5\n", ["track", "left", "--duration", "30"]),
        ("[control]\nuv = 0.04\n", ["track", "right"]),
        ("[control]\nk_p = 9\n", ["track", "line"]),
        ("[contrl]\nkp = 9\n", ["track", "line"]),
        ("[run]\nseed = 1.5\n", ["cycle"]),
        ('{"seed": 1.5}', ["cycle"]),
        ('{"seed": true}', ["cycle"]),
        ('{"control": {"kp": null}}', ["track", "line"]),
        ('{"control": {"k_p": 9}}', ["track", "line"]),
        ('{"run": {"seed": 3}}', ["cycle"]),
        ('{"fluid": {"rho": 1000.0, "c_d": 1.9, "nu": 1e-06}}', ["cycle"]),
        ('{"kind": "parabola", "height_mm": 4, "root_mm": 10, "l1mm": 14}',
         ["rdf", "--head", CONFIG, "--tail", CONFIG]),
        ("", ["metrics", "--f", "nan", "--app-mm", "6.34", "--v-mmps", "13.6", "--p-mw", "72"]),
        ("", ["metrics", "--f", "2", "--app-mm", "6.34", "--v-mmps", "13.6", "--p-mw", "inf"]),
        ("", ["metrics", "--f", "2", "--app-mm", "6.34", "--v-mmps", "13.6", "--p-mw", "72",
              "--nu", "nan"]),
        ("", ["metrics", "--f", "2", "--app-mm", "6.34", "--v-mmps", "13.6", "--p-mw", "-72"]),
        ("", ["metrics", "--f", "2", "--app-mm", "0", "--v-mmps", "13.6", "--p-mw", "72"]),
        ("", ["metrics", "--f", "2", "--app-mm", "6", "--v-mmps", "1e-320", "--p-mw", "72"]),
        ("", ["metrics", "--f", "2", "--app-mm", "6", "--v-mmps", "13.6", "--p-mw", "72",
              "--nu", "1e-320"]),
        ("[1, 2]", ["rdf", "--head", CONFIG, "--tail", CONFIG]),
        ('{"kind": "parabola", "height_mm": null, "root_mm": 10}',
         ["rdf", "--head", CONFIG, "--tail", CONFIG]),
        ('{"kind": "rectangle", "height_mm": 1, "l1_mm": "2", "l2_mm": 1}',
         ["rdf", "--head", CONFIG, "--tail", CONFIG]),
        ('{"kind": "tabulated", "points": [[0, 1], null], "l1_mm": 0, "l2_mm": 1}',
         ["rdf", "--head", CONFIG, "--tail", CONFIG]),
        ('{"kind": "parabola", "height_mm": -3, "root_mm": 10}',
         ["rdf", "--head", CONFIG, "--tail", CONFIG]),
    ], ids=["ini-duration", "repeats-0", "repeats-neg", "duration-nan", "duration-0",
            "duration-inf", "duration-ticks-inf", "ini-loop-hz-ticks-inf", "ini-repeats", "noise-neg", "noise-nan", "ini-noise-neg",
            "duration-under-a-tick", "duration-under-the-stats-window",
            "rho-nan", "cycle-freq-0", "cycle-n-steps-99",
            "cycle-n-steps-149", "response-time-neg", "response-time-nan", "kp-nan",
            "loop-hz-nan", "seed-neg", "no-section-header", "duplicate-option",
            "knots-too-close", "freq-below-turn-calibration", "uv-below-turn-calibration",
            "typo-key", "typo-section", "seed-not-int", "snapshot-seed-not-int",
            "snapshot-seed-bool", "snapshot-null", "snapshot-typo-key", "snapshot-run-object",
            "snapshot-fluid-nu",
            "planform-typo-key", "metrics-f-nan", "metrics-p-inf", "metrics-nu-nan",
            "metrics-p-negative", "metrics-app-0", "metrics-cot-not-finite",
            "metrics-nu-tiny",
            "planform-not-an-object", "planform-null", "planform-string",
            "planform-points-null", "planform-negative-height"])
    def test_invalid_final_config_exit_1(self, tmp_path, capsys, ini, argv):
        # a config that starts with "{" is JSON (a snapshot, or for rdf a planform)
        cfg = tmp_path / ("exp.json" if ini.startswith("{") else "exp.ini")
        cfg.write_text(ini)
        out = tmp_path / "run"
        argv = [str(cfg) if a is CONFIG else a for a in argv]
        assert cli_main(["--config", str(cfg), "--out", str(out), *argv]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""  # no table printed
        assert not out.exists()

    def test_ini_repeats_take_effect(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[run]\nrepeats = 2\nduration_s = 2\n")
        out = tmp_path / "run"
        assert cli_main(["--config", str(ini), "--out", str(out), "track", "line"]) == 0
        assert (out / "trajectory_2.csv").exists()
        assert not (out / "trajectory_3.csv").exists()
        # a given flag still overrides the file
        out1 = tmp_path / "run1"
        assert cli_main(["--config", str(ini), "--out", str(out1), "track", "line",
                         "--repeats", "1"]) == 0
        assert not (out1 / "trajectory_2.csv").exists()

    def test_least_cycle_steps_run(self, tmp_path, capsys):
        # 149 steps per period is an input error (test_invalid_final_config_exit_1);
        # at 150 the default yaw inertia settles
        ini = tmp_path / "exp.ini"
        ini.write_text("[cycle]\nn_steps = 150\n")
        assert cli_main(["--config", str(ini), "--out", str(tmp_path / "c"), "cycle"]) == 0
        assert (tmp_path / "c" / "cycle.csv").exists()

    def test_short_duration_allowed_for_other_kinds(self, tmp_path, capsys):
        # the tick and stats-window checks apply to tracking runs only
        ini = tmp_path / "exp.ini"
        ini.write_text("[run]\nduration_s = 1e-4\n[cycle]\nn_steps = 200\n")
        assert cli_main(["--config", str(ini), "--out", str(tmp_path / "c"), "cycle"]) == 0

    def test_overrides_reach_the_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli_main(["--out", str(out), "--seed", "5", "track", "left",
                       "--duration", "2", "--noise-sigma", "0.0002"])
        assert rc == 0
        snap = json.loads((out / "config.snapshot.json").read_text())
        assert (snap["kind"], snap["seed"], snap["duration_s"]) == ("track_left", 5, 2.0)
        assert snap["plant"]["noise_sigma_m"] == 2e-4


csv_values = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan,
     1e16, 1.5e-10, 123456.78901234])


@settings(max_examples=100, deadline=None)
@given(spec=st.sampled_from([".9g", ".10g"]),
       rows=st.integers(1, 8).flatmap(lambda n: st.lists(
           st.lists(csv_values, min_size=n, max_size=n), max_size=12)))
def test_write_csv_matches_csv_writer(spec, rows):
    # csv.writer rows of f"{v:<spec>}" strings are the reference, byte for byte
    n = len(rows[0]) if rows else 1
    header = ",".join(f"c{k}" for k in range(n))
    with tempfile.TemporaryDirectory() as d:
        got, ref = Path(d) / "got.csv", Path(d) / "ref.csv"
        csvlog.write_csv(got, header, ",".join([f"%{spec}"] * n), map(tuple, rows))
        with open(ref, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header.split(","))
            w.writerows([format(v, spec) for v in row] for row in rows)
        assert got.read_bytes() == ref.read_bytes()


def tree_digests(root: Path) -> dict:
    return {
        str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.rglob("*")) if f.is_file()
    }


@pytest.mark.parametrize("argv", [
    ["sweep", "excursion"],
    ["sweep", "speed"],
    ["sweep", "turn"],
    ["cycle"],
    ["track", "line", "--duration", "3", "--noise-sigma", "0.0001"],
], ids=lambda argv: "-".join(argv[:2]))
def test_rerun_output_directories_identical(tmp_path, capsys, argv):
    # every file a run writes, manifest included, is a function of (config, seed),
    # and the config comes back from the run's snapshot
    for d in ("a", "b"):
        assert cli_main(["--out", str(tmp_path / d), "--seed", "7", *argv]) == 0
    subcommand = argv[:2] if argv[0] in ("sweep", "track") else argv[:1]
    snapshot = str(tmp_path / "a" / "config.snapshot.json")
    assert cli_main(["--config", snapshot, "--out", str(tmp_path / "c"), "--seed", "7",
                     *subcommand]) == 0
    a, b, c = (tree_digests(tmp_path / d) for d in "abc")
    assert "manifest.json" in a
    assert a == b == c


@pytest.mark.parametrize("argv", list(PINNED_SHA256), ids="-".join)
def test_pinned_output_digests(tmp_path, capsys, argv):
    name, digest = PINNED_SHA256[argv]
    assert cli_main(["--out", str(tmp_path), "--seed", "7", *argv]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [["sweep", "excursion"], ["sweep", "speed"],
                                  ["sweep", "turn"], ["cycle"]], ids=lambda argv: argv[-1])
def test_cold_and_warm_calibration_runs_identical(tmp_path, capsys, argv):
    # the first run reads the calibration CSVs and builds the parser, the second
    # reuses both
    harness._calibration.cache_clear()
    harness._build_parser.cache_clear()
    for d in ("cold", "warm"):
        assert cli_main(["--out", str(tmp_path / d), "--seed", "7", *argv]) == 0
    assert tree_digests(tmp_path / "cold") == tree_digests(tmp_path / "warm")
    assert harness._calibration() is harness._calibration()


@pytest.mark.parametrize("argv", list(PINNED_SHA256), ids="-".join)
def test_fresh_process_output_digests(tmp_path, argv):
    # a one-shot process: the calibration and the parser are built once, cold
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "milliswim.harness", "--seed", "7", "--out", str(tmp_path),
         *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    name, digest = PINNED_SHA256[argv]
    assert sha256(tmp_path / name) == digest
