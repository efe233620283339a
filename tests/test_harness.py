import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from milliswim.harness import (
    CLI_KINDS,
    RUNNERS,
    ExperimentConfig,
    cli_main,
    run_excursion_sweep,
    run_speed_sweep,
    run_tracking,
    run_turn_sweep,
)

# sha256 of the sweep and cycle CSVs of `milliswim --seed 7 sweep ...|cycle`.
PINNED_SHA256 = {
    ("sweep", "excursion"): ("excursion_sweep.csv",
                             "9d04967468ff9246435a6c7e040066803206d32053456dbc4ce644e00fd50dc9"),
    ("sweep", "speed"): ("speed_sweep.csv",
                         "5dc6f5d5f63e2639fbd95854e9259e8b4a66cd721db5c430f22e1e5c6e8c1b0c"),
    ("sweep", "turn"): ("turn_sweep.csv",
                        "4bf11769c23fce8ada128a277a6236b18dad01067d2dc374b60d952bb17a3cba"),
    ("cycle",): ("cycle.csv",
                 "0380e24a7b1639fb99f11acf75e57618765da84c1f8cfbf5015b1b91a3d14bd2"),
}


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
            if v > 0:
                assert float(r["st"]) == pytest.approx(
                    strouhal(f, float(r["app_mm"]), v), rel=1e-6
                )
            else:
                assert r["st"] == "n/a"

    def test_byte_identical_rerun(self, tmp_path):
        a = run_excursion_sweep(cfg_for(tmp_path / "a", "excursion_sweep"))
        b = run_excursion_sweep(cfg_for(tmp_path / "b", "excursion_sweep"))
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written(self, tmp_path):
        out = run_excursion_sweep(cfg_for(tmp_path, "excursion_sweep")).parent
        manifest = json.loads((out / "manifest.json").read_text())
        assert "excursion_sweep.csv" in manifest["files"]
        assert (out / "config.snapshot.json").exists()


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_file(tmp_path / "nope.ini")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="swim_backwards")

    def test_kinds_are_the_runner_table(self):
        assert ExperimentConfig.KINDS == tuple(RUNNERS)
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

    @pytest.mark.parametrize("ini, argv", [
        ("[run]\nduration_s = -5\n", ["track", "line"]),
        ("", ["track", "line", "--repeats", "0"]),
        ("", ["track", "line", "--repeats", "-2"]),
        ("", ["track", "line", "--duration", "nan"]),
        ("", ["track", "line", "--duration", "0"]),
        ("", ["track", "line", "--duration", "inf"]),
        ("[run]\nrepeats = 0\n", ["cycle"]),
    ], ids=["ini-duration", "repeats-0", "repeats-neg", "duration-nan", "duration-0",
            "duration-inf", "ini-repeats"])
    def test_invalid_final_config_exit_1(self, tmp_path, capsys, ini, argv):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(ini)
        out = tmp_path / "run"
        assert cli_main(["--config", str(cfg), "--out", str(out), *argv]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_overrides_reach_the_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli_main(["--out", str(out), "--seed", "5", "track", "left",
                       "--duration", "2", "--noise-sigma", "0.0002"])
        assert rc == 0
        snap = json.loads((out / "config.snapshot.json").read_text())
        assert (snap["kind"], snap["seed"], snap["duration_s"]) == ("track_left", 5, 2.0)
        assert snap["plant"]["noise_sigma_m"] == 2e-4


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
    # every file a run writes, manifest included, is a function of (config, seed)
    for d in ("a", "b"):
        assert cli_main(["--out", str(tmp_path / d), "--seed", "7", *argv]) == 0
    a, b = tree_digests(tmp_path / "a"), tree_digests(tmp_path / "b")
    assert "manifest.json" in a
    assert a == b


@pytest.mark.parametrize("argv", list(PINNED_SHA256), ids="-".join)
def test_pinned_output_digests(tmp_path, capsys, argv):
    name, digest = PINNED_SHA256[argv]
    assert cli_main(["--out", str(tmp_path), "--seed", "7", *argv]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
