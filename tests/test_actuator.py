import csv
import math
from importlib import resources
from types import SimpleNamespace

import pytest

from milliswim import actuator
from milliswim.actuator import (
    ExcitationCommand,
    Mode,
    average_power,
    default_excursion_table,
)
from milliswim.errors import CalibrationRangeError
from milliswim.plant import PlantCalibration, rates
from milliswim.tables import BilinearTable


class TestWaveform:
    """The excitation command that sets the PWM waveform."""

    def test_validation(self):
        with pytest.raises(ValueError):
            ExcitationCommand(freq=0.0, dc_left=0.1, dc_right=0.1)
        with pytest.raises(ValueError):
            ExcitationCommand(freq=1.0, dc_left=1.2, dc_right=0.1)

    @pytest.mark.parametrize("freq", [math.nan, math.inf])
    def test_non_finite_freq_rejected(self, freq):
        with pytest.raises(ValueError, match="freq must be finite and positive"):
            ExcitationCommand(freq=freq, dc_left=0.1, dc_right=0.1)


class TestClassifyMode:
    @pytest.mark.parametrize(
        "dcl,dcr,mode",
        [
            (0.10, 0.10, Mode.BIMORPH),
            (0.12, 0.00, Mode.UNIMORPH_LEFT),
            (0.00, 0.15, Mode.UNIMORPH_RIGHT),
            (0.00, 0.00, Mode.IDLE),
            (0.08, 0.14, Mode.MIXED),
        ],
    )
    def test_modes(self, dcl, dcr, mode):
        # plant.rates holds the one drive-mode rule
        assert rates(PlantCalibration.default().at(2.0), dcl, dcr)[0] is mode

    def test_module_names_are_the_members(self):
        assert [getattr(actuator, m.name) for m in Mode] == list(Mode)


class TestAveragePower:
    def test_bimorph_matches_linear_fit(self):
        cmd = ExcitationCommand(freq=5.0, dc_left=0.10, dc_right=0.10)
        assert average_power(cmd) == pytest.approx(0.072)

    def test_idle(self):
        assert average_power(ExcitationCommand(freq=1.0, dc_left=0.0, dc_right=0.0)) == 0.0

    def test_unimorph_half(self):
        cmd = ExcitationCommand(freq=2.0, dc_left=0.10, dc_right=0.0)
        assert average_power(cmd) == pytest.approx(0.036)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_linearity(self, alpha):
        base = ExcitationCommand(freq=2.0, dc_left=0.2, dc_right=0.1)
        scaled = ExcitationCommand(freq=2.0, dc_left=0.2 * alpha, dc_right=0.1 * alpha)
        assert average_power(scaled) == pytest.approx(alpha * average_power(base))

    def test_frequency_independent(self):
        a = ExcitationCommand(freq=1.0, dc_left=0.1, dc_right=0.1)
        b = ExcitationCommand(freq=5.0, dc_left=0.1, dc_right=0.1)
        assert average_power(a) == average_power(b)


class TestExcursionTable:
    def test_measured_maxima(self):
        t = default_excursion_table()
        assert t(1.0, 0.06) == 7.80
        assert t(2.0, 0.10) == 6.34
        assert t(5.0, 0.10) == 3.75

    def test_every_node_exact(self):
        # the sweeps print values[i][j] at the nodes: a lookup there gives the
        # same float, bit for bit (repr tells -0.0 from 0.0)
        cal = PlantCalibration.default()
        for t in (default_excursion_table(), cal.speed_map, cal.turn_map_left, cal.turn_map_right):
            for i, f in enumerate(t.freqs):
                at_f = t.at(f)
                for j, d in enumerate(t.dcs):
                    assert repr(t(f, d)) == repr(at_f(d)) == repr(t.values[i][j])

    def test_bilinear_midpoint(self):
        t = default_excursion_table()
        mid = t(1.5, 0.095)
        corners = [t(f, d) for f in (1.0, 2.0) for d in (0.09, 0.10)]
        assert mid == pytest.approx(sum(corners) / 4.0)

    def test_no_silent_extrapolation(self):
        t = default_excursion_table()
        with pytest.raises(CalibrationRangeError):
            t(6.0, 0.05)
        with pytest.raises(CalibrationRangeError):
            t(2.0, 0.005)

    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "exc.csv"
        with open(p, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["freq_hz", "dc_pu", "app_mm", "esd_mm", "provenance"])
            for fr in (1.0, 2.0):
                for dc, app in ((0.05, 3.0), (0.10, 5.0)):
                    w.writerow([fr, dc, app * fr, 0.1, "text"])
        t = BilinearTable.from_csv(p, "app_mm", "esd_mm")["both"]
        assert t(2.0, 0.10) == 10.0
        assert t.provenance[0][0] == "text"

    def test_negative_excursion_rejected(self, tmp_path, monkeypatch):
        with open(tmp_path / "excursion.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["freq_hz", "dc_pu", "app_mm", "esd_mm", "provenance"])
            for fr in (1.0, 2.0):
                for dc, app in ((0.05, 3.0), (0.10, -0.5)):
                    w.writerow([fr, dc, app, 0.1, "text"])
        monkeypatch.setattr(
            actuator, "resources",
            SimpleNamespace(files=lambda package: tmp_path, as_file=resources.as_file),
        )
        with pytest.raises(ValueError, match="nonnegative"):
            default_excursion_table()

