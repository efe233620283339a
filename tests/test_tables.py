import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milliswim.actuator import default_excursion_table
from milliswim.errors import CalibrationRangeError
from milliswim.plant import PlantCalibration
from milliswim.tables import BilinearTable


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return path


EXC_HEADER = ["freq_hz", "dc_pu", "app_mm", "esd_mm", "provenance"]
EXC_ROWS = [
    [1, 0.05, 3.0, 0.1, "text"],
    [1, 0.10, 5.0, 0.2, "digitized"],
    [2, 0.05, 6.0, 0.3, "digitized"],
    [2, 0.10, 10.0, 0.4, "text"],
]


class TestFromCsv:
    def test_no_side_column_is_both(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", EXC_HEADER, EXC_ROWS)
        tables = BilinearTable.from_csv(p, "app_mm")
        assert list(tables) == ["both"]
        t = tables["both"]
        assert t(2.0, 0.10) == 10.0
        assert t.aux is None

    def test_aux_and_provenance_follow_the_values(self, tmp_path):
        # rows in scrambled order land on the same grid nodes
        p = write_csv(tmp_path / "e.csv", EXC_HEADER, EXC_ROWS[::-1])
        t = BilinearTable.from_csv(p, "app_mm", "esd_mm")["both"]
        np.testing.assert_array_equal(t.values, [[3.0, 5.0], [6.0, 10.0]])
        np.testing.assert_array_equal(t.aux, [[0.1, 0.2], [0.3, 0.4]])
        assert t.aux[1][0] == 0.3  # (2.0, 0.05)
        assert t.provenance[0][0] == "text"  # (1.0, 0.05)
        assert t.provenance[0][1] == "digitized"  # (1.0, 0.10)

    def test_side_column_splits_tables(self, tmp_path):
        header = ["freq_hz", "dc_pu", "side", "value", "provenance"]
        rows = [[r[0], r[1], side, sign * r[2], r[4]]
                for side, sign in (("left", 1), ("right", -1)) for r in EXC_ROWS]
        tables = BilinearTable.from_csv(write_csv(tmp_path / "t.csv", header, rows), "value")
        assert sorted(tables) == ["left", "right"]
        assert tables["right"](1.5, 0.075) == -tables["left"](1.5, 0.075)

    def test_duplicate_row_rejected(self, tmp_path):
        rows = EXC_ROWS + [[2, 0.10, 99.0, 0.1, "digitized"]]
        p = write_csv(tmp_path / "e.csv", EXC_HEADER, rows)
        with pytest.raises(ValueError, match=r"e\.csv.*duplicate.*freq=2, dc=0\.1"):
            BilinearTable.from_csv(p, "app_mm", "esd_mm")

    def test_duplicate_row_within_one_side_rejected(self, tmp_path):
        header = ["freq_hz", "dc_pu", "side", "value", "provenance"]
        rows = [[r[0], r[1], "left", r[2], r[4]] for r in EXC_ROWS]
        rows.append([1, 0.05, "left", 77.0, "digitized"])
        p = write_csv(tmp_path / "t.csv", header, rows)
        with pytest.raises(ValueError, match=r"duplicate row for side 'left' at freq=1, dc=0\.05"):
            BilinearTable.from_csv(p, "value")

    def test_non_rectangular_grid_rejected(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", EXC_HEADER, EXC_ROWS[:-1])
        with pytest.raises(ValueError, match="not rectangular"):
            BilinearTable.from_csv(p, "app_mm")

    def test_no_extrapolation(self, tmp_path):
        t = BilinearTable.from_csv(write_csv(tmp_path / "e.csv", EXC_HEADER, EXC_ROWS),
                                   "app_mm")["both"]
        with pytest.raises(CalibrationRangeError):
            t(2.5, 0.05)


# ------------------------------------------------ lookup vs the numpy formula


def searchsorted_lookup(t: BilinearTable, freq: float, dc: float) -> float:
    """The lookup as an np.searchsorted formula on the numpy axes: the
    reference __call__ must match bit for bit."""
    def locate(axis, x):
        assert axis[0] <= x <= axis[-1]
        i = int(np.searchsorted(axis, x, side="right")) - 1
        if i == axis.size - 1:
            return i - 1, 1.0
        return i, (x - axis[i]) / (axis[i + 1] - axis[i])

    i, u = locate(np.asarray(t.freqs), freq)
    j, w = locate(np.asarray(t.dcs), dc)
    v = t.values
    return float(
        v[i][j] * (1 - u) * (1 - w)
        + v[i + 1][j] * u * (1 - w)
        + v[i][j + 1] * (1 - u) * w
        + v[i + 1][j + 1] * u * w
    )


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def table_and_point(draw):
    axes = [
        sorted(draw(st.sets(st.floats(0.0, 10.0, allow_nan=False), min_size=2, max_size=6)))
        for _ in range(2)
    ]
    values = [[draw(finite) for _ in axes[1]] for _ in axes[0]]
    t = BilinearTable(axes[0], axes[1], values)
    where = draw(st.sampled_from(["inside", "node", "upper freq", "upper dc", "corner"]))
    if where == "node":
        f, d = draw(st.sampled_from(axes[0])), draw(st.sampled_from(axes[1]))
    else:
        f = draw(st.floats(axes[0][0], axes[0][-1]))
        d = draw(st.floats(axes[1][0], axes[1][-1]))
        if where in ("upper freq", "corner"):
            f = axes[0][-1]
        if where in ("upper dc", "corner"):
            d = axes[1][-1]
    return t, f, d


@settings(max_examples=300, deadline=None)
@given(table_and_point())
def test_lookup_matches_searchsorted_formula(case):
    t, f, d = case
    assert t(f, d).hex() == searchsorted_lookup(t, f, d).hex()
    assert t.at(f)(d).hex() == t(f, d).hex()


CAL = PlantCalibration.default()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_calibration_lookups_match_searchsorted_formula(data):
    t = data.draw(st.sampled_from([CAL.speed_map, CAL.turn_map_left, CAL.turn_map_right]))
    f = data.draw(st.floats(float(t.freqs[0]), float(t.freqs[-1])) | st.sampled_from(list(t.freqs)))
    d = data.draw(st.floats(float(t.dcs[0]), float(t.dcs[-1])) | st.sampled_from(list(t.dcs)))
    assert t(float(f), float(d)).hex() == searchsorted_lookup(t, float(f), float(d)).hex()
    assert t.at(float(f))(float(d)).hex() == t(float(f), float(d)).hex()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_slice_matches_the_2d_lookup(data):
    # one bound slice answers every dc of its row, upper dc edge included, on the
    # shipped grids (the right-turn grid is nonpositive) and on drawn ones
    t, f, _ = data.draw(table_and_point())
    t = data.draw(st.sampled_from([t, CAL.speed_map, CAL.turn_map_left, CAL.turn_map_right]))
    f = data.draw(st.floats(t.freqs[0], t.freqs[-1]) | st.sampled_from(t.freqs[-1:] + t.freqs))
    value = t.at(f)
    dcs = data.draw(st.lists(st.floats(t.dcs[0], t.dcs[-1]) | st.sampled_from(t.dcs), max_size=8))
    for d in dcs + [t.dcs[-1], t.dcs[0]]:
        assert value(d).hex() == searchsorted_lookup(t, f, d).hex()


def test_slice_checks_freq_when_bound_and_dc_when_called():
    t = CAL.turn_map_right
    for f in (0.5, math.nextafter(5.0, 6.0), math.nan):
        with pytest.raises(CalibrationRangeError, match="^freq="):
            t.at(f)
    value = t.at(5.0)
    for d in (0.04, 0.23, math.nan):
        with pytest.raises(CalibrationRangeError, match="^dc="):
            value(d)


# ------------------------------------------------------------ immutability


def test_calibration_grids_are_read_only():
    # the harness shares one calibration between the runs of a process; its grids,
    # and their rows, are tuples
    speed, exc = PlantCalibration.default().speed_map, default_excursion_table()
    for grid in (speed.freqs, speed.dcs, speed.values, speed.provenance, exc.aux,
                 speed.values[0], speed.provenance[0], exc.aux[0]):
        with pytest.raises(TypeError):
            grid[0] = 0.0


def test_table_keeps_its_own_copies():
    freqs, dcs, values = np.array([1.0, 2.0]), np.array([0.1, 0.2]), np.ones((2, 2))
    t = BilinearTable(freqs, dcs, values, aux=values)
    values[0, 0] = 5.0
    freqs[0] = 0.0
    assert freqs.flags.writeable and values.flags.writeable  # the caller's arrays
    assert t(1.0, 0.1) == t.values[0][0] == t.aux[0][0] == 1.0
    with pytest.raises(CalibrationRangeError):
        t(0.5, 0.1)


@pytest.mark.parametrize("axis", [[1.0, math.nan, 3.0], [math.nan, 1.0]])
def test_nan_axis_rejected(axis):
    with pytest.raises(ValueError, match="strictly increasing"):
        BilinearTable(axis, [0.1, 0.2], np.ones((len(axis), 2)))
