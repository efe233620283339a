import csv

import numpy as np
import pytest

from milliswim.errors import CalibrationRangeError
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
        assert t.aux[t.node(2.0, 0.05)] == 0.3
        assert t.node_provenance(1.0, 0.05) == "text"
        assert t.node_provenance(1.0, 0.10) == "digitized"

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
        with pytest.raises(CalibrationRangeError):
            t.node(1.5, 0.05)
