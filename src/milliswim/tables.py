"""Gridded calibration lookup with bilinear interpolation, and the one loader
that reads the calibration CSVs into such grids.

Grids are rectangular (frequency x duty cycle), strictly increasing on both
axes, and immutable: a table keeps each grid once, as tuples of Python floats
(provenance: strings), so callers may share one. Queries outside the convex
hull raise CalibrationRangeError; there is no silent extrapolation.
"""

from __future__ import annotations

import bisect
import csv
import math
from collections.abc import Callable

from .errors import CalibrationRangeError


class BilinearTable:
    """Rectangular (freq, dc) -> value lookup with bilinear interpolation.

    Besides the value grid, an optional auxiliary grid (e.g. per-point ESD)
    and a per-point provenance grid can be attached; both are indexed the
    same way as the values: grid[i][j] belongs to (freqs[i], dcs[j]).
    """

    def __init__(self, freqs, dcs, values, aux=None, provenance=None):
        self.freqs = tuple(map(float, freqs))
        self.dcs = tuple(map(float, dcs))
        self.values = tuple(tuple(map(float, row)) for row in values)
        shape = (len(self.freqs), len(self.dcs))
        if [len(row) for row in self.values] != [shape[1]] * shape[0]:
            raise ValueError(f"value grid rows do not match axes {shape}")
        # "not all <" also rejects a NaN on an axis
        if not all(a < b for axis in (self.freqs, self.dcs) for a, b in zip(axis, axis[1:])):
            raise ValueError("grid axes must be strictly increasing")
        if not all(map(math.isfinite, (v for row in self.values for v in row))):
            raise ValueError("grid values must be finite")
        self.aux = None if aux is None else tuple(tuple(map(float, row)) for row in aux)
        if provenance is None:
            provenance = [["digitized"] * len(self.dcs)] * len(self.freqs)
        self.provenance = tuple(tuple(map(str, row)) for row in provenance)

    @classmethod
    def from_csv(
        cls, path, value_col: str, aux_col: str | None = None
    ) -> dict[str, BilinearTable]:
        """Load a calibration CSV into one table per `side` ("both" when the
        CSV has no side column or leaves it blank).

        Columns: freq_hz, dc_pu, value_col, optional aux_col, provenance.
        Every (freq, dc) cell of a side must appear exactly once.
        """
        cells: dict[str, dict] = {}
        with open(path, newline="") as f:
            for rec in csv.DictReader(f):
                side = rec.get("side") or "both"
                key = (float(rec["freq_hz"]), float(rec["dc_pu"]))
                grid = cells.setdefault(side, {})
                if key in grid:
                    raise ValueError(
                        f"{path}: duplicate row for side {side!r} at freq={key[0]:g}, dc={key[1]:g}"
                    )
                aux = float(rec[aux_col]) if aux_col else None
                grid[key] = (float(rec[value_col]), aux, rec["provenance"])
        tables = {}
        for side, grid in cells.items():
            freqs = sorted({f for f, _ in grid})
            dcs = sorted({d for _, d in grid})
            if len(grid) != len(freqs) * len(dcs):
                raise ValueError(f"calibration grid in {path} ({side}) is not rectangular")
            rows = [[grid[f, d] for d in dcs] for f in freqs]
            tables[side] = cls(
                freqs, dcs,
                [[c[0] for c in row] for row in rows],
                aux=[[c[1] for c in row] for row in rows] if aux_col else None,
                provenance=[[c[2] for c in row] for row in rows],
            )
        return tables

    @staticmethod
    def _locate(axis: tuple, x: float, name: str) -> tuple[int, float]:
        if not (axis[0] <= x <= axis[-1]):
            raise CalibrationRangeError(
                f"{name}={x:g} outside calibration range [{axis[0]:g}, {axis[-1]:g}]"
            )
        i = bisect.bisect_right(axis, x) - 1
        if i == len(axis) - 1:  # exactly on the upper edge
            return i - 1, 1.0
        return i, (x - axis[i]) / (axis[i + 1] - axis[i])

    def at(self, freq: float) -> Callable[[float], float]:
        """The table's slice at freq: a dc -> value callable that interpolates
        as __call__ does, with the frequency located once. Raises
        CalibrationRangeError for a freq outside the grid here, and for a dc
        outside it when called."""
        i, u = self._locate(self.freqs, freq, "freq")
        lo, hi = self.values[i], self.values[i + 1]
        dcs, a = self.dcs, 1 - u
        first, last, top = dcs[0], dcs[-1], len(dcs) - 1
        bisect_right = bisect.bisect_right

        def value(dc: float) -> float:
            # _locate(dcs, dc, "dc"), written inline
            if not (first <= dc <= last):
                raise CalibrationRangeError(
                    f"dc={dc:g} outside calibration range [{first:g}, {last:g}]")
            j = bisect_right(dcs, dc) - 1
            if j == top:  # exactly on the upper edge
                j, w = j - 1, 1.0
            else:
                w = (dc - dcs[j]) / (dcs[j + 1] - dcs[j])
            b = 1 - w
            return lo[j] * a * b + hi[j] * u * b + lo[j + 1] * a * w + hi[j + 1] * u * w

        return value

    def __call__(self, freq: float, dc: float) -> float:
        return self.at(freq)(dc)
