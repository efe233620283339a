"""Host-speed reference for scaling the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes, for every process alike; a 30 s run sees one such phase. A run
therefore interleaves a fixed reference task with its batches and scales each
batch's timings by ``NOMINAL_S / reference time`` around that batch. The
reference is written here and never calls milliswim, so a change to the
program cannot move it.

Its two parts are interpreted loops over numpy scalar calls and small
formatted file writes, which is what milliswim's operations spend their time
on. Of the candidates tried (also plain float arithmetic and allocation of
many small objects), these two tracked the workloads' own slow-downs best:
scaled by them, the times of repeated maneuvers, drag-factor batches and CLI
runs spread least over minutes of a busy 2-vCPU host.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

# Reference time on a quiet host (2-vCPU Intel Xeon at 2.0 GHz, Python 3.11,
# numpy 2.4); scaled timings read as seconds on such a host.
NOMINAL_S = 0.00466

_AXIS = np.linspace(0.0, 1.0, 12)


def _numpy_scalars():
    s = 0.0
    for i in range(3000):
        x = (i % 97) / 97.0
        s += float(np.interp(x, _AXIS, _AXIS)) + int(np.searchsorted(_AXIS, x))
    return s


def _file(path: Path):
    with open(path, "w") as f:
        for i in range(1500):
            f.write(f"{i * 1e-3:.9g},{math.sqrt(i):.9g},{i}\n")
    n = len(path.read_text().splitlines())
    path.unlink()
    return n


def sample(workdir: Path) -> float:
    """Geometric mean of the two parts' times, in seconds."""
    t0 = time.perf_counter()
    _numpy_scalars()
    t1 = time.perf_counter()
    _file(workdir / "hostspeed.csv")
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))
