"""Criterion 6 of tests/test_acceptance.py across seeds: the closed-loop
tracking bands hold for noisy runs (sigma = 0.1 mm) at seeds 1-5, for each
maneuver, each run serially as its own 60 s tracking run."""

import pytest

from milliswim.harness import TRACK_PATHS, ExperimentConfig, run_tracking

NOISE_SIGMA_M = 1e-4
SEEDS = range(1, 6)


def within(x, target, rel):
    return abs(x - target) <= rel * target


# criterion 6's bands on a run's stats, per maneuver
BANDS = {
    "track_rectilinear": lambda s: s["rms_error_m"] <= 2.6e-3 and s["mean_speed_mps"] >= 9.1e-3,
    "track_left": lambda s: (within(s["mean_turn_rate_degps"], 10.8, 0.15)
                             and within(s["turn_radius_m"], 24e-3, 0.15)),
    "track_right": lambda s: (within(abs(s["mean_turn_rate_degps"]), 13.1, 0.15)
                              and within(s["turn_radius_m"], 10e-3, 0.15)),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(TRACK_PATHS))
def test_criterion_6_bands_hold_across_seeds(tmp_path, kind, seed):
    (res,) = run_tracking(ExperimentConfig(
        kind=kind, duration=60.0, seed=seed, noise_sigma=NOISE_SIGMA_M, output_dir=tmp_path))
    assert not res.failed
    assert BANDS[kind](res.stats), res.stats
