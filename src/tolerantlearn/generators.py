"""Deterministic class generators for experiments and test corpora."""

from __future__ import annotations

import numpy as np

from .classes import GRID_RULE, HypothesisClass, RealFunctionClass, is_grid
from .seeding import trial_rng

COMPLETE_POINTS_CAP = 16       # 2^n rows are materialized explicitly
THRESHOLD_POINTS_CAP = 4096
CONSTANTS_CAP = 1024
RANDOM_ROWS_CAP = 4096


def complete_binary(num_points: int) -> HypothesisClass:
    """All 2^n binary labelings of n points (labels 1 and 2)."""
    if not 1 <= num_points <= COMPLETE_POINTS_CAP:
        raise ValueError(f"complete classes are capped at {COMPLETE_POINTS_CAP} points")
    n = num_points
    rows = ((np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1) + 1
    return HypothesisClass(2, rows)


def threshold_class(num_points: int) -> HypothesisClass:
    """The n+1 step functions h_j(x_i) = 2 iff i >= j over n ordered points."""
    if not 1 <= num_points <= THRESHOLD_POINTS_CAP:
        raise ValueError(f"threshold classes are capped at {THRESHOLD_POINTS_CAP} points")
    n = num_points
    rows = np.where(np.arange(n)[None, :] >= np.arange(n + 1)[:, None], 2, 1)
    return HypothesisClass(2, rows)


def constants_class(K: int, num_points: int) -> HypothesisClass:
    """The K constant functions over the given domain."""
    if not (2 <= K <= CONSTANTS_CAP and 1 <= num_points <= CONSTANTS_CAP):
        raise ValueError(f"constants classes are capped at {CONSTANTS_CAP}")
    rows = np.tile(np.arange(1, K + 1)[:, None], (1, num_points))
    return HypothesisClass(K, rows)


def random_multiclass(num_rows: int, num_points: int, K: int,
                      seed: int) -> HypothesisClass:
    """Uniformly random label table (duplicates collapse, so rows may shrink)."""
    if num_rows > RANDOM_ROWS_CAP:
        raise ValueError(f"random classes are capped at {RANDOM_ROWS_CAP} rows")
    rng = trial_rng(seed, "random-mc", num_rows, num_points, K)
    rows = rng.integers(1, K + 1, size=(num_rows, num_points))
    return HypothesisClass(K, rows)


def random_real(num_rows: int, num_points: int, grid_step: float,
                seed: int) -> RealFunctionClass:
    """Random functions with values on the grid -1, -1+step, ..., 1."""
    if num_rows > RANDOM_ROWS_CAP:
        raise ValueError(f"random classes are capped at {RANDOM_ROWS_CAP} rows")
    if not is_grid(grid_step):
        raise ValueError(f"key 'grid' must be {GRID_RULE}, found {grid_step!r}")
    rng = trial_rng(seed, "random-real", num_rows, num_points)
    levels = int(round(2.0 / grid_step))
    vals = rng.integers(0, levels + 1, size=(num_rows, num_points))
    table = -1.0 + vals * grid_step
    return RealFunctionClass(np.clip(table, -1.0, 1.0), grid=grid_step)
