"""Deterministic class generators for experiments and test corpora."""

from __future__ import annotations

import numpy as np

from .classes import GRID_RULE, HypothesisClass, RealFunctionClass, is_grid
from .seeding import trial_rng

COMPLETE_POINTS_CAP = 16       # 2^n rows are materialized explicitly
THRESHOLD_POINTS_CAP = 4096
CONSTANTS_CAP = 1024
RANDOM_ROWS_CAP = 4096
RANDOM_POINTS_CAP = 4096


def _check_count(family: str, noun: str, value: int, floor: int, cap: int):
    """Refuse a count outside floor..cap, naming the floor, then the cap."""
    if not floor <= value <= cap:
        raise ValueError(f"{family} classes need {noun} >= {floor}, capped "
                         f"at {cap}, got {value}")


def complete_binary(num_points: int) -> HypothesisClass:
    """All 2^n binary labelings of n points (labels 1 and 2)."""
    _check_count("complete", "points", num_points, 1, COMPLETE_POINTS_CAP)
    n = num_points
    rows = ((np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1) + 1
    return HypothesisClass(2, rows)


def threshold_class(num_points: int) -> HypothesisClass:
    """The n+1 step functions h_j(x_i) = 2 iff i >= j over n ordered points."""
    _check_count("threshold", "points", num_points, 1, THRESHOLD_POINTS_CAP)
    n = num_points
    rows = np.where(np.arange(n)[None, :] >= np.arange(n + 1)[:, None], 2, 1)
    return HypothesisClass(2, rows)


def constants_class(K: int, num_points: int) -> HypothesisClass:
    """The K constant functions over the given domain."""
    _check_count("constants", "labels", K, 2, CONSTANTS_CAP)
    _check_count("constants", "points", num_points, 1, CONSTANTS_CAP)
    rows = np.tile(np.arange(1, K + 1)[:, None], (1, num_points))
    return HypothesisClass(K, rows)


def _check_random_shape(num_rows: int, num_points: int) -> None:
    if num_rows > RANDOM_ROWS_CAP:
        raise ValueError(f"random classes are capped at {RANDOM_ROWS_CAP} rows")
    if num_points > RANDOM_POINTS_CAP:
        raise ValueError(f"random classes are capped at {RANDOM_POINTS_CAP} "
                         f"points")
    if num_rows < 1 or num_points < 1:
        raise ValueError(f"random classes need at least one function and one "
                         f"point, got {num_rows} and {num_points}")


def random_multiclass(num_rows: int, num_points: int, K: int,
                      seed: int) -> HypothesisClass:
    """Uniformly random label table (duplicates collapse, so rows may shrink)."""
    _check_random_shape(num_rows, num_points)
    if not 1 <= K < 2 ** 63:
        raise ValueError(f"random classes need 1 <= K < 2**63 labels, got {K}")
    rng = trial_rng(seed, "random-mc", num_rows, num_points, K)
    rows = rng.integers(1, K + 1, size=(num_rows, num_points))
    return HypothesisClass(K, rows)


def random_real(num_rows: int, num_points: int, grid_step: float,
                seed: int) -> RealFunctionClass:
    """Random functions with values on the grid -1, -1+step, ..., 1."""
    _check_random_shape(num_rows, num_points)
    if not is_grid(grid_step):
        raise ValueError(f"key 'grid' must be {GRID_RULE}, found {grid_step!r}")
    rng = trial_rng(seed, "random-real", num_rows, num_points)
    levels = int(round(2.0 / grid_step))
    vals = rng.integers(0, levels + 1, size=(num_rows, num_points))
    table = -1.0 + vals * grid_step
    return RealFunctionClass(np.clip(table, -1.0, 1.0), grid=grid_step)
