import itertools

import numpy as np
import pytest

from tolerantlearn.classes import HypothesisClass
from tolerantlearn.generators import random_multiclass, random_real, threshold_class


def inverse_cdf_draws(D, rng, n):
    """n draws of the distribution D by the definitional inverse CDF: draw i
    counts D's cumulative weights at or below the i-th of rng.random(n).
    References draw through this, not `D.draw_indices`, whose guide-table
    lookup the tests check against it."""
    return np.searchsorted(D._cum, rng.random(n), side="right")


class StubRng:
    """Stands in for a generator whose uniform draws are `u`: one number
    for every draw, or an array of exactly the draws asked for."""

    def __init__(self, u):
        self.u = u

    def random(self, n=None):
        return self.u if n is None else np.full(n, self.u)


def small_mc_corpus(count: int, seed: int = 2024):
    """Random classes with <= 6 rows, <= 4 points, K <= 4."""
    sizes = list(itertools.product((2, 3, 4, 5, 6), (1, 2, 3, 4), (2, 3, 4)))
    corpus = []
    i = 0
    while len(corpus) < count:
        rows, points, K = sizes[i % len(sizes)]
        corpus.append(random_multiclass(rows, points, K, seed + i))
        i += 1
    return corpus


def small_real_corpus(count: int, seed: int = 4096, grid: float = 0.25):
    sizes = list(itertools.product((2, 3, 4), (1, 2, 3)))
    corpus = []
    i = 0
    while len(corpus) < count:
        rows, points = sizes[i % len(sizes)]
        corpus.append(random_real(rows, points, grid, seed + i))
        i += 1
    return corpus


@pytest.fixture(scope="session")
def mc_corpus():
    return small_mc_corpus(60)


@pytest.fixture(scope="session")
def real_corpus():
    return small_real_corpus(40)


@pytest.fixture(scope="session")
def threshold4():
    return threshold_class(4)


@pytest.fixture(scope="session")
def unbalanced_pairs():
    """200 row pairs: column c_i is 2 on rows 2i and 2i+1, column e_i on row
    2i only.  Every split is unbalanced, so the dimension search descends
    about |H|/2 masks deep."""
    pairs = 200
    table = np.ones((2 * pairs, 2 * pairs), dtype=np.int64)
    for i in range(pairs):
        table[2 * i:2 * i + 2, i] = 2
        table[2 * i, pairs + i] = 2
    return HypothesisClass(2, table)


@pytest.fixture(scope="session")
def point_class():
    """Builder of the class on d points of the all-1 row and, per point, the
    row that labels only that point 2 (d + 1 rows)."""
    def build(d):
        return HypothesisClass(2, np.vstack([np.ones((1, d), dtype=np.int64),
                                             1 + np.eye(d, dtype=np.int64)]))
    return build
