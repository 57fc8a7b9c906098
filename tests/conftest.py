import itertools

import numpy as np
import pytest

from tolerantlearn.classes import HypothesisClass
from tolerantlearn.generators import random_multiclass, random_real, threshold_class


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
    2i only.  Every split is unbalanced, so the dimension recursion goes
    about |H|/2 calls deep."""
    pairs = 200
    table = np.ones((2 * pairs, 2 * pairs), dtype=np.int64)
    for i in range(pairs):
        table[2 * i:2 * i + 2, i] = 2
        table[2 * i, pairs + i] = 2
    return HypothesisClass(2, table)
