import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from .conftest import inverse_cdf_draws
from tolerantlearn import privacy, stability
from tolerantlearn.classes import (FiniteDistribution, HypothesisClass,
                                   TolerantZeroOne, evaluate_loss)
from tolerantlearn.dimensions import ldim_value
from tolerantlearn.generators import (complete_binary, constants_class,
                                      random_multiclass, threshold_class)
from tolerantlearn.online import soa_final_predictor, soa_run
from tolerantlearn.privacy import PrivacyParams, private_learn_mc
from tolerantlearn.seeding import as_generator, trial_rng
from tolerantlearn.stability import (CLOSURE_LIMIT, LABEL_BLOCK, DataSource,
                                     GRunResult, Support, block_labels,
                                     estimate_stability, g_parameters, run_g,
                                     sample_dk_mc)


@pytest.fixture(scope="module")
def threshold_setup():
    H = threshold_class(4)
    D = FiniteDistribution.uniform(H, 2)
    return H, D


# --- the tournament sampler -----------------------------------------------------

def test_k_zero_empty_sample():
    H = constants_class(2, 2)
    D = FiniteDistribution.uniform(H, 0)
    s = sample(0, D, H, 3, 100, *streams(1))
    assert not s.failed
    assert s.xs.tolist() == s.ys.tolist() == []
    assert s.draw_count == 0
    # every empty sample shares one read-only array
    assert s.xs is s.ys is sample(0, D, H, 1, 1, *streams(2)).xs
    assert not s.xs.flags.writeable


def test_singleton_class_always_fails():
    H = HypothesisClass(2, [[1, 2]])
    D = FiniteDistribution.uniform(H, 0)
    s = sample(1, D, H, 2, 60, *streams(5))
    assert s.failed
    assert s.draw_count > 60


def test_identified_classes_fail_at_any_k():
    # a class whose target is pinned down by one example never produces a
    # disagreement, so the rejection loop runs into the cap: the sampler can
    # only Fail for k >= 1 (constants are the canonical case)
    H = HypothesisClass(2, [[1], [2]])
    D = FiniteDistribution.uniform(H, 0)
    for seed in range(10):
        s = sample(1, D, H, 2, 100, *streams(seed))
        assert s.failed


def test_threshold_sample_structure(threshold_setup):
    H, D = threshold_setup
    n = 3
    found = 0
    for seed in range(40):
        s = sample(1, D, H, n, 500, *streams(seed))
        if s.failed:
            continue
        found += 1
        assert len(s.xs) == len(s.ys) == n + 1
        assert s.tournament_positions == [n]
        assert s.draw_count <= 500
    assert found > 0


def test_soa_errs_at_every_tournament_position(threshold_setup):
    H, D = threshold_setup
    for k in (1, 2):
        checked = 0
        for seed in range(60):
            s = sample(k, D, H, 3, 2000, *streams(seed))
            if s.failed:
                continue
            t = soa_run(H, 0, s.xs, s.ys)
            assert len(s.tournament_positions) == k
            for pos in s.tournament_positions:
                assert t.rounds[pos].mistake
            checked += 1
        assert checked >= 10


def test_expected_draws_bound(threshold_setup):
    H, D = threshold_setup
    n = 3
    for k in (0, 1, 2):
        draws = []
        seed = 0
        while len(draws) < 120 and seed < 2000:
            s = sample(k, D, H, n, 4000, *streams(seed))
            if not s.failed:
                draws.append(s.draw_count)
            seed += 1
        assert len(draws) >= 120
        assert np.mean(draws) <= 4 ** (k + 1) * n


def test_sampler_deterministic(threshold_setup):
    H, D = threshold_setup
    a = sample(2, D, H, 3, 2000, *streams(17))
    b = sample(2, D, H, 3, 2000, *streams(17))
    assert a.xs.tolist() == b.xs.tolist() and a.ys.tolist() == b.ys.tolist()
    assert a.draw_count == b.draw_count
    assert a.tournament_positions == b.tournament_positions


def test_sampler_validates_arguments(threshold_setup):
    H, D = threshold_setup
    with pytest.raises(ValueError):
        sample(-1, D, H, 3, 100, *streams(0))
    with pytest.raises(ValueError):
        sample(1, D, H, 0, 100, *streams(0))


@pytest.mark.parametrize("D", [
    FiniteDistribution(np.full(2, 0.5), np.array([7, 1])),        # label > K
    FiniteDistribution(np.full(2, 0.5), np.array([1.5, 1])),      # not a label
    FiniteDistribution(np.full(3, 1 / 3), np.array([1, 2, 1])),   # 3 points
], ids=["label-7", "fractional", "three-points"])
def test_sampler_rejects_distribution_off_the_class(D):
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    for k in (0, 1, 2):
        with pytest.raises(ValueError):
            sample(k, D, H, 2, 100, *streams(k))
    with pytest.raises(ValueError):
        run_g_drawn(H, D, 0.3, *streams(0))
    with pytest.raises(ValueError):
        estimate_stability(H, D, 0.3, 3, 0)
    with pytest.raises(ValueError):
        private_learn_mc(H, D, PrivacyParams(0.5, 0.01), 0.3, 0.2, 0)


def test_distribution_off_the_class_raises_on_every_call():
    # every support built from a bad distribution checks it again
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    bad = FiniteDistribution(np.full(2, 0.5), np.array([7, 1]))
    for _ in range(2):
        with pytest.raises(ValueError, match="integers in 1..2"):
            sample(1, bad, H, 2, 100, *streams(0))
        with pytest.raises(ValueError, match="integers in 1..2"):
            run_g_drawn(H, bad, 0.3, *streams(0))


def test_one_support_per_run(monkeypatch):
    # a run checks its (H, D) once and every trial's or batch's data source
    # reads that one support
    built, read = [], []
    support_init, source_init = Support.__init__, DataSource.__init__

    def counting_support(self, H, D):
        built.append(self)
        support_init(self, H, D)

    def recording_source(self, support, n, seed):
        read.append(support)
        source_init(self, support, n, seed)

    monkeypatch.setattr(Support, "__init__", counting_support)
    monkeypatch.setattr(DataSource, "__init__", recording_source)
    H, H3 = threshold_class(4), constants_class(3, 3)
    for run in (lambda: estimate_stability(
                    H, FiniteDistribution.uniform(H, 2), 0.3, 30, seed=1),
                lambda: private_learn_mc(
                    H3, FiniteDistribution.uniform(H3, 0),
                    PrivacyParams(0.5, 0.01), 0.2, 0.2, 11)):
        built.clear()
        read.clear()
        run()
        assert len(built) == 1
        assert len(read) > 1 and all(s is built[0] for s in read)


# --- the sampler against its definition -----------------------------------------

class _CapTripped(Exception):
    pass


def streams(seed):
    """A data generator and a coin generator, both from `seed`."""
    return trial_rng(seed, "data"), trial_rng(seed, "coins")


def source(H, D, n, data):
    """The data source of (H, D) in n-draw windows, read from `data`."""
    return DataSource(Support(H, D), n, data)


def one_at_a_time(coins, K):
    """Tournament labels from `coins` (a generator or a seed), one
    `integers(1, K + 1)` call each, so the coins' state after a sample is
    that of the labels it drew."""
    coins = as_generator(coins)
    return iter(lambda: int(coins.integers(1, K + 1)), None)


def sample(k, D, H, n, N, data, coins):
    """`sample_dk_mc` on a data source of (H, D, n) read from `data`, with
    labels drawn from `coins` one at a time."""
    return sample_dk_mc(k, source(H, D, n, data), N, one_at_a_time(coins, H.K))


def pinned_parameters(H, alpha, d=None):
    """`g_parameters` with d pinned: n = ceil(d ln K / alpha) and the cap
    N = (4K)^(d+1) n by the formula.  Without d, the library's own."""
    if d is None:
        return g_parameters(H, alpha)
    n = math.ceil(d * math.log(H.K) / alpha)
    return d, n, (4 * H.K) ** (d + 1) * n


def run_g_drawn(H, D, alpha, data, coins, d=None):
    """`run_g` at n and the cap for d, by default Ldim_0, with k drawn
    from the coins first, as `stable_tables` draws it."""
    d, n, cap = pinned_parameters(H, alpha, d)
    coins = as_generator(coins)
    k = int(coins.integers(0, d + 1))
    return run_g(source(H, D, n, data), cap, one_at_a_time(coins, H.K), k)


def reference_sample(k, D, H, n, N, data, coins):
    """The tournament sampler as defined: one round at a time, SOA replayed.

    A request of m draws first counts them; if the count then exceeds N
    the cap trips with that count.  Otherwise it reads exactly m draws
    from the data generator by `inverse_cdf_draws`.  The coin generator
    draws the tournament labels.  Every round folds SOA_0 over the whole
    labeled prefix of each side.  Returns (xs, ys, positions, failed,
    draw_count) in `sample_dk_mc`'s conventions, with lists for arrays.
    """
    data, coins = as_generator(data), as_generator(coins)
    if k == 0:
        return [], [], [], False, 0
    used = 0

    def take(m):
        nonlocal used
        used += m
        if used > N:
            raise _CapTripped
        t = inverse_cdf_draws(D, data, m).tolist()
        return t, [int(D.target[x]) for x in t]

    def rec(k):
        if k == 0:
            return [], [], []
        while True:
            xs0, ys0, p0 = rec(k - 1)
            t0, l0 = take(n)
            xs0, ys0 = xs0 + t0, ys0 + l0
            xs1, ys1, p1 = rec(k - 1)
            t1, l1 = take(n)
            xs1, ys1 = xs1 + t1, ys1 + l1
            f0 = soa_final_predictor(H, xs0, ys0)
            f1 = soa_final_predictor(H, xs1, ys1)
            if f0 == f1:
                continue
            x = next(i for i in range(H.domain_size) if f0[i] != f1[i])
            y = int(coins.integers(1, H.K + 1))
            xs, ys, positions = ((xs0, ys0, p0) if f0[x] != y
                                 else (xs1, ys1, p1))
            return xs + [x], ys + [y], positions + [len(xs)]

    try:
        xs, ys, positions = rec(k)
    except _CapTripped:
        return None, None, [], True, used
    return xs, ys, positions, False, used


def assert_matches_reference(k, D, H, n, N, seed):
    s = sample(k, D, H, n, N, *streams(seed))
    got = (None if s.failed else s.xs.tolist(),
           None if s.failed else s.ys.tolist(),
           s.tournament_positions, s.failed, s.draw_count)
    assert got == reference_sample(k, D, H, n, N, *streams(seed)), (
        k, n, N, seed)
    return s


def random_case(rs, realizable, rows=(1, 9), dom=(1, 7)):
    K = int(rs.integers(2, 5))
    rows = int(rs.integers(*rows))
    dom = int(rs.integers(*dom))
    table = rs.integers(1, K + 1, size=(rows, dom))
    H = HypothesisClass(K, table)
    if realizable:
        target = table[int(rs.integers(0, rows))]
    else:
        target = rs.integers(1, K + 1, size=dom)
    w = rs.random(dom) + 0.05
    return H, FiniteDistribution(w / w.sum(), target)


@pytest.mark.parametrize("realizable", [True, False])
def test_sampler_matches_reference_on_random_classes(realizable):
    rs = np.random.default_rng(20 + realizable)
    outcomes = set()
    for _ in range(300):
        H, D = random_case(rs, realizable)
        k = int(rs.integers(0, 4))
        n = int(rs.choice([1, 2, 3, 7]))
        N = int(rs.choice([5, 50, 400, 3000]))
        s = assert_matches_reference(k, D, H, n, N, int(rs.integers(0, 2**31)))
        outcomes.add((k, s.failed))
    assert outcomes == {(k, f) for k in range(4) for f in (False, True)} - {(0, True)}


@pytest.mark.parametrize("realizable", [True, False])
def test_sampler_matches_reference_past_64_rows(realizable):
    # row masks are Python ints, so a class may have any number of rows
    rs = np.random.default_rng(40 + realizable)
    outcomes = set()
    for _ in range(80):
        H, D = random_case(rs, realizable, rows=(65, 201), dom=(7, 11))
        k = int(rs.integers(1, 4))
        n = int(rs.choice([1, 2, 3, 7]))
        N = int(rs.choice([5, 50, 400, 3000]))
        s = assert_matches_reference(k, D, H, n, N, int(rs.integers(0, 2**31)))
        if H.num_rows > 64:   # rows left after dedup
            outcomes.add((k, s.failed))
    assert outcomes == {(k, f) for k in (1, 2, 3) for f in (False, True)}


def test_sampler_matches_reference_on_non_realizable_break():
    # target (1, 2, 1) is no row of the class: SOA freezes the predictor
    # where the prefix stops being realizable and patches after it
    H = threshold_class(3)
    D = FiniteDistribution(np.full(3, 1 / 3), np.array([1, 2, 1]))
    assert not D.realizable_by(H)
    successes = 0
    for k in (1, 2, 3):
        for seed in range(40):
            s = assert_matches_reference(k, D, H, 3, 2000, seed)
            successes += not s.failed
    assert successes > 0


def test_sampler_matches_reference_across_chunks():
    # n = 300: the data source's blocks grow 600, 1200, 2400 and 3900
    # draws, the last 13 windows, so the 14th k = 1 round reads its halves
    # from two blocks; the rare points 1 and 2 keep some of the k = 1
    # rounds undecided
    H = threshold_class(4)
    w = np.array([0.497, 0.003, 0.002, 0.498])
    outcomes = set()
    for target in (H.table[2], np.array([2, 1, 2, 1])):
        D = FiniteDistribution(w, target)
        for k in (1, 2):
            for seed in range(12):
                s = assert_matches_reference(k, D, H, 300, 30000, seed)
                outcomes.add((k, s.failed))
    assert (1, False) in outcomes and (2, False) in outcomes


# --- the support's floor: the AND of its points' masks --------------------------

def consistent_rows(H, target, points):
    """Rows of H that agree with `target` on every point in `points`."""
    points = np.asarray(points, dtype=np.int64)
    return tuple(np.flatnonzero((H.table[:, points] == target[points]).all(axis=1)))


@pytest.mark.parametrize("realizable", [True, False])
def test_sampler_matches_reference_with_zero_weight_points(realizable):
    # the floor is the AND over the support only; a zero-weight point that
    # would shrink it is never drawn
    rs = np.random.default_rng(60 + realizable)
    outcomes, shrinking = set(), 0
    for _ in range(200):
        H, D = random_case(rs, realizable, dom=(2, 7))
        w = D.weights * (rs.random(H.domain_size) < 0.6)
        if not w.any():
            w[int(rs.integers(0, H.domain_size))] = 1.0
        D = FiniteDistribution(w / w.sum(), D.target)
        support = np.flatnonzero(w)
        shrinking += (consistent_rows(H, D.target, support)
                      != consistent_rows(H, D.target, range(H.domain_size)))
        k = int(rs.integers(1, 4))
        n = int(rs.choice([1, 2, 3, 7]))
        N = int(rs.choice([5, 50, 400, 3000]))
        s = assert_matches_reference(k, D, H, n, N, int(rs.integers(0, 2**31)))
        outcomes.add((k, s.failed))
    assert shrinking > 0
    assert outcomes == {(k, f) for k in (1, 2, 3) for f in (False, True)}


@pytest.mark.parametrize("K, target", [
    (2, [2, 2, 2, 2]),   # point 0 alone leaves only row 0: floor on one draw
    (3, [3, 1, 2, 2]),   # no row labels point 0 with 3: the floor is 0
], ids=["pinning-point", "empty-point"])
def test_sampler_matches_reference_when_one_draw_reaches_the_floor(K, target):
    H = HypothesisClass(K, threshold_class(4).table)
    target = np.array(target)
    D = FiniteDistribution(np.array([0.4, 0.2, 0.2, 0.2]), target)
    assert consistent_rows(H, target, [0]) == consistent_rows(H, target, range(4))
    outcomes = set()
    for k in (1, 2, 3):
        for seed in range(30):
            s = assert_matches_reference(k, D, H, 3, 2000, seed)
            outcomes.add((k, s.failed))
    assert {(1, False), (2, False)} <= outcomes


@pytest.mark.parametrize("n, w, ks, N", [
    (7, [0.05, 0.45, 0.45, 0.05], (1, 2), 8000),
    (300, [0.495, 0.005, 0.005, 0.495], (1, 2), 30000),
], ids=["n7", "n300"])
def test_sampler_matches_reference_past_the_floor_across_chunks(
        n, w, ks, N, monkeypatch):
    # the floor of target row 2 needs points 1 and 2, so k = 1 rounds are
    # rejected until a half misses one of them.  With blocks of one window
    # every k = 1 round after the first reads its halves from two blocks
    H = threshold_class(4)
    D = FiniteDistribution(np.array(w), H.table[2])
    for cap in (1, stability.BLOCK_CAP):
        monkeypatch.setattr(stability, "BLOCK_CAP", cap)
        outcomes, crossed = set(), False
        for k in ks:
            for seed in range(10):
                s = assert_matches_reference(k, D, H, n, N, seed)
                outcomes.add((k, s.failed))
                crossed |= k == 1 and s.draw_count > 2 * n
        assert crossed
        assert all((k, False) in outcomes for k in ks)


# --- n-draw windows: one AND pass per block gives every window its mask --------

def rows_of(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4),
       st.one_of(st.tuples(st.integers(1, 64), st.integers(1, 8)),
                 st.tuples(st.integers(65, 140), st.integers(8, 40))),
       st.booleans(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_window_masks_are_the_per_draw_and(K, shape, realizable, n, seed):
    # up to 64 rows take one mask word, 65 to 140 (mostly distinct) rows two
    # or three; the windows also hold zero-weight points, which the sampler
    # never draws
    rows, dom = shape
    rs = np.random.default_rng(seed)
    table = rs.integers(1, K + 1, size=(rows, dom))
    target = (table[int(rs.integers(0, rows))] if realizable
              else rs.integers(1, K + 1, size=dom))
    w = rs.random(dom) * (rs.random(dom) < 0.8)
    w[int(rs.integers(0, dom))] += 1
    H = HypothesisClass(K, table)
    D = FiniteDistribution(w / w.sum(), target)
    draws = rs.integers(0, dom, size=n * int(rs.integers(0, 40)))
    support = Support(H, D)
    assert [rows_of(m) for m in support.window_masks(draws, n)] == [
        consistent_rows(H, D.target, draws[i:i + n])
        for i in range(0, len(draws), n)]
    event(f"mask words: {support.words.reshape(dom, -1).shape[1]}")


def rare_middle(dom, rare):
    """Weights on `dom` points with the points in `rare` 100 times rarer."""
    w = np.ones(dom)
    w[list(rare)] = 0.01
    return w / w.sum()


@pytest.mark.parametrize("realizable", [True, False])
def test_sampler_matches_reference_on_multiword_keys(realizable):
    # 91 rows take two mask words; the rare points around the target's
    # threshold keep some rounds' halves apart
    H = threshold_class(90)
    target = H.table[45] if realizable else np.where(np.arange(90) % 7, 1, 2)
    D = FiniteDistribution(rare_middle(90, range(42, 48)), target)
    assert Support(H, D).words.shape == (90, 2)
    outcomes = set()
    for k in (1, 2, 3):
        for n in (1, 7, 40):
            for seed in range(3):
                s = assert_matches_reference(k, D, H, n, 3000, seed)
                outcomes.add((k, s.failed))
    assert {(1, False), (2, False)} <= outcomes


@pytest.mark.parametrize("n", [511, 512, 513, 1100])
def test_sampler_matches_reference_on_windows_across_chunks(n):
    # BLOCK_CAP holds 8 windows at n = 511 and 512, 7 at 513 and 3 at
    # 1100, so at the last two some k = 1 rounds read their halves from two
    # blocks; the unrealizable target leaves some window masks empty, so
    # those halves go through the fold
    H = threshold_class(4)
    w = np.array([0.4985, 0.0015, 0.001, 0.499])
    outcomes = set()
    for target in (H.table[2], np.array([2, 1, 2, 1])):
        D = FiniteDistribution(w, target)
        for k in (1, 2):
            for seed in range(6):
                s = assert_matches_reference(k, D, H, n, 40 * n, seed)
                outcomes.add((k, s.failed))
    assert {(1, False), (2, False), (2, True)} <= outcomes


def test_run_g_matches_reference_on_windows_across_chunks():
    # the stable learner at n = 463 (alpha 0.003), with the tail, the
    # source's next window, folded into the state the sample ends in
    H = threshold_class(4)
    D = FiniteDistribution(np.array([0.4985, 0.0015, 0.001, 0.499]),
                           np.array([2, 1, 2, 1]))
    outcomes = set()
    for seed in range(12):
        res = assert_run_g_matches_reference(H, D, 0.003, seed, d=2)
        outcomes.add((res.k, res.failed))
    assert {(1, False), (2, False)} <= outcomes


# --- the data source's blocks change no output -----------------------------------

# one window a block, the default, and one block past any read
BLOCK_CAPS = [1, stability.BLOCK_CAP, 10 ** 9]


def same_under_block_caps(monkeypatch, run):
    """`run()` under each cap in BLOCK_CAPS, which must all agree."""
    outs = []
    for cap in BLOCK_CAPS:
        monkeypatch.setattr(stability, "BLOCK_CAP", cap)
        outs.append(run())
    assert all(out == outs[0] for out in outs)
    return outs[0]


def sample_with_streams(k, D, H, n, N, seed):
    """A sample with its draw count, the coins' state after it and the
    data source's next window after it."""
    data, coins = streams(seed)
    src = source(H, D, n, data)
    s = sample_dk_mc(k, src, N, one_at_a_time(coins, H.K))
    return (None if s.failed else s.xs.tolist(),
            None if s.failed else s.ys.tolist(), s.tournament_positions,
            s.failed, s.draw_count, coins.bit_generator.state, src.take())


def run_g_with_streams(H, D, alpha, seed, d):
    """A run of G, the coins' state after it and the data source's next
    window after it."""
    data, coins = streams(seed)
    d, n, cap = pinned_parameters(H, alpha, d)
    src = source(H, D, n, data)
    k = int(coins.integers(0, d + 1))
    res = run_g(src, cap, one_at_a_time(coins, H.K), k)
    return res, coins.bit_generator.state, src.take()


@pytest.mark.parametrize("n", [511, 513, 1100])
def test_block_size_changes_no_sample(n, monkeypatch):
    # windows straddle no block at any cap, but at one window a block every
    # k = 1 round after the first reads its halves from two blocks
    H = threshold_class(4)
    w = np.array([0.4985, 0.0015, 0.001, 0.499])
    outcomes = set()
    for target in (H.table[2], np.array([2, 1, 2, 1])):
        D = FiniteDistribution(w, target)
        for k in (1, 2):
            for seed in range(3):
                out = same_under_block_caps(monkeypatch, lambda: (
                    sample_with_streams(k, D, H, n, 40 * n, seed)))
                outcomes.add((k, out[3]))
    assert {(1, False), (2, False)} <= outcomes


@pytest.mark.parametrize("realizable", [True, False])
def test_block_size_changes_no_sample_past_64_rows(realizable, monkeypatch):
    # 91 rows take two mask words, so every window of a block becomes an int
    H = threshold_class(90)
    target = H.table[45] if realizable else np.where(np.arange(90) % 7, 1, 2)
    D = FiniteDistribution(rare_middle(90, range(42, 48)), target)
    outcomes = set()
    for k in (1, 2, 3):
        for n in (3, 7):
            for seed in range(2):
                out = same_under_block_caps(monkeypatch, lambda: (
                    sample_with_streams(k, D, H, n, 3000, seed)))
                outcomes.add((k, out[3]))
    assert {(1, False), (2, False)} <= outcomes


def test_block_size_changes_no_run_of_g(monkeypatch):
    # n = 463 on threshold_class(4) and n = 9 on threshold_class(90), each
    # at d = 2; then two seeded estimates, the CLI's gs pins
    H = threshold_class(4)
    D = FiniteDistribution(np.array([0.4985, 0.0015, 0.001, 0.499]),
                           np.array([2, 1, 2, 1]))
    H90 = threshold_class(90)
    D90 = FiniteDistribution(rare_middle(90, range(42, 48)), H90.table[45])
    outcomes = set()
    for H, D, alpha in ((H, D, 0.003), (H90, D90, 0.5)):
        for seed in range(6):
            res = same_under_block_caps(monkeypatch, lambda: (
                run_g_with_streams(H, D, alpha, seed, 2)))[0]
            outcomes.add((res.k, res.failed))
    assert {(0, False), (1, False), (2, False)} <= outcomes
    for points, target, alpha, trials in ((7, 4, 0.1, 40), (100, 50, 0.5, 20)):
        H = threshold_class(points)
        D = FiniteDistribution.uniform(H, target)
        same_under_block_caps(monkeypatch, lambda: (
            estimate_stability(H, D, alpha, trials, seed=3)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cap_trips_on_the_half_round_that_overflows(k, monkeypatch):
    # a constant class never disagrees, so every round is rejected and the
    # cap trips: on the first half of a round when fewer than n draws are
    # left, on the second half otherwise.  One row decides that from the
    # support, so no sampler may be built
    H = HypothesisClass(2, [[1, 1]])
    D = FiniteDistribution.uniform(H, 0)

    def no_sampler(*args):
        raise AssertionError("a decided Fail built a sampler")

    monkeypatch.setattr(stability, "_Sampler", no_sampler)
    n = 3
    for N in range(1, 40):
        s = assert_matches_reference(k, D, H, n, N, N)
        assert s.failed
        left = N % (2 * n)
        assert s.draw_count == N - left + (n if left < n else 2 * n)


# --- k >= 1 impossibility decided from the support ------------------------------

def always_fails(H, D):
    return Support(H, D).settled is not None


def first_points(H, target, support):
    """D uniform on H's first `support` points, labeled by row `target`."""
    w = np.zeros(H.domain_size)
    w[:support] = 1 / support
    return FiniteDistribution(w, H.table[target])


def no_sampler(*args):
    raise AssertionError("a decided run built a sampler")


def no_stream():
    raise AssertionError("a decided run made a data stream")


@pytest.mark.parametrize("H, target, support, fires", [
    (constants_class(3, 3), 0, 3, True),
    (constants_class(4, 2), 1, 2, True),
    (threshold_class(7), 4, 7, False),
    # one drawable point: every version space is that point's mask
    (threshold_class(7), 4, 1, True),
], ids=["constants-3-3", "constants-4-2", "threshold-7", "threshold-7-one-point"])
def test_support_decision_fires_on_identified_targets(H, target, support, fires):
    D = first_points(H, target, support)
    assert always_fails(H, D) == fires
    d, n, cap = g_parameters(H, 0.1)
    for k in range(1, d + 2):
        data, coins = streams(5 + k)
        states = data.bit_generator.state, coins.bit_generator.state
        s = sample(k, D, H, n, cap, data, coins)
        # a decided Fail reads no example and draws no coin, so both
        # generators are where they were
        assert (states == (data.bit_generator.state,
                           coins.bit_generator.state)) == fires
        assert_matches_reference(k, D, H, n, cap, 5 + k)
        if fires:
            assert s.failed


def test_closure_decides_a_complete_class_at_its_all_1_row(monkeypatch):
    # the 6 points' masks all differ, yet SOA_0 predicts all 1s at every
    # version space they reach: label 2 is ruled out where observed and
    # ties go to label 1 elsewhere.  The closure (63 version spaces) decides
    # it; a sampler would read to the cap, about 8.8e7 draws at alpha 0.1
    H = complete_binary(6)
    D = FiniteDistribution.uniform(H, 0)
    assert len(set(Support(H, D).masks)) == 6
    assert always_fails(H, D)
    for k in (1, 2):
        for N in (1, 17, 60):
            assert assert_matches_reference(k, D, H, 2, N, N).failed
    monkeypatch.setattr(stability, "_Sampler", no_sampler)
    d, n, cap = g_parameters(H, 0.1)
    assert cap > 8 * 10 ** 7
    coins = trial_rng(5, "coins")
    state = coins.bit_generator.state
    for k in range(1, d + 2):
        assert sample(k, D, H, n, cap, no_stream, coins).failed
        assert run_g(source(H, D, n, no_stream), cap,
                     one_at_a_time(coins, H.K), k).failed
    assert coins.bit_generator.state == state


def test_closure_past_the_limit_runs_the_sampler(point_class):
    # every version space reachable from the all-1 target predicts all 1s,
    # so every tournament fails, but the closure holds 2^d - 1 of them
    d = CLOSURE_LIMIT.bit_length()
    H = point_class(d)
    D = FiniteDistribution.uniform(H, 0)
    assert 2 ** d - 1 > CLOSURE_LIMIT
    assert not always_fails(H, D)
    for k in (1, 2):
        for seed in range(3):
            assert assert_matches_reference(k, D, H, 2, 60, seed).failed
    with mock.patch.object(stability, "CLOSURE_LIMIT", 2 ** d):
        H = point_class(d)
        assert always_fails(H, FiniteDistribution.uniform(H, 0))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.integers(1, 5), st.data(),
       st.sampled_from([1, 3, CLOSURE_LIMIT]), st.integers(0, 2**32 - 1))
def test_support_decision_matches_reference(K, rows, dom, data, limit, seed):
    # random classes and targets, realizable or not, with zero-weight points;
    # a small CLOSURE_LIMIT sends decidable supports through the sampler
    labels = st.lists(st.integers(1, K), min_size=dom, max_size=dom)
    H = HypothesisClass(K, data.draw(st.lists(labels, min_size=rows,
                                              max_size=rows)))
    if data.draw(st.booleans()):
        target = H.table[data.draw(st.integers(0, H.num_rows - 1))]
    else:
        target = np.array(data.draw(labels))
    w = np.array(data.draw(st.lists(st.integers(0, 3), min_size=dom,
                                    max_size=dom)), dtype=np.float64)
    w[-1] += w.sum() == 0
    D = FiniteDistribution(w / w.sum(), target)
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    N = data.draw(st.integers(1, 300))
    with mock.patch.object(stability, "CLOSURE_LIMIT", limit):
        assert_matches_reference(k, D, H, n, N, seed)
        event(f"decided: {always_fails(H, D)}, limit {limit}")


# --- the stable learner ----------------------------------------------------------

def test_g_parameters_three_constants():
    H = constants_class(3, 3)
    assert g_parameters(H, 0.1) == (1, 11, 1584)
    assert pinned_parameters(H, 0.1, 1) == (1, 11, 1584)


def test_singleton_class_returns_its_hypothesis():
    H = HypothesisClass(3, [[2, 3, 1]])
    D = FiniteDistribution.uniform(H, 0)
    for seed in range(5):
        res = run_g_drawn(H, D, 0.2, *streams(seed))
        assert not res.failed
        assert res.table == (2, 3, 1)
    est = estimate_stability(H, D, 0.2, 50, seed=1)
    assert est.frequency == 1.0
    assert est.fail_count == 0


def test_three_constants_stability():
    H = constants_class(3, 3)
    D = FiniteDistribution.uniform(H, 0)
    est = estimate_stability(H, D, 0.1, 400, seed=9)
    assert est.modal_table == (1, 1, 1)
    assert est.frequency >= (3 - 1) / ((1 + 1) * 3 ** 2) - 0.05
    assert est.population_loss == 0.0
    # the k = 1 half of the trials fails and is reported, not hidden
    assert 0.3 <= est.fail_rate <= 0.7


def test_generalization_bound(threshold_setup):
    # outputs at frequency >= K^-d have population loss <= d*ln(K)/n
    H, D = threshold_setup
    d, n, _ = g_parameters(H, 0.4)
    est = estimate_stability(H, D, 0.4, 600, seed=3)
    bound = d * np.log(H.K) / n
    for table, count in est.counts.items():
        if count / est.trials >= H.K ** (-d):
            loss = evaluate_loss(np.array(table), D, TolerantZeroOne(0))
            assert loss <= bound + 1e-12


def reference_run_g(H, D, alpha, data, coins, d=None, k=None):
    """The stable learner as defined: k from the coins (unless given), the
    sample S by `reference_sample`, then the tail T as the data generator's
    next n draws, and SOA_0 replayed over S o T from scratch."""
    d, n, cap = pinned_parameters(H, alpha, d)
    data, coins = as_generator(data), as_generator(coins)
    if k is None:
        k = int(coins.integers(0, d + 1))
    xs, ys, _, failed, draw_count = reference_sample(k, D, H, n, cap, data,
                                                     coins)
    if failed:
        return GRunResult(None, True, k, n, draw_count)
    tail = inverse_cdf_draws(D, data, n).tolist()
    table = soa_final_predictor(H, xs + tail,
                                ys + [int(D.target[x]) for x in tail])
    return GRunResult(table, False, k, n, draw_count)


def assert_run_g_matches_reference(H, D, alpha, seed, d=None):
    got = run_g_drawn(H, D, alpha, *streams(seed), d)
    assert got == reference_run_g(H, D, alpha, *streams(seed), d)
    return got


@pytest.mark.parametrize("realizable", [True, False])
def test_run_g_matches_reference_on_random_classes(realizable):
    # zero-weight points and float-stored targets included; the outcomes
    # must cover successful tournaments at k >= 1, where the carried state
    # feeds the output
    rs = np.random.default_rng(80 + realizable)
    outcomes = set()
    for i in range(150):
        H, D = random_case(rs, realizable, dom=(2, 7))
        w = D.weights * (rs.random(H.domain_size) < 0.7)
        if not w.any():
            w[int(rs.integers(0, H.domain_size))] = 1.0
        target = D.target.astype(np.float64) if i % 3 == 0 else D.target
        D = FiniteDistribution(w / w.sum(), target)
        d = int(rs.integers(0, 3))
        alpha = float(rs.choice([0.3, 0.6, 0.9]))
        res = assert_run_g_matches_reference(H, D, alpha,
                                             int(rs.integers(0, 2**31)), d)
        outcomes.add((res.k, res.failed))
    assert {(1, False), (2, False), (1, True)} <= outcomes


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.integers(1, 5), st.data(),
       st.integers(0, 2**32 - 1))
def test_run_g_matches_reference(K, rows, dom, data, seed):
    labels = st.lists(st.integers(1, K), min_size=dom, max_size=dom)
    H = HypothesisClass(K, data.draw(st.lists(labels, min_size=rows,
                                              max_size=rows)))
    if data.draw(st.booleans()):
        target = H.table[data.draw(st.integers(0, H.num_rows - 1))]
    else:
        target = np.array(data.draw(labels))
    if data.draw(st.booleans()):
        target = target.astype(np.float64)
    w = np.array(data.draw(st.lists(st.integers(0, 3), min_size=dom,
                                    max_size=dom)), dtype=np.float64)
    w[-1] += w.sum() == 0
    D = FiniteDistribution(w / w.sum(), target)
    d = data.draw(st.integers(0, 2))
    alpha = data.draw(st.sampled_from([0.3, 0.6, 0.9]))
    res = assert_run_g_matches_reference(H, D, alpha, seed, d)
    event(f"k {res.k}, failed {res.failed}")


def test_run_g_deterministic(threshold_setup):
    H, D = threshold_setup
    a = run_g_drawn(H, D, 0.3, *streams(4))
    b = run_g_drawn(H, D, 0.3, *streams(4))
    assert a.table == b.table and a.k == b.k


# --- k = 0 settled from the support ----------------------------------------------

SETTLED = pytest.mark.parametrize("H, target, support", [
    (constants_class(3, 3), 0, 3),
    (constants_class(4, 2), 1, 2),
    # six distinct masks: settled only through their closure
    (complete_binary(6), 0, 6),
    (threshold_class(7), 4, 1),
], ids=["constants-3-3", "constants-4-2", "complete-6", "threshold-7-one-point"])


@SETTLED
def test_settled_k_zero_run_reads_no_example(H, target, support, monkeypatch):
    # the tail's version space is the AND of n drawn masks, which lies in the
    # closure, so the drawn reference ends in the settled table
    D = first_points(H, target, support)
    settled = Support(H, D).settled
    assert settled is not None
    monkeypatch.setattr(stability, "_Sampler", no_sampler)
    d, n, cap = g_parameters(H, 0.1)
    for seed in range(6):
        coins = trial_rng(seed, "coins")
        state = coins.bit_generator.state
        got = run_g(source(H, D, n, no_stream), cap,
                    one_at_a_time(coins, H.K), 0)
        assert got == GRunResult(settled, False, 0, n, 0)
        assert got == reference_run_g(H, D, 0.1, *streams(seed), k=0)
        assert coins.bit_generator.state == state


def test_unsettled_k_zero_run_reads_its_tail():
    H = threshold_class(7)
    D = first_points(H, 4, 7)
    assert Support(H, D).settled is None
    d, n, cap = g_parameters(H, 0.1)
    with pytest.raises(AssertionError, match="made a data stream"):
        run_g(source(H, D, n, no_stream), cap,
              one_at_a_time(trial_rng(0, "coins"), H.K), 0)
    for seed in range(6):
        got = run_g(source(H, D, n, trial_rng(seed, "data")), cap,
                    one_at_a_time(trial_rng(seed, "coins"), H.K), 0)
        assert got == reference_run_g(H, D, 0.1, *streams(seed), k=0)


def counting_streams(monkeypatch):
    """The (seed, path) of every stream `trial_rng` makes for the stable
    and the private learner, in order."""
    made = []

    def counting(seed, *path):
        made.append((seed,) + path)
        return trial_rng(seed, *path)

    monkeypatch.setattr(stability, "trial_rng", counting)
    monkeypatch.setattr(privacy, "trial_rng", counting)
    return made


@SETTLED
def test_settled_estimate_tallies_k_exactly(H, target, support, monkeypatch):
    # every k = 0 trial is the settled table and every k >= 1 trial a
    # decided Fail, so the counts are the coins' k draws, and only the coin
    # stream is made
    D = first_points(H, target, support)
    settled = Support(H, D).settled
    d, _, _ = g_parameters(H, 0.1)
    trials, seed = 60, 7
    ks = trial_rng(seed, "g").integers(0, d + 1, size=trials)
    zeros = int((ks == 0).sum())
    assert 0 < zeros < trials
    made = counting_streams(monkeypatch)
    est = estimate_stability(H, D, 0.1, trials, seed)
    assert dict(est.counts) == {settled: zeros}
    assert est.fail_count == trials - zeros
    assert made == [(seed, "g")]


def test_settled_private_learner_makes_four_streams(monkeypatch):
    # the batch coins, the histogram, the selection sample and the selection:
    # none of the 2,423 batches makes a stream of its own
    made = counting_streams(monkeypatch)
    H = constants_class(3, 3)
    res = private_learn_mc(H, FiniteDistribution.uniform(H, 0),
                           PrivacyParams(0.5, 0.01), 0.2, 0.2, 11)
    assert not res.failed
    assert made == [(11, "batch"), (11, "hist"), (11, "sprime"),
                    (11, "select")]


def hand_loop(H, D, alpha, runs, seed, stream):
    """Runs of G written out from their definition: n and N by the formula
    at d = Ldim_0, every run's k from one draw of the coin stream
    `trial_rng(seed, stream)`, then the tournament labels from it one draw
    each, and run i's examples from `trial_rng(seed, stream, i)`."""
    d, n, cap = pinned_parameters(H, alpha, ldim_value(H, 0))
    support = Support(H, D)
    coins = trial_rng(seed, stream)
    ks = coins.integers(0, d + 1, size=runs)
    labels = one_at_a_time(coins, H.K)
    return [run_g(DataSource(support, n, trial_rng(seed, stream, i)), cap,
                  labels, int(k)).table for i, k in enumerate(ks)]


def test_unsettled_estimate_follows_the_stream_protocol():
    # tournaments succeed below the top k on the first two classes, so the
    # coins draw labels, at K = 2 and K = 3, and some runs fail.  The last
    # target is no row of its class, so k = 1 rounds with an empty window
    # mask fold both halves; every tournament there succeeds
    H7 = threshold_class(7)
    H3 = random_multiclass(12, 5, 3, 1)
    unrealizable = FiniteDistribution(np.full(5, 0.2), np.array([1, 2, 3, 1, 2]))
    assert not unrealizable.realizable_by(H3)
    for H, D, alpha, some_fail in (
            (H7, FiniteDistribution.uniform(H7, 4), 0.1, True),
            (H3, FiniteDistribution.uniform(H3, 0), 0.3, True),
            (H3, unrealizable, 0.6, False)):
        assert Support(H, D).settled is None
        tables = Counter(hand_loop(H, D, alpha, 40, 3, "g"))
        fails = tables.pop(None, 0)
        est = estimate_stability(H, D, alpha, 40, 3)
        assert dict(est.counts) == dict(tables)
        assert est.fail_count == fails
        assert est.d == ldim_value(H, 0)
        assert (fails > 0) == some_fail and fails < 40


@pytest.mark.parametrize("K", [2, 3, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
                               2 ** 40])
def test_block_labels_are_the_labels_drawn_one_at_a_time(K):
    # below a range of 2**32 numpy draws 32 bits a label and PCG64 keeps the
    # spare half of a 64-bit output, at 2**32 and above 64 bits a label; the
    # counts cross block boundaries, and after whole blocks the two
    # generators must be in one state
    for count in (1, LABEL_BLOCK - 1, LABEL_BLOCK, LABEL_BLOCK + 1,
                  2 * LABEL_BLOCK, 2 * LABEL_BLOCK + 7):
        block, single = trial_rng(count, "coins"), trial_rng(count, "coins")
        got = list(itertools.islice(block_labels(block, K), count))
        want = list(itertools.islice(one_at_a_time(single, K), count))
        assert got == want and 1 <= min(got) and max(got) <= K
        if count % LABEL_BLOCK == 0:
            assert block.bit_generator.state == single.bit_generator.state



def test_unsettled_private_learner_follows_the_stream_protocol(monkeypatch):
    # the histogram's input is the batch tables of the "batch" stream at
    # alpha / 2, in batch order
    H = threshold_class(3)
    D = FiniteDistribution.uniform(H, 2)
    assert Support(H, D).settled is None
    seen = []
    histogram = privacy.stable_histogram

    def recording(items, priv, seed):
        seen.append(list(items))
        return histogram(items, priv, seed)

    monkeypatch.setattr(privacy, "stable_histogram", recording)
    res = private_learn_mc(H, D, PrivacyParams(0.9, 0.01), 0.2, 0.2, 11)
    assert len(seen) == 1 and len(seen[0]) == res.num_batches
    assert seen[0] == hand_loop(H, D, 0.1, res.num_batches, 11, "batch")
    assert 0 < res.fail_batches < res.num_batches
