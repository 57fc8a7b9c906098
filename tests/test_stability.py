from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from tolerantlearn import stability
from tolerantlearn.classes import (FiniteDistribution, HypothesisClass,
                                   TolerantZeroOne, evaluate_loss)
from tolerantlearn.generators import constants_class, threshold_class
from tolerantlearn.online import soa_final_predictor, soa_run
from tolerantlearn.privacy import PrivacyParams, private_learn_mc
from tolerantlearn.seeding import as_generator, trial_rng
from tolerantlearn.stability import (CLOSURE_LIMIT, GRunResult, _support_entry,
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
    s = sample_dk_mc(0, D, H, 3, 100, 1)
    assert not s.failed
    assert s.xs.tolist() == s.ys.tolist() == []
    assert s.draw_count == 0


def test_singleton_class_always_fails():
    H = HypothesisClass(2, [[1, 2]])
    D = FiniteDistribution.uniform(H, 0)
    s = sample_dk_mc(1, D, H, 2, 60, 5)
    assert s.failed
    assert s.draw_count > 60


def test_identified_classes_fail_at_any_k():
    # a class whose target is pinned down by one example never produces a
    # disagreement, so the rejection loop runs into the cap: the sampler can
    # only Fail for k >= 1 (constants are the canonical case)
    H = HypothesisClass(2, [[1], [2]])
    D = FiniteDistribution.uniform(H, 0)
    for seed in range(10):
        s = sample_dk_mc(1, D, H, 2, 100, seed)
        assert s.failed


def test_threshold_sample_structure(threshold_setup):
    H, D = threshold_setup
    n = 3
    found = 0
    for seed in range(40):
        s = sample_dk_mc(1, D, H, n, 500, seed)
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
            s = sample_dk_mc(k, D, H, 3, 2000, seed)
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
            s = sample_dk_mc(k, D, H, n, 4000, seed)
            if not s.failed:
                draws.append(s.draw_count)
            seed += 1
        assert len(draws) >= 120
        assert np.mean(draws) <= 4 ** (k + 1) * n


def test_sampler_deterministic(threshold_setup):
    H, D = threshold_setup
    a = sample_dk_mc(2, D, H, 3, 2000, 17)
    b = sample_dk_mc(2, D, H, 3, 2000, 17)
    assert a.xs.tolist() == b.xs.tolist() and a.ys.tolist() == b.ys.tolist()
    assert a.draw_count == b.draw_count
    assert a.tournament_positions == b.tournament_positions


def test_sampler_validates_arguments(threshold_setup):
    H, D = threshold_setup
    with pytest.raises(ValueError):
        sample_dk_mc(-1, D, H, 3, 100, 0)
    with pytest.raises(ValueError):
        sample_dk_mc(1, D, H, 0, 100, 0)


@pytest.mark.parametrize("D", [
    FiniteDistribution(np.full(2, 0.5), np.array([7, 1])),        # label > K
    FiniteDistribution(np.full(2, 0.5), np.array([1.5, 1])),      # not a label
    FiniteDistribution(np.full(3, 1 / 3), np.array([1, 2, 1])),   # 3 points
], ids=["label-7", "fractional", "three-points"])
def test_sampler_rejects_distribution_off_the_class(D):
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    for k in (0, 1, 2):
        with pytest.raises(ValueError):
            sample_dk_mc(k, D, H, 2, 100, k)
    with pytest.raises(ValueError):
        run_g(H, D, 0.3, 0)
    with pytest.raises(ValueError):
        estimate_stability(H, D, 0.3, 3, 0)
    with pytest.raises(ValueError):
        private_learn_mc(H, D, PrivacyParams(0.5, 0.01), 0.3, 0.2, 0)


def test_distribution_off_the_class_raises_on_every_call():
    # the check runs once per distribution, and only a distribution that
    # passes it is cached
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    bad = FiniteDistribution(np.full(2, 0.5), np.array([7, 1]))
    for _ in range(2):
        with pytest.raises(ValueError, match="integers in 1..2"):
            sample_dk_mc(1, bad, H, 2, 100, 0)
        with pytest.raises(ValueError, match="integers in 1..2"):
            run_g(H, bad, 0.3, 0)
    assert bad not in H._support_cache
    good = FiniteDistribution.uniform(H, 0)
    entry = _support_entry(H, good)
    run_g(H, good, 0.3, 0)
    assert _support_entry(H, good) is entry
    # an equal but distinct distribution gets its own entry
    assert _support_entry(H, FiniteDistribution.uniform(H, 0)) is not entry


# --- the sampler against its definition -----------------------------------------

class _CapTripped(Exception):
    pass


def reference_sample(k, D, H, n, N, seed):
    """The tournament sampler as defined: one round at a time, SOA replayed.

    Draws come from `D.draw_indices` in 512-draw chunks, each drawn only
    when a request needs it (the same generator draws the tournament
    labels).  A request of m draws first counts them; if the count then
    exceeds N the cap trips with that count.  Every round folds SOA_0 over
    the whole labeled prefix of each side.  Returns (xs, ys, positions,
    failed, draw_count) in `sample_dk_mc`'s conventions, with lists for
    arrays.
    """
    rng = as_generator(seed)
    if k == 0:
        return [], [], [], False, 0
    buf, used = [], 0

    def take(m):
        nonlocal buf, used
        used += m
        if used > N:
            raise _CapTripped
        while len(buf) < m:
            buf += D.draw_indices(rng, 512).tolist()
        t, buf = buf[:m], buf[m:]
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
            y = int(rng.integers(1, H.K + 1))
            xs, ys, positions = ((xs0, ys0, p0) if f0[x] != y
                                 else (xs1, ys1, p1))
            return xs + [x], ys + [y], positions + [len(xs)]

    try:
        xs, ys, positions = rec(k)
    except _CapTripped:
        return None, None, [], True, used
    return xs, ys, positions, False, used


def assert_matches_reference(k, D, H, n, N, seed):
    s = sample_dk_mc(k, D, H, n, N, seed)
    got = (None if s.failed else s.xs.tolist(),
           None if s.failed else s.ys.tolist(),
           s.tournament_positions, s.failed, s.draw_count)
    assert got == reference_sample(k, D, H, n, N, seed), (k, n, N, seed)
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
    # n = 300: one round needs 600 draws, more than one 512-draw chunk; the
    # rare points 1 and 2 keep some of the k = 1 rounds undecided
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


# --- the support's floor: the AND of its points' masks ends a half's scoring ----

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


def floor_then_chunk_boundary(D, H, n, seed, draws):
    """Whether a k = 1 half-round among the first `draws` draws of `seed`
    reaches the support's floor and then crosses a 512-draw chunk boundary.
    """
    rng = as_generator(seed)
    xs = np.concatenate([D.draw_indices(rng, 512)
                         for _ in range(-(-draws // 512))])
    floor = consistent_rows(H, D.target, np.flatnonzero(D.weights))
    for start in range(0, draws - n + 1, n):
        for i in range(start, start + n):
            if consistent_rows(H, D.target, xs[start:i + 1]) == floor:
                if i // 512 < (start + n - 1) // 512:
                    return True
                break
    return False


@pytest.mark.parametrize("n, w, ks, N", [
    (7, [0.05, 0.45, 0.45, 0.05], (1, 2), 8000),
    (300, [0.495, 0.005, 0.005, 0.495], (1, 2), 30000),
], ids=["n7", "n300"])
def test_sampler_matches_reference_past_the_floor_across_chunks(n, w, ks, N):
    # the floor of target row 2 needs points 1 and 2, so k = 1 rounds are
    # rejected until a half misses one of them; 512 is no multiple of 2n,
    # and some half-rounds reach the floor and then run into the next chunk
    H = threshold_class(4)
    D = FiniteDistribution(np.array(w), H.table[2])
    outcomes, crossed = set(), False
    for k in ks:
        for seed in range(10):
            s = assert_matches_reference(k, D, H, n, N, seed)
            outcomes.add((k, s.failed))
            if k == 1 and not crossed:
                crossed = floor_then_chunk_boundary(D, H, n, seed,
                                                    min(s.draw_count, N))
    assert crossed
    assert all((k, False) in outcomes for k in ks)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cap_trips_on_the_half_round_that_overflows(k):
    # a constant class never disagrees, so every round is rejected and the
    # cap trips: on the first half of a round when fewer than n draws are
    # left, on the second half otherwise
    H = HypothesisClass(2, [[1, 1]])
    D = FiniteDistribution.uniform(H, 0)
    n = 3
    for N in range(1, 40):
        s = assert_matches_reference(k, D, H, n, N, N)
        assert s.failed
        left = N % (2 * n)
        assert s.draw_count == N - left + (n if left < n else 2 * n)


# --- k >= 1 impossibility decided from the support ------------------------------

def always_fails(H, D):
    return _support_entry(H, D).always_fails


@pytest.mark.parametrize("H, target, support, fires", [
    (constants_class(3, 3), 0, 3, True),
    (constants_class(4, 2), 1, 2, True),
    (threshold_class(7), 4, 7, False),
    # one drawable point: every version space is that point's mask
    (threshold_class(7), 4, 1, True),
], ids=["constants-3-3", "constants-4-2", "threshold-7", "threshold-7-one-point"])
def test_support_decision_fires_on_identified_targets(H, target, support, fires):
    w = np.zeros(H.domain_size)
    w[:support] = 1 / support
    D = FiniteDistribution(w, H.table[target])
    assert always_fails(H, D) == fires
    d, n, cap = g_parameters(H, 0.1)
    for k in range(1, d + 2):
        rng = trial_rng(5, "decided", k)
        state = rng.bit_generator.state
        s = sample_dk_mc(k, D, H, n, cap, rng)
        # a decided Fail draws nothing, so the generator is where it was
        assert (rng.bit_generator.state == state) == fires
        assert_matches_reference(k, D, H, n, cap, 5 + k)
        if fires:
            assert s.failed


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


def test_singleton_class_returns_its_hypothesis():
    H = HypothesisClass(3, [[2, 3, 1]])
    D = FiniteDistribution.uniform(H, 0)
    for seed in range(5):
        res = run_g(H, D, 0.2, seed)
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


def reference_run_g(H, D, alpha, seed, d=None):
    """The stable learner as defined: sample S, draw the tail T, replay SOA_0
    over S o T from scratch."""
    d, n, cap = g_parameters(H, alpha, d)
    rng = as_generator(seed)
    k = int(rng.integers(0, d + 1))
    sample = sample_dk_mc(k, D, H, n, cap, rng)
    if sample.failed:
        return GRunResult(None, True, k, n, sample.draw_count)
    tail_xs, tail_ys = D.draw_sample(rng, n)
    table = soa_final_predictor(H, np.concatenate([sample.xs, tail_xs]),
                                np.concatenate([sample.ys, tail_ys]))
    return GRunResult(table, False, k, n, sample.draw_count)


def assert_run_g_matches_reference(H, D, alpha, seed, d=None):
    got = run_g(H, D, alpha, trial_rng(seed, "g"), d)
    assert got == reference_run_g(H, D, alpha, trial_rng(seed, "g"), d)
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
    a = run_g(H, D, 0.3, trial_rng(4, "x"))
    b = run_g(H, D, 0.3, trial_rng(4, "x"))
    assert a.table == b.table and a.k == b.k
