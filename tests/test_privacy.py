import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from .conftest import StubRng, ledger_total
from tolerantlearn import privacy
from tolerantlearn.classes import (AbsoluteLoss, FiniteDistribution,
                                   HypothesisClass, RealFunctionClass,
                                   TolerantZeroOne, absolute_loss,
                                   evaluate_loss, tolerant_loss)
from tolerantlearn.generators import constants_class, random_real
from tolerantlearn.privacy import (COVER_ROW_CAP, PrivacyParams,
                                   check_conditions, covering_number,
                                   generic_private_learner,
                                   histogram_noise_scale, histogram_threshold,
                                   private_learn_mc, private_learn_reg,
                                   release_probability, selection_probabilities,
                                   selection_sample_size, stability_eta,
                                   stable_histogram)
from tolerantlearn.seeding import trial_rng


# --- stable histogram -------------------------------------------------------------

def test_identical_items_released_accurately():
    priv = PrivacyParams(1.0, 0.01)
    hits = 0
    for seed in range(200):
        out = stable_histogram([("h",)] * 120, priv, seed)
        if out.items == [("h",)] and abs(out.estimates[0] - 1.0) <= 0.5:
            hits += 1
    assert hits >= 195


def test_unique_item_release_probability_below_delta():
    # closed form: the threshold sits ln(2/delta) noise scales above 1/m,
    # so a unique item is released with probability delta/4 <= delta
    for m, eps, delta in ((100, 1.0, 0.01), (400, 0.5, 0.05), (1000, 0.25, 0.001)):
        p = release_probability(1.0 / m, eps, delta, m)
        assert p == pytest.approx(delta / 4.0, rel=1e-9)
        assert p <= delta


def test_all_light_input_usually_empty():
    m, delta = 20, 0.01
    priv = PrivacyParams(1.0, delta)
    items = [(i,) for i in range(m)]
    empties = sum(1 for s in range(1000)
                  if not stable_histogram(items, priv, s).items)
    assert empties >= (1 - m * delta) * 1000 * 0.98


def test_absent_items_never_released():
    out = stable_histogram([("a",), ("b",)] * 50, PrivacyParams(1.0, 0.01), 3)
    assert set(out.items) <= {("a",), ("b",)}


def test_histogram_rejects_pure_dp():
    with pytest.raises(ValueError):
        stable_histogram([("a",)], PrivacyParams(1.0, 0.0), 0)


@pytest.mark.parametrize("eps, delta, name", [
    (math.nan, math.nan, "eps"), (math.inf, 0.01, "eps"), (0.0, 0.01, "eps"),
    (-1.0, 0.01, "eps"), (0.5, math.nan, "delta"), (0.5, math.inf, "delta"),
    (0.5, -0.01, "delta"),
])
def test_privacy_params_refuse_non_numbers(eps, delta, name):
    # PrivacyParams(nan, nan) once built, and the stable histogram then
    # released nothing at threshold nan
    with pytest.raises(ValueError, match=name):
        PrivacyParams(eps, delta)


@pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf])
def test_selection_refuses_eps_not_positive_and_finite(eps):
    # eps = -1 once selected the worst hypothesis and eps = 0 chose uniformly
    hyps = [(1, 1), (2, 2)]
    sample = ([0, 1, 0, 1, 0], [1, 1, 1, 1, 1])
    with pytest.raises(ValueError, match="eps"):
        selection_probabilities(hyps, sample, eps)
    with pytest.raises(ValueError, match="eps"):
        generic_private_learner(hyps, sample, eps, 0)


def test_release_probabilities_satisfy_neighboring_inequality():
    # neighboring inputs move one item's frequency by 1/m; the release
    # probabilities must satisfy the (e^eps, delta) inequality both ways
    for m, eps, delta in ((50, 0.5, 0.01), (200, 1.0, 0.001)):
        for c in range(0, m):
            p_lo = release_probability(c / m, eps, delta, m)
            p_hi = release_probability((c + 1) / m, eps, delta, m)
            assert p_hi <= math.exp(eps) * p_lo + delta
            assert p_lo <= math.exp(eps) * p_hi + delta
            # and for the complement event (non-release)
            assert (1 - p_lo) <= math.exp(eps) * (1 - p_hi) + delta
            assert (1 - p_hi) <= math.exp(eps) * (1 - p_lo) + delta


def item_laws(m, eps, delta, prune, sentinel):
    """Per count c = 0..m, the exact law of one item's fate in the pipeline:
    (not released, released but pruned, kept), kept meaning a noised
    frequency above max(t, prune).  An absent item is never released and
    the fail sentinel is never kept."""
    t = histogram_threshold(eps, delta, m)
    shift = max(t, prune) - t
    laws = [(1.0, 0.0, 0.0)]
    for c in range(1, m + 1):
        released = release_probability(c / m, eps, delta, m)
        kept = 0.0 if sentinel else release_probability(c / m - shift, eps,
                                                        delta, m)
        laws.append((1.0 - released, released - kept, kept))
    return np.array(laws)


def hockey_stick(p, q, eps):
    """sum_o max(0, p(o) - e^eps q(o)) over the last two axes."""
    return np.maximum(0.0, p - math.exp(eps) * q).sum(axis=(-2, -1))


@pytest.mark.parametrize("sentinel", [(False, False), (True, False),
                                      (False, True)],
                         ids=["items", "a-is-fail", "b-is-fail"])
def test_histogram_and_prune_are_exactly_eps_delta_private(sentinel):
    # A neighbouring input moves one item a -> b: counts (c_a, c_b) become
    # (c_a - 1, c_b + 1).  The items get independent noise and the others
    # keep their law, so the hockey-stick divergence of the whole
    # (released, kept) output is that of the 3 x 3 joint law of a and b.
    # The worst case is delta / 4: the release of an item new to the input.
    worst = 0.0
    for m, eps, delta, prune in product(
            (1, 2, 3, 7, 12, 25), (0.05, 0.3, 1.0), (1e-6, 0.01, 0.5),
            (0.0, 0.01, 0.1, 0.3, 0.6, 0.75)):
        law_a, law_b = (item_laws(m, eps, delta, prune, s) for s in sentinel)
        # [i, j] holds c_a = i + 1, c_b = j; a pair is valid if c_a + c_b <= m
        p = law_a[1:, None, :, None] * law_b[None, :-1, None, :]
        q = law_a[:-1, None, :, None] * law_b[None, 1:, None, :]
        valid = np.add.outer(np.arange(m), np.arange(m)) <= m - 1
        div = np.maximum(hockey_stick(p, q, eps), hockey_stick(q, p, eps))
        assert div[valid].max() <= delta, (m, eps, delta, prune)
        worst = max(worst, div[valid].max() / delta)
    assert worst == pytest.approx(0.25, rel=1e-9)


def test_histogram_accuracy_battery():
    # heavy items always enter the list with estimates within eta
    eta, beta = 0.1, 0.1
    priv = PrivacyParams(1.0, 0.01)
    items = ([("A",)] * 160 + [("B",)] * 120 + [("C",)] * 80
             + [(f"u{i}",) for i in range(40)])
    freqs = {("A",): 0.4, ("B",): 0.3, ("C",): 0.2}
    good = 0
    for seed in range(300):
        out = stable_histogram(items, priv, seed)
        released = dict(zip(out.items, out.estimates))
        ok = all(h in released for h in freqs)
        for item, est in released.items():
            ok = ok and abs(est - freqs.get(item, 1 / 400)) <= eta
        good += ok
    assert good >= (1 - beta) * 300


# --- exponential selection ----------------------------------------------------------

def test_two_point_distribution_closed_form():
    h_good, h_bad = (1,), (2,)
    sample = ([0] * 20, [1] * 20)
    probs = selection_probabilities([h_good, h_bad], sample, 1.0)
    expected = 1.0 / (1.0 + math.exp(-10.0))
    assert abs(probs[0] - expected) < 1e-12
    assert abs(probs[1] - (1 - expected)) < 1e-12


def test_selection_degenerates_to_uniform():
    sample = ([0] * 20, [1] * 20)
    probs = selection_probabilities([(1,), (2,)], sample, 1e-6 / 20)
    assert abs(probs[0] - probs[1]) < 1e-5


@pytest.mark.parametrize("e", [0.05, 0.5, 1.0, 3.0])
def test_selection_is_exactly_e_private(e):
    # every list of two or more hypotheses on a 2-point domain, every sample
    # of n <= 3 examples and every neighbour that changes one example; the
    # pipeline runs the selection at e = eps / 2
    examples = list(product((0, 1), (1, 2)))
    hyps = list(product((1, 2), repeat=2))
    worst = 0.0
    for size in range(2, len(hyps) + 1):
        for chosen in combinations(hyps, size):
            for n in range(1, 4):
                for sample in product(examples, repeat=n):
                    probs = selection_probabilities(
                        chosen, tuple(map(list, zip(*sample))), e)
                    for i, other in product(range(n), examples):
                        near = list(sample)
                        near[i] = other
                        near_probs = selection_probabilities(
                            chosen, tuple(map(list, zip(*near))), e)
                        worst = max(worst, np.abs(np.log(probs / near_probs)).max())
    assert worst <= e


def test_singleton_list_returned():
    sample = ([0], [2])
    assert generic_private_learner([(1,)], sample, 1.0, 0) == (1,)


def test_selection_never_returns_a_probability_zero_hypothesis(monkeypatch):
    # seven hypotheses of loss 0 and one of loss 1 on 4,000 examples: the
    # last one's weight exp(-1000) underflows to 0, and the other seven's
    # probabilities sum to 0.9999999999999998 in floats, so the largest
    # uniform below 1 must still select the seventh
    hyps = [(1, j) for j in range(1, 8)] + [(2, 1)]
    sample = ([0] * 4000, [1] * 4000)
    probs = selection_probabilities(hyps, sample, 1.0)
    assert probs.tolist() == [1 / 7] * 7 + [0.0] and np.cumsum(probs)[-1] < 1
    monkeypatch.setattr(privacy, "as_generator", lambda seed: seed)
    top = 1 - 2 ** -53
    assert generic_private_learner(hyps, sample, 1.0, StubRng(top)) == (1, 7)
    assert generic_private_learner(hyps, sample, 1.0, StubRng(0.0)) == (1, 1)


def looped_losses(hypotheses, xs, ys, loss):
    """Empirical losses one example at a time, as a reference."""
    if isinstance(loss, AbsoluteLoss):
        one = absolute_loss
    else:
        def one(y_hat, y):
            return float(tolerant_loss(y_hat, y, loss.tau))
    return [sum(one(h[x], y) for x, y in zip(xs, ys)) / len(xs)
            for h in hypotheses]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans())
def test_array_losses_match_per_example_loop(data, real):
    # values on a quarter grid keep the absolute-loss sums exact, so the
    # array path must agree with the loop to the last bit
    dom = data.draw(st.integers(1, 6))
    if real:
        values, loss = st.integers(-4, 4).map(lambda v: v / 4), AbsoluteLoss()
    else:
        K = data.draw(st.integers(2, 5))
        values = st.integers(1, K)
        loss = TolerantZeroOne(data.draw(st.integers(0, 3)))
    row = st.lists(values, min_size=dom, max_size=dom).map(tuple)
    hyps = data.draw(st.lists(row, min_size=1, max_size=5))
    n = data.draw(st.integers(1, 30))
    xs = data.draw(st.lists(st.integers(0, dom - 1), min_size=n, max_size=n))
    ys = data.draw(st.lists(values, min_size=n, max_size=n))
    want = looped_losses(hyps, xs, ys, loss)
    assert evaluate_loss(np.array(hyps), (xs, ys), loss).tolist() == want
    for h, w in zip(hyps, want):
        got = evaluate_loss(np.array(h), (np.array(xs), np.array(ys)), loss)
        assert type(got) is float and got == w
    eps = data.draw(st.floats(0.01, 5.0))
    scores = -eps * n * np.array(want) / 2.0
    weights = np.exp(scores - scores.max())
    assert (selection_probabilities(hyps, (xs, ys), eps, loss).tolist()
            == (weights / weights.sum()).tolist())


def test_selection_accuracy_battery():
    # a list of 8 hypotheses containing the target: at the planner's sample
    # size the selected hypothesis has empirical loss <= 2*alpha nearly always
    alpha, beta, eps = 0.2, 0.1, 1.0
    H = HypothesisClass(4, [[((i + x) % 4) + 1 for x in range(4)] for i in range(4)]
                        + [[1, 1, 2, 2], [2, 2, 1, 1], [3, 3, 3, 3], [4, 4, 4, 4]])
    target = 0
    D = FiniteDistribution.uniform(H, target)
    hyps = [H.row(i) for i in range(H.num_rows)]
    n = selection_sample_size(len(hyps), alpha, beta, eps)
    good = 0
    trials = 400
    for t in range(trials):
        rng = trial_rng(77, "sel", t)
        sample = D.draw_sample(rng, n)
        chosen = generic_private_learner(hyps, sample, eps, rng)
        if evaluate_loss(np.array(chosen), sample, TolerantZeroOne(0)) <= 2 * alpha:
            good += 1
    assert good >= (1 - beta) * trials


# --- pipeline -------------------------------------------------------------

def test_pipeline_singleton():
    H = HypothesisClass(2, [[1, 2, 1]])
    D = FiniteDistribution.uniform(H, 0)
    res = private_learn_mc(H, D, PrivacyParams(0.5, 0.01), 0.2, 0.2, seed=1)
    assert not res.failed
    assert res.table == (1, 2, 1)
    assert ledger_total(res.ledger) == (0.5, 0.01)


def test_pipeline_three_constants():
    H = constants_class(3, 3)
    D = FiniteDistribution.uniform(H, 1)
    priv = PrivacyParams(0.5, 0.01)
    eta = stability_eta(3, 1)
    good = 0
    for seed in range(6):
        res = private_learn_mc(H, D, priv, 0.2, 0.2, seed=seed)
        assert res.pruned_list_size <= 2.0 / eta
        assert ledger_total(res.ledger) == (priv.eps, priv.delta)
        if not res.failed:
            loss = evaluate_loss(np.array(res.table), D, TolerantZeroOne(0))
            good += loss <= 0.2
    assert good >= 5


def test_pipeline_validates_parameters():
    H = constants_class(2, 2)
    D = FiniteDistribution.uniform(H, 0)
    with pytest.raises(ValueError):
        private_learn_mc(H, D, PrivacyParams(1.5, 0.01), 0.2, 0.2, seed=0)
    with pytest.raises(ValueError):
        private_learn_mc(H, D, PrivacyParams(0.5, 0.01), 1.2, 0.2, seed=0)


def test_regression_pipeline_two_constants():
    F = RealFunctionClass([[-0.9, -0.9], [0.9, 0.9]])
    D = FiniteDistribution(np.array([0.5, 0.5]), np.array([-0.9, -0.9]))
    gamma = 0.2
    good = 0
    for seed in range(3):
        r = private_learn_reg(F, D, gamma, PrivacyParams(0.9, 0.05), 0.3, 0.3, seed)
        assert not r.pipeline.failed
        # outputs sit on the midpoint grid
        from tolerantlearn.classes import label_to_midpoint
        grid = {label_to_midpoint(j, gamma) for j in range(1, 11)}
        assert set(r.values) <= grid
        loss = sum(0.5 * abs(r.values[x] + 0.9) for x in range(2))
        good += loss <= 0.3 + gamma / 2
    assert good >= 2


# --- sufficient conditions ------------------------------------------------------------

def test_point_functions_conditions():
    F = RealFunctionClass([[1.0 if j == i else 0.0 for j in range(3)]
                           for i in range(3)])
    rep = check_conditions(F, scales=[0.5])
    assert rep.pdim_report.value == 1
    assert not rep.cond3_holds           # pairwise sup-distance one
    assert rep.cover_scales[0].covering_number == 3


def test_two_constants_all_conditions_hold():
    F = RealFunctionClass([[-1.0], [1.0]])
    rep = check_conditions(F, scales=[2.0])
    assert rep.cond3_holds
    assert rep.cover_scales[0].covering_number == 1


def test_range_count_matches_distinct_entries(real_corpus):
    for F in real_corpus[:6]:
        rep = check_conditions(F, scales=[0.5])
        assert len(rep.range_values) == len({float(v) for v in F.table.ravel()})


def test_covering_number_exact_small():
    # brute-force reference on a hand-made class
    F = RealFunctionClass([[0.0], [0.3], [0.6], [1.0]])
    size, centers = covering_number(F, 0.3)
    assert size == 2
    # five points a quarter apart: two balls suffice, one does not
    F2 = RealFunctionClass([[0.0], [0.25], [0.5], [0.75], [1.0]])
    size2, _ = covering_number(F2, 0.25)
    assert size2 == 2


@pytest.mark.parametrize("radius", [-0.5, math.nan])
def test_covering_number_rejects_radius_below_zero(radius):
    # every ball is empty below 0, so no cover exists
    F = RealFunctionClass([[0.0], [0.5]])
    with pytest.raises(ValueError, match="radius must be >= 0"):
        covering_number(F, radius)
    assert covering_number(F, 0.0) == (2, [0, 1])


def test_covering_number_cap():
    big = RealFunctionClass(np.linspace(-1, 1, 25).reshape(25, 1))
    with pytest.raises(ValueError):
        covering_number(big, 0.5)


def cover_oracle(F, radius):
    """The first cover in order of size, then of `combinations`: a brute
    force over every set of centers."""
    dist = np.abs(F.table[:, None, :] - F.table[None, :, :]).max(axis=2)
    within = dist <= radius + 1e-12
    for size in range(1, F.num_rows + 1):
        for centers in combinations(range(F.num_rows), size):
            if within[list(centers)].any(axis=0).all():
                return size, list(centers)


random_classes = st.builds(random_real, st.integers(1, 12),
                           st.integers(1, 4), st.just(0.25),
                           st.integers(0, 2**32))
# past COVER_ROW_CAP: the cover search does not run, condition 3 still does
classes_past_the_cap = st.builds(random_real, st.integers(21, 80),
                                 st.integers(1, 4), st.sampled_from([0.125, 0.25]),
                                 st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(random_classes)
def test_covering_number_is_the_first_minimum_cover(F):
    for radius in (0.0, 0.25, 0.5, 1.0, 2.0):
        assert covering_number(F, radius) == cover_oracle(F, radius)


def test_covering_number_takes_the_lexicographically_first_cover():
    # {1, 3} is also a minimum cover, but {0, 2} comes first
    F = RealFunctionClass([[0.0], [0.25], [0.5], [0.75]])
    assert covering_number(F, 0.25) == (2, [0, 2])


@settings(max_examples=60, deadline=None)
@given(random_classes | classes_past_the_cap,
       st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]), min_size=1,
                max_size=4))
def test_compresses_iff_two_rows_share_a_ball(F, scales):
    # condition 3 straight from the table: a cover is smaller than the
    # class iff one row, or two rows within the radius of each other; up to
    # the cap the cover search agrees, past it no cover is reported
    dist = np.abs(F.table[:, None, :] - F.table[None, :, :]).max(axis=2)
    np.fill_diagonal(dist, np.inf)
    rep = check_conditions(F, scales=scales)
    for c in rep.cover_scales:
        assert c.compresses == (F.num_rows == 1
                                or bool((dist <= c.radius + 1e-12).any()))
        if F.num_rows > COVER_ROW_CAP:
            assert c.covering_number is None and c.centers is None
        else:
            assert c.compresses == (c.covering_number < F.num_rows
                                    or F.num_rows == 1)
    assert rep.cond3_holds == (F.num_rows == 1
                               or dist.min() <= min(scales) + 1e-12)
    assert rep.min_distance == (None if F.num_rows == 1 else dist.min())
