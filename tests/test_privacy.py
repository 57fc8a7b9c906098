import math

import numpy as np
import pytest

from tolerantlearn.classes import (FiniteDistribution, HypothesisClass,
                                   LabeledExample, RealFunctionClass,
                                   TolerantZeroOne, evaluate_loss)
from tolerantlearn.generators import constants_class
from tolerantlearn.privacy import (PrivacyLedger, PrivacyParams,
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
        out = stable_histogram([("h",)] * 120, priv, 0.5, seed)
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
                  if not stable_histogram(items, priv, 0.1, s).items)
    assert empties >= (1 - m * delta) * 1000 * 0.98


def test_absent_items_never_released():
    out = stable_histogram([("a",), ("b",)] * 50, PrivacyParams(1.0, 0.01), 0.2, 3)
    assert set(out.items) <= {("a",), ("b",)}


def test_histogram_rejects_pure_dp():
    with pytest.raises(ValueError):
        stable_histogram([("a",)], PrivacyParams(1.0, 0.0), 0.1, 0)


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


def test_histogram_accuracy_battery():
    # heavy items always enter the list with estimates within eta
    eta, beta = 0.1, 0.1
    priv = PrivacyParams(1.0, 0.01)
    items = ([("A",)] * 160 + [("B",)] * 120 + [("C",)] * 80
             + [(f"u{i}",) for i in range(40)])
    freqs = {("A",): 0.4, ("B",): 0.3, ("C",): 0.2}
    good = 0
    for seed in range(300):
        out = stable_histogram(items, priv, eta, seed)
        released = dict(zip(out.items, out.estimates))
        ok = all(h in released for h in freqs)
        for item, est in released.items():
            ok = ok and abs(est - freqs.get(item, 1 / 400)) <= eta
        good += ok
    assert good >= (1 - beta) * 300


# --- exponential selection ----------------------------------------------------------

def test_two_point_distribution_closed_form():
    h_good, h_bad = (1,), (2,)
    sample = [LabeledExample(0, 1)] * 20
    probs = selection_probabilities([h_good, h_bad], sample, 1.0)
    expected = 1.0 / (1.0 + math.exp(-10.0))
    assert abs(probs[0] - expected) < 1e-12
    assert abs(probs[1] - (1 - expected)) < 1e-12


def test_selection_degenerates_to_uniform():
    sample = [LabeledExample(0, 1)] * 20
    probs = selection_probabilities([(1,), (2,)], sample, 1e-6 / 20)
    assert abs(probs[0] - probs[1]) < 1e-5


def test_singleton_list_returned():
    sample = [LabeledExample(0, 2)]
    assert generic_private_learner([(1,)], sample, 1.0, 0) == (1,)


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


# --- ledger and pipeline -------------------------------------------------------------

def test_ledger_totals():
    led = PrivacyLedger()
    led.debit("a", 0.25, 0.01)
    led.debit("b", 0.25, 0.0)
    assert led.total_eps == 0.5
    assert led.total_delta == 0.01
    assert led.matches(PrivacyParams(0.5, 0.01))
    assert not led.matches(PrivacyParams(0.6, 0.01))


def test_ledger_matches_exact_decimal_totals():
    led = PrivacyLedger()
    for _ in range(3):
        led.debit("m", 0.1, 0.0)
    assert led.matches(PrivacyParams(0.3))
    led = PrivacyLedger()
    led.debit("a", 0.1, 0.0)
    led.debit("b", 0.2, 0.0)
    assert not led.matches(PrivacyParams(0.31))
    assert led.matches(PrivacyParams(0.3))


def test_pipeline_singleton():
    H = HypothesisClass(2, [[1, 2, 1]])
    D = FiniteDistribution.uniform(H, 0)
    res = private_learn_mc(H, D, PrivacyParams(0.5, 0.01), 0.2, 0.2, seed=1)
    assert not res.failed
    assert res.table == (1, 2, 1)
    assert res.ledger.matches(PrivacyParams(0.5, 0.01))


def test_pipeline_three_constants():
    H = constants_class(3, 3)
    D = FiniteDistribution.uniform(H, 1)
    priv = PrivacyParams(0.5, 0.01)
    eta = stability_eta(3, 1)
    good = 0
    for seed in range(6):
        res = private_learn_mc(H, D, priv, 0.2, 0.2, seed=seed)
        assert res.pruned_list_size <= 2.0 / eta
        assert res.ledger.matches(priv)
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
    assert rep.cond1_holds and rep.cond2_holds and rep.cond4_holds
    assert rep.pdim_report.value == 1
    assert not rep.cond3_holds           # pairwise sup-distance one
    assert rep.cover_scales[0].covering_number == 3


def test_two_constants_all_conditions_hold():
    F = RealFunctionClass([[-1.0], [1.0]])
    rep = check_conditions(F, scales=[2.0])
    assert rep.all_hold
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
    # greedy alone would also find 2 here; force a case where it must refine
    F2 = RealFunctionClass([[0.0], [0.25], [0.5], [0.75], [1.0]])
    size2, _ = covering_number(F2, 0.25)
    assert size2 == 2


def test_covering_number_cap():
    big = RealFunctionClass(np.linspace(-1, 1, 25).reshape(25, 1))
    with pytest.raises(ValueError):
        covering_number(big, 0.5)
