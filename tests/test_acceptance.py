"""Acceptance battery: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria A5 and A8 are
implemented exactly as stated and are expected failures; the tests print
the counterexamples and the analysis lives in the assertion messages.
"""

import itertools
import math
import time

import numpy as np
import pytest

from .conftest import ledger_total
from tolerantlearn.classes import (FiniteDistribution, HypothesisClass,
                                   RealFunctionClass, TolerantZeroOne,
                                   discretize, evaluate_loss)
from tolerantlearn.dimensions import (fat_gamma, ldim_brute_force, ldim_tau,
                                      ldim_value, log_star, pdim)
from tolerantlearn.generators import (complete_binary, constants_class,
                                      random_multiclass, random_real,
                                      threshold_class)
from tolerantlearn.online import (ConstantLearner, MajorityLearner, SoaLearner,
                                  adversary_force, soa_run)
from tolerantlearn.privacy import (PrivacyParams, generic_private_learner,
                                   private_learn_mc, release_probability,
                                   selection_probabilities,
                                   selection_sample_size, stability_eta,
                                   stable_histogram)
from tolerantlearn.reports import binomial_slack
from tolerantlearn.seeding import trial_rng
from tolerantlearn.stability import (DataSource, Support, block_labels,
                                     estimate_stability, g_parameters,
                                     sample_dk_mc)
from tolerantlearn.thresholds import extract_thresholds_mc, verify_thresholds
from tolerantlearn.trees import complete_binary_certificate


def criterion(name: str, passed: bool, detail: str, elapsed: float) -> bool:
    tag = "PASS" if passed else "FAIL"
    print(f"{name} {tag} - {detail} ({elapsed:.1f}s)")
    return passed


def acceptance_corpus(count=200, seed=611):
    sizes = list(itertools.product((2, 3, 4, 5, 6), (1, 2, 3, 4), (2, 3, 4)))
    return [random_multiclass(*sizes[i % len(sizes)], seed + i)
            for i in range(count)]


def test_a01_oracle_equivalence():
    start = time.monotonic()
    corpus = acceptance_corpus()
    checked = 0
    for H in corpus:
        for tau in (0, 1, 2):
            assert ldim_tau(H, tau).value == ldim_brute_force(H, tau, 3)
            checked += 1
    elapsed = time.monotonic() - start
    assert criterion("A1", checked == 600 and elapsed < 10,
                     f"ldim == brute force on {checked} (class, tau) pairs",
                     elapsed)


def test_a02_monotone_in_tolerance():
    start = time.monotonic()
    corpus = acceptance_corpus()
    for H in corpus:
        vals = [ldim_value(H, tau) for tau in (0, 1, 2, 3)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    elapsed = time.monotonic() - start
    assert criterion("A2", elapsed < 5,
                     f"Ldim_tau nonincreasing in tau over {len(corpus)} classes",
                     elapsed)


def test_a03_soa_mistake_bound_exhaustive():
    start = time.monotonic()
    classes = acceptance_corpus(12, seed=71) + [threshold_class(4),
                                                constants_class(4, 1)]
    sequences = 0
    for H in classes:
        for tau in (0, 1, 2):
            bound = ldim_value(H, tau)
            for h in range(H.num_rows):
                for xs in itertools.product(range(H.domain_size), repeat=6):
                    ys = H.table[h, list(xs)]
                    assert soa_run(H, tau, xs, ys).mistakes <= bound
                    sequences += 1
    elapsed = time.monotonic() - start
    assert criterion("A3", elapsed < 60,
                     f"zero violations over {sequences} exhaustive sequences",
                     elapsed)


def test_a04_adversary_forcing():
    start = time.monotonic()
    corpus = acceptance_corpus(60, seed=37)
    games = 0
    for H in corpus:
        for tau in (0, 1, 2):
            bound = ldim_value(H, 2 * tau)
            for learner in (SoaLearner(H, tau), ConstantLearner(1),
                            MajorityLearner(H)):
                t = adversary_force(H, tau, learner)
                assert t.mistakes >= bound
                games += 1
    elapsed = time.monotonic() - start
    assert criterion("A4", elapsed < 30,
                     f"forced >= Ldim_2tau mistakes in {games} games", elapsed)


@pytest.mark.xfail(strict=True, reason=(
    "the discretization lower bound fails on explicit grid classes: a "
    "fat-shattering tree constrains functions through one-sided bands whose "
    "interval labels differ across the same side, while a tolerant mistake "
    "tree needs one exact label per edge; e.g. the 4-function class "
    "[[1,.25],[.5,-.25],[-.75,-.25],[1,0]] has a valid depth-2 fat tree at "
    "gamma=0.2 but Ldim_1 of its gamma/4-discretization is 1 (brute-forced)"))
def test_a05_discretization_sandwich():
    start = time.monotonic()
    sizes = list(itertools.product((2, 3, 4), (1, 2, 3)))
    violations = []
    cases = 0
    for i in range(100):
        rows, points = sizes[i % len(sizes)]
        F = random_real(rows, points, 0.25, 4096 + i)
        for gamma in (0.2, 0.4):
            d = fat_gamma(F, gamma).value
            for n in (1, 2):
                cases += 1
                fine, _ = discretize(F, gamma / (2 * (n + 1)))
                coarse, _ = discretize(F, gamma / n)
                lo, hi = ldim_value(fine, n), ldim_value(coarse, n)
                if not (lo >= d >= hi):
                    violations.append((i, gamma, n, d, lo, hi))
    elapsed = time.monotonic() - start
    criterion("A5", not violations and elapsed < 120,
              f"{len(violations)}/{cases} sandwich violations "
              f"(first: {violations[:2]})", elapsed)
    assert elapsed < 120
    assert not violations, (
        f"{len(violations)} of {cases} cases violate the lower bound, e.g. "
        f"{violations[:3]}; the upper bound never fails")


def test_a06_threshold_extraction_at_depth_16():
    start = time.monotonic()
    H = complete_binary(16)
    cert = complete_binary_certificate(16)
    fam, trace = extract_thresholds_mc(H, 0, tree=cert)
    heights = [16] + trace.heights
    steps_ok = all(after >= math.ceil(before / 2) - 1
                   for before, after in zip(heights, heights[1:]))
    verified = verify_thresholds(fam).ok
    elapsed = time.monotonic() - start
    guaranteed = math.floor(math.log2(16) / 4)
    assert criterion(
        "A6", len(fam) >= guaranteed and steps_ok and verified and elapsed < 60,
        f"{len(fam)} verified thresholds (guarantee {guaranteed}), "
        f"{len(trace.heights)} refinement steps keep height", elapsed)


def test_a07_stability_bound():
    """G's modal table on constants_class(3, 3) has frequency at least eta
    less its slack, and loss at most alpha.  The class's support is
    settled, so no k >= 1 tournament runs: G's law is exactly {settled
    table: 1/(d+1), Fail: d/(d+1)}, here 1/2 each (d = 1), against
    eta = 1/9."""
    start = time.monotonic()
    H = constants_class(3, 3)
    D = FiniteDistribution.uniform(H, 0)
    est = estimate_stability(H, D, 0.1, 2000, seed=20260810)
    eta = stability_eta(3, 1)           # 2/18
    slack = binomial_slack(eta, 2000)   # 0.021
    ok = (est.frequency >= eta - slack
          and est.population_loss is not None and est.population_loss <= 0.1)
    elapsed = time.monotonic() - start
    assert criterion(
        "A7", ok and elapsed < 300,
        f"modal frequency {est.frequency:.3f} >= {eta - slack:.3f}, "
        f"loss {est.population_loss}", elapsed)


def test_a07_stability_bound_on_an_unsettled_class():
    """A7 where tournaments run: threshold_class(3) at target 2 is not
    settled, so G's law is that of the capped sampler, estimated from 600
    trials (d = 2, eta = 1/24)."""
    start = time.monotonic()
    H = threshold_class(3)
    D = FiniteDistribution.uniform(H, 2)
    assert Support(H, D).settled is None
    est = estimate_stability(H, D, 0.1, 600, seed=20260810)
    eta = stability_eta(2, est.d)
    slack = binomial_slack(eta, 600)
    ok = (est.frequency >= eta - slack
          and est.population_loss is not None and est.population_loss <= 0.1)
    elapsed = time.monotonic() - start
    assert criterion(
        "A7 (unsettled)", ok and elapsed < 60,
        f"modal frequency {est.frequency:.3f} >= {eta - slack:.4f}, "
        f"loss {est.population_loss}", elapsed)


def test_a08_expected_draws():
    """A successful k-tournament takes at most 4^(k+1) n draws on average,
    for k in {0, 1, d}.  On constants_class(3, 3), whose support is
    settled, each k >= 1 call runs to its cap and fails, so only k = 0 has
    draws and the test is an expected failure."""
    start = time.monotonic()
    H = constants_class(3, 3)
    D = FiniteDistribution.uniform(H, 0)
    d, n, cap = g_parameters(H, 0.1)
    support = Support(H, D)
    labels = block_labels(trial_rng(8, "a8"), H.K)
    lines = []
    impossible = []
    for k in sorted({0, 1, d}):
        draws = []
        attempts = 0
        while len(draws) < 500 and attempts < 3000:
            data = DataSource(support, n, trial_rng(8, "a8", k, attempts))
            s = sample_dk_mc(k, data, cap, labels)
            if not s.failed:
                draws.append(s.draw_count)
            attempts += 1
        bound = 4 ** (k + 1) * n
        if len(draws) >= 500:
            mean = float(np.mean(draws))
            ok = mean <= bound
            lines.append(f"k={k}: mean {mean:.1f} <= {bound} over 500 runs")
            assert ok
        else:
            impossible.append(k)
            lines.append(f"k={k}: {len(draws)} successes in {attempts} attempts")
    elapsed = time.monotonic() - start
    criterion("A8", not impossible and elapsed < 300, "; ".join(lines), elapsed)
    assert elapsed < 300
    if impossible:
        pytest.xfail(
            f"no successful draws exist at k={impossible} on the constants "
            "class: any single example identifies a constant target, so the "
            "two optimal-play runs inside the sampler always agree and the "
            "rejection loop runs into its cap; the expected-draws bound is "
            "validated on the threshold class instead (test_stability)")


def test_a09_histogram_accuracy():
    start = time.monotonic()
    eta, beta = 0.1, 0.1
    priv = PrivacyParams(1.0, 0.01)
    items = ([("A",)] * 160 + [("B",)] * 120 + [("C",)] * 80
             + [(f"u{i}",) for i in range(40)])
    heavy = {("A",): 0.4, ("B",): 0.3, ("C",): 0.2}
    good = 0
    for seed in range(1000):
        out = stable_histogram(items, priv, trial_rng(9, "a9", seed))
        released = dict(zip(out.items, out.estimates))
        ok = all(h in released for h in heavy)
        for item, est in released.items():
            ok = ok and abs(est - heavy.get(item, 1 / 400)) <= eta
        good += ok
    # closed-form tail: unique item released with probability delta/4
    tail = release_probability(1 / len(items), priv.eps, priv.delta, len(items))
    tail_ok = (tail == pytest.approx(priv.delta / 4, rel=1e-9)
               and tail <= priv.delta)
    elapsed = time.monotonic() - start
    assert criterion(
        "A9", good >= (1 - beta) * 1000 and tail_ok and elapsed < 60,
        f"both clauses held in {good}/1000 trials; unique-item release "
        f"probability {tail:.5f} <= delta={priv.delta}", elapsed)


def test_a10_selection_accuracy():
    start = time.monotonic()
    alpha, beta, eps = 0.2, 0.1, 1.0
    H = HypothesisClass(4, [[((i + x) % 4) + 1 for x in range(4)]
                            for i in range(4)]
                        + [[1, 1, 2, 2], [2, 2, 1, 1], [3, 3, 3, 3],
                           [4, 4, 4, 4]])
    D = FiniteDistribution.uniform(H, 0)
    hyps = [H.row(i) for i in range(H.num_rows)]
    assert len(hyps) <= 8
    n = selection_sample_size(len(hyps), alpha, beta, eps)
    good = 0
    for t in range(1000):
        rng = trial_rng(10, "a10", t)
        sample = D.draw_sample(rng, n)
        chosen = generic_private_learner(hyps, sample, eps, rng)
        good += evaluate_loss(np.array(chosen), sample,
                              TolerantZeroOne(0)) <= 2 * alpha
    # exact two-point distribution against the closed form
    sample = ([0] * 20, [1] * 20)
    probs = selection_probabilities([(1,), (2,)], sample, 1.0)
    closed = 1.0 / (1.0 + math.exp(-10.0))
    exact_ok = abs(probs[0] - closed) < 1e-12
    elapsed = time.monotonic() - start
    assert criterion(
        "A10", good >= (1 - beta) * 1000 and exact_ok and elapsed < 60,
        f"loss <= 2*alpha in {good}/1000 trials at n'={n}; two-point "
        f"distribution matches closed form to {abs(probs[0] - closed):.1e}",
        elapsed)


def test_a11_end_to_end_private_learner():
    """The private learner on constants_class(3, 3) reaches loss at most
    alpha in 3/4 of 200 seeds, within its list and budget bounds.  The
    class's support is settled, so no k >= 1 tournament runs: each batch's
    G has the exact law {settled table: 1/(d+1), Fail: d/(d+1)}, 1/2 each
    (d = 1), and the test exercises the histogram and the selection, not
    the sampler."""
    start = time.monotonic()
    H = constants_class(3, 3)
    D = FiniteDistribution.uniform(H, 0)
    priv = PrivacyParams(0.5, 0.01)
    eta = stability_eta(3, 1)
    trials, good = 200, 0
    for seed in range(trials):
        res = private_learn_mc(H, D, priv, 0.2, 0.2, seed=seed)
        assert res.pruned_list_size <= 2.0 / eta
        assert ledger_total(res.ledger) == (priv.eps, priv.delta)
        if not res.failed:
            loss = evaluate_loss(np.array(res.table), D, TolerantZeroOne(0))
            good += loss <= 0.2
    elapsed = time.monotonic() - start
    assert criterion(
        "A11", good >= 0.75 * trials and elapsed < 600,
        f"loss <= alpha in {good}/{trials} trials; list and budget bounds "
        "held in every trial", elapsed)


def test_a11_private_learner_on_an_unsettled_class():
    """A11 where tournaments run: on threshold_class(3) at target 2 some
    batches succeed at k >= 1 and some fail (d = 2, eta = 1/24), so the
    histogram reads the sampler's outputs.  Four seeds, each of 4,008
    batches, reach loss at most alpha within the list and budget bounds."""
    start = time.monotonic()
    H = threshold_class(3)
    D = FiniteDistribution.uniform(H, 2)
    priv = PrivacyParams(0.9, 0.01)
    eta = stability_eta(2, 2)
    losses = []
    for seed in range(4):
        res = private_learn_mc(H, D, priv, 0.2, 0.2, seed=seed)
        assert 0 < res.fail_batches < res.num_batches
        assert res.pruned_list_size <= 2.0 / eta
        assert ledger_total(res.ledger) == (priv.eps, priv.delta)
        assert not res.failed
        losses.append(evaluate_loss(np.array(res.table), D,
                                    TolerantZeroOne(0)))
    elapsed = time.monotonic() - start
    assert criterion(
        "A11 (unsettled)", max(losses) <= 0.2 and elapsed < 60,
        f"losses {losses} <= alpha; list and budget bounds held in every "
        "trial", elapsed)


def test_a12_discretized_ldim_below_pdim():
    start = time.monotonic()
    sizes = list(itertools.product((2, 3, 4), (1, 2, 3)))
    cases = 0
    for i in range(100):
        rows, points = sizes[i % len(sizes)]
        F = random_real(rows, points, 0.25, 12000 + i)
        p = pdim(F).value
        for gamma in (0.25, 0.5):
            Hd, _ = discretize(F, gamma)
            assert ldim_value(Hd, 0) <= p
            cases += 1
    elapsed = time.monotonic() - start
    assert criterion("A12", elapsed < 120,
                     f"Ldim of the discretization <= Pdim in {cases} cases",
                     elapsed)


def test_a13_log_star_values():
    start = time.monotonic()
    expected = {1: 0, 2: 1, 16: 3, 65536: 4}
    ok = all(log_star(x) == v for x, v in expected.items())
    elapsed = time.monotonic() - start
    assert criterion("A13", ok, f"log* values {expected}", elapsed)
