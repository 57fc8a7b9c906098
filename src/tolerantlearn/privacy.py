"""Private selection: stable histogram, exponential selection, full pipeline.

The histogram perturbs each present item's empirical frequency with
double-exponential noise and releases it only above a threshold calibrated
to (eps, delta); items absent from the input are never released.  The
generic learner samples a hypothesis with probability proportional to
exp(-eps * n * loss / 2), the exponential mechanism at empirical-loss
sensitivity 1/n.  The composed learner runs the stable learner on batches,
publishes frequent outputs, prunes, and selects.  Every mechanism invocation
debits a budget ledger that the pipeline totals against its declared
parameters.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .classes import (FiniteDistribution, HypothesisClass, RealFunctionClass,
                      TolerantZeroOne, discretize, evaluate_loss,
                      label_to_midpoint, row_mask, value_to_label)
from .dimensions import DimensionReport, ldim_value, pdim
from .seeding import as_generator, trial_rng
from .stability import GRunResult, g_parameters, run_g

# Sample-size constants behind the O(.) bounds; calibration choices, not
# derived quantities.  Surfaced in every pipeline result.
BATCH_CONSTANT = 16.0      # batches k = ceil(C1 * ln(1/(eta*beta*delta)) / (eta*eps))
SELECT_CONSTANT = 8.0      # n' = ceil(C * (ln|L| + ln(1/beta)) / (alpha*eps))


@dataclass(frozen=True)
class PrivacyParams:
    """An (eps, delta) differential-privacy budget."""

    eps: float
    delta: float = 0.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


def _exact_budget(v) -> Fraction:
    """A budget as the decimal it was written as (its shortest float repr).

    Fractions pass through, so a mechanism can be charged an exact share of
    a declared budget.
    """
    return v if isinstance(v, Fraction) else Fraction(repr(float(v)))


@dataclass
class PrivacyLedger:
    """Append-only record of mechanism invocations and their budgets.

    `entries` keeps float budgets for reports; `matches` totals the exact
    decimal budgets, so three debits of 0.1 match a declared 0.3.
    """

    entries: list = field(default_factory=list)
    exact_entries: list = field(default_factory=list, repr=False)

    def debit(self, mechanism: str, eps, delta):
        self.entries.append((mechanism, float(eps), float(delta)))
        self.exact_entries.append((_exact_budget(eps), _exact_budget(delta)))

    @property
    def total_eps(self) -> float:
        return sum(e for _, e, _ in self.entries)

    @property
    def total_delta(self) -> float:
        return sum(d for _, _, d in self.entries)

    def matches(self, priv: PrivacyParams) -> bool:
        return (sum(e for e, _ in self.exact_entries) == _exact_budget(priv.eps)
                and sum(d for _, d in self.exact_entries)
                == _exact_budget(priv.delta))


# ---------------------------------------------------------------------------
# stable histogram
# ---------------------------------------------------------------------------

@dataclass
class HistogramOutput:
    """Released items with clamped frequency estimates plus the run geometry."""

    items: list
    estimates: list
    threshold: float
    noise_scale: float
    eta: float
    input_size: int


def _sort_key(item):
    # None is the pipeline's fail sentinel; order it first, then by value
    return (item is not None, item)


def histogram_threshold(eps: float, delta: float, m: int) -> float:
    return 2.0 * math.log(2.0 / delta) / (eps * m) + 1.0 / m


def histogram_noise_scale(eps: float, m: int) -> float:
    return 2.0 / (eps * m)


def release_probability(freq: float, eps: float, delta: float, m: int) -> float:
    """Exact probability that an item at this frequency is released."""
    t = histogram_threshold(eps, delta, m)
    b = histogram_noise_scale(eps, m)
    if freq <= t:
        return 0.5 * math.exp(-(t - freq) / b)
    return 1.0 - 0.5 * math.exp(-(freq - t) / b)


def stable_histogram(items: Sequence, priv: PrivacyParams, eta: float,
                     seed) -> HistogramOutput:
    """Release items whose noised frequency clears the stability threshold.

    Noise is symmetric double-exponential at scale 2/(eps*m) drawn by
    inverse transform; the threshold 2*ln(2/delta)/(eps*m) + 1/m keeps the
    release probability of an item unique to one of two neighboring inputs
    at most delta.  Requires delta > 0; estimates are clamped to [0, 1].
    """
    items = list(items)
    if not items:
        raise ValueError("empty input multiset")
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if priv.delta <= 0:
        raise ValueError("the stable histogram is approximately private; "
                         "delta must be positive")
    rng = as_generator(seed)
    m = len(items)
    t = histogram_threshold(priv.eps, priv.delta, m)
    b = histogram_noise_scale(priv.eps, m)
    counts = Counter(items)
    released, estimates = [], []
    for item in sorted(counts, key=_sort_key):
        u = rng.random() - 0.5
        noise = -b * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))
        noisy = counts[item] / m + noise
        if noisy > t:
            released.append(item)
            estimates.append(min(max(noisy, 0.0), 1.0))
    return HistogramOutput(released, estimates, t, b, eta, m)


# ---------------------------------------------------------------------------
# generic private learner (exponential selection)
# ---------------------------------------------------------------------------

def selection_probabilities(hypotheses: Sequence, sample, eps: float,
                            loss=TolerantZeroOne(0)) -> np.ndarray:
    """Exact output distribution of the exponential selection on (xs, ys)."""
    n = len(sample[0])
    losses = evaluate_loss(np.array(hypotheses), sample, loss)
    scores = -eps * n * losses / 2.0
    scores -= scores.max()
    weights = np.exp(scores)
    return weights / weights.sum()


def generic_private_learner(hypotheses: Sequence, sample, eps: float, seed,
                            loss=TolerantZeroOne(0)):
    """Select a low-empirical-loss hypothesis with pure eps-DP."""
    if not hypotheses:
        raise ValueError("empty hypothesis list")
    if not len(sample[0]):
        raise ValueError("empty selection sample")
    probs = selection_probabilities(hypotheses, sample, eps, loss)
    rng = as_generator(seed)
    idx = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    return hypotheses[min(idx, len(hypotheses) - 1)]


def selection_sample_size(list_size: int, alpha: float, beta: float,
                          eps: float) -> int:
    """Planner: samples needed by the selection step at (alpha, beta)."""
    if list_size < 1:
        raise ValueError("list must be nonempty")
    return math.ceil(SELECT_CONSTANT * (math.log(list_size)
                                        + math.log(1.0 / beta)) / (alpha * eps))


# ---------------------------------------------------------------------------
# the composed private learner
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    table: Optional[tuple]
    failed: bool
    eta: float
    num_batches: int
    fail_batches: int
    raw_list_size: int
    pruned_list_size: int
    select_sample_size: int
    ledger: PrivacyLedger
    diagnostics: dict = field(default_factory=dict)


def stability_eta(K: int, d: int) -> float:
    """The guaranteed output frequency of the stable learner."""
    return (K - 1) / ((d + 1) * K ** (d + 1))


def batch_count(eta: float, beta: float, delta: float, eps: float) -> int:
    return math.ceil(BATCH_CONSTANT
                     * math.log(1.0 / (eta * beta * delta)) / (eta * eps))


def private_learn_mc(H: HypothesisClass, D: FiniteDistribution,
                     priv: PrivacyParams, alpha: float, beta: float, seed,
                     d: Optional[int] = None) -> PipelineResult:
    """Stable-learner batches -> stable histogram -> prune -> selection.

    The histogram gets (eps/2, delta) at accuracy eta/8, the selection step
    gets eps/2 at accuracy (alpha/2, beta/3); simple composition totals the
    declared (eps, delta).  Batches whose stable run fails contribute a
    sentinel item that pruning removes.
    """
    for name, v in (("eps", priv.eps), ("delta", priv.delta),
                    ("alpha", alpha), ("beta", beta)):
        if not 0 < v < 1:
            raise ValueError(f"{name} must lie in (0, 1), got {v}")
    if d is None:
        d = ldim_value(H, 0)
    eta = stability_eta(H.K, d)
    k = batch_count(eta, beta, priv.delta, priv.eps)
    ledger = PrivacyLedger()
    half_eps = _exact_budget(priv.eps) / 2

    items = []
    fail_batches = 0
    for i in range(k):
        res = run_g(H, D, alpha / 2.0, trial_rng(seed, "batch", i), d=d)
        if res.failed:
            fail_batches += 1
            items.append(None)
        else:
            items.append(res.table)

    hist = stable_histogram(items, PrivacyParams(priv.eps / 2.0, priv.delta),
                            eta / 8.0, trial_rng(seed, "hist"))
    ledger.debit("stable-histogram", half_eps, priv.delta)

    pruned = [(it, est) for it, est in zip(hist.items, hist.estimates)
              if it is not None and est > 0.75 * eta]
    diagnostics = {
        "d": d,
        "eta": eta,
        "histogram_threshold": hist.threshold,
        "released_estimates": dict(zip(map(str, hist.items), hist.estimates)),
        "calibration_constants": {"C1": BATCH_CONSTANT, "C": SELECT_CONSTANT,
                                  "note": "calibration choices, not derived"},
    }
    if not pruned:
        ledger.debit("generic-learner", half_eps, 0.0)
        diagnostics["reason"] = ("no hypothesis survived the histogram and "
                                 "prune steps" if fail_batches < k else
                                 "every stable-learner batch failed")
        return PipelineResult(None, True, eta, k, fail_batches,
                              len(hist.items), 0, 0, ledger, diagnostics)

    tables = [it for it, _ in pruned]
    n_prime = selection_sample_size(len(tables), alpha / 2.0, beta / 3.0,
                                    priv.eps / 2.0)
    sel_sample = D.draw_sample(trial_rng(seed, "sprime"), n_prime)
    chosen = generic_private_learner(tables, sel_sample, priv.eps / 2.0,
                                     trial_rng(seed, "select"))
    ledger.debit("generic-learner", half_eps, 0.0)
    if not ledger.matches(priv):
        raise AssertionError("privacy ledger does not total the declared budget")
    return PipelineResult(chosen, False, eta, k, fail_batches,
                          len(hist.items), len(tables), n_prime, ledger,
                          diagnostics)


@dataclass
class RegressionResult:
    values: Optional[tuple]      # midpoint-grid predictions, None on failure
    label_table: Optional[tuple]
    gamma: float
    pipeline: PipelineResult


def private_learn_reg(F: RealFunctionClass, D: FiniteDistribution,
                      gamma: float, priv: PrivacyParams, alpha: float,
                      beta: float, seed) -> RegressionResult:
    """Discretize, learn the interval class privately, map back to midpoints.

    The absolute-loss guarantee degrades to alpha + gamma/2: alpha from the
    discretized learner, gamma/2 from re-centering labels on interval
    midpoints.
    """
    Hd, _ = discretize(F, gamma)
    Dd = FiniteDistribution(D.weights, value_to_label(D.target, gamma))
    res = private_learn_mc(Hd, Dd, priv, alpha, beta, seed)
    if res.failed:
        return RegressionResult(None, None, gamma, res)
    values = tuple(label_to_midpoint(int(j), gamma) for j in res.table)
    return RegressionResult(values, res.table, gamma, res)


# ---------------------------------------------------------------------------
# sufficient-condition checker
# ---------------------------------------------------------------------------

COVER_ROW_CAP = 20


def covering_number(F: RealFunctionClass, radius: float):
    """Exact size of the smallest proper sup-norm cover at this radius.

    Greedy gives an upper bound; exhaustive search over smaller center sets
    refines it to the exact minimum.  Returns (size, center row indices).
    """
    # below 0 (or NaN) every ball is empty and the greedy cover never ends
    if not radius >= 0:
        raise ValueError(f"cover radius must be >= 0, got {radius}")
    m = F.num_rows
    if m > COVER_ROW_CAP:
        raise ValueError(f"exact covers are capped at {COVER_ROW_CAP} rows")
    dist = np.max(np.abs(F.table[:, None, :] - F.table[None, :, :]), axis=2)
    full = (1 << m) - 1
    balls = [row_mask(row <= radius + 1e-12) for row in dist]

    covered, centers = 0, []
    while covered != full:
        best = max(range(m),
                   key=lambda i: ((balls[i] & ~covered).bit_count(), -i))
        centers.append(best)
        covered |= balls[best]
    greedy = sorted(centers)

    for size in range(1, len(greedy)):
        for combo in combinations(range(m), size):
            u = 0
            for i in combo:
                u |= balls[i]
            if u == full:
                return size, list(combo)
    return len(greedy), greedy


@dataclass
class CoverScaleReport:
    radius: float
    covering_number: int
    centers: list
    compresses: bool    # some ball holds two functions: cover < |F|


@dataclass
class ConditionsReport:
    class_size: int
    domain_size: int
    cond1_holds: bool
    range_values: list
    cond2_holds: bool
    cover_scales: list
    cond3_holds: bool
    pdim_report: DimensionReport
    cond4_holds: bool

    @property
    def all_hold(self) -> bool:
        return (self.cond1_holds and self.cond2_holds
                and self.cond3_holds and self.cond4_holds)


def check_conditions(F: RealFunctionClass, scales=(0.25, 0.5, 1.0)) -> ConditionsReport:
    """Evaluate the four private-learnability conditions on an explicit class.

    For explicit tables conditions 1 and 2 hold outright and are reported
    with witnesses.  Condition 3 is scored per scale: a scale passes when
    the exact cover is smaller than the class itself (a single-function
    class passes trivially); pairwise-separated classes fail at scales
    below their separation, which is the finite shadow of having no finite
    cover.  Condition 4 reports the Pollard pseudo-dimension with its
    certificate.
    """
    values = sorted({float(v) for v in F.table.ravel()})
    cover_reports = []
    for r in sorted(scales):
        size, centers = covering_number(F, float(r))
        cover_reports.append(CoverScaleReport(
            float(r), size, centers,
            compresses=(size < F.num_rows or F.num_rows == 1)))
    pd = pdim(F)
    return ConditionsReport(
        class_size=F.num_rows,
        domain_size=F.domain_size,
        cond1_holds=True,
        range_values=values,
        cond2_holds=True,
        cover_scales=cover_reports,
        cond3_holds=all(c.compresses for c in cover_reports),
        pdim_report=pd,
        cond4_holds=True,
    )
