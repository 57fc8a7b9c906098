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

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .classes import (FiniteDistribution, HypothesisClass, RealFunctionClass,
                      TolerantZeroOne, discretize, evaluate_loss,
                      label_to_midpoint, row_mask, value_to_label)
from .dimensions import DimensionReport, pdim
from .seeding import as_generator, trial_rng
from .stability import Support, g_parameters, stability_eta, stable_tables
# bound only for bench/tracing.py, which wraps them under these names
from .dimensions import ldim_value  # noqa: F401
from .stability import run_g  # noqa: F401

# Sample-size constants behind the O(.) bounds; calibration choices, not
# derived quantities.  Surfaced in every pipeline result.
BATCH_CONSTANT = 16.0      # batches k = ceil(C1 * ln(1/(eta*beta*delta)) / (eta*eps))
SELECT_CONSTANT = 8.0      # n' = ceil(C * (ln|L| + ln(1/beta)) / (alpha*eps))
MAX_BATCHES = 10 ** 7      # num_batches a run may start (see private_learn_mc)


@dataclass(frozen=True)
class PrivacyParams:
    """An (eps, delta) differential-privacy budget."""

    eps: float
    delta: float = 0.0

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, "
                             f"got {self.eps}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be nonnegative and finite, "
                             f"got {self.delta}")


def _exact_budget(v) -> Fraction:
    """A budget as the decimal it was written as (its shortest float repr).

    Fractions pass through, so a mechanism can be charged an exact share of
    a declared budget.
    """
    return v if isinstance(v, Fraction) else Fraction(repr(float(v)))


@dataclass
class PrivacyLedger:
    """Append-only record of mechanism invocations and their budgets.

    Budgets are kept as the decimals they were written as, so three debits
    of 0.1 match a declared 0.3; `entries` and the totals are their floats.
    """

    records: list = field(default_factory=list)

    def debit(self, mechanism: str, eps, delta):
        self.records.append((mechanism, _exact_budget(eps), _exact_budget(delta)))

    @property
    def entries(self) -> list:
        return [(m, float(e), float(d)) for m, e, d in self.records]

    def _totals(self) -> tuple:
        return (sum(e for _, e, _ in self.records),
                sum(d for _, _, d in self.records))

    @property
    def total_eps(self) -> float:
        return float(self._totals()[0])

    @property
    def total_delta(self) -> float:
        return float(self._totals()[1])

    def matches(self, priv: PrivacyParams) -> bool:
        return self._totals() == (_exact_budget(priv.eps),
                                  _exact_budget(priv.delta))


# ---------------------------------------------------------------------------
# stable histogram
# ---------------------------------------------------------------------------

@dataclass
class HistogramOutput:
    """Released items with clamped frequency estimates and the threshold."""

    items: list
    estimates: list
    threshold: float


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


def stable_histogram(items: Sequence, priv: PrivacyParams,
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
    return HistogramOutput(released, estimates, t)


# ---------------------------------------------------------------------------
# generic private learner (exponential selection)
# ---------------------------------------------------------------------------

def selection_probabilities(hypotheses: Sequence, sample, eps: float,
                            loss=TolerantZeroOne(0)) -> np.ndarray:
    """Exact output distribution of the exponential selection on (xs, ys)."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
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
    choice = FiniteDistribution(probs, np.arange(len(probs)))
    return hypotheses[int(choice.draw_indices(as_generator(seed), 1)[0])]


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


def batch_count(eta: float, beta: float, delta: float, eps: float) -> int:
    """Stable-learner batches the histogram needs at frequency eta.

    A count past the float range is refused, as when eta has underflowed
    to 0 because K^(d+1) is past it.
    """
    small = eta * beta * delta
    k = (BATCH_CONSTANT * math.log(1.0 / small) / (eta * eps)
         if small > 0 and eta * eps > 0 else math.inf)
    if not k < math.inf:
        raise ValueError(f"eta = {eta:g} needs more stable-learner batches "
                         f"than a float can count")
    return math.ceil(k)


def private_learn_mc(H: HypothesisClass, D: FiniteDistribution,
                     priv: PrivacyParams, alpha: float, beta: float,
                     seed) -> PipelineResult:
    """Stable-learner batches -> stable histogram -> prune -> selection.

    The histogram gets (eps/2, delta) at accuracy eta/8, the selection step
    gets eps/2 at accuracy (alpha/2, beta/3); simple composition totals the
    declared (eps, delta).  Both halves are debited, and the total checked,
    before the prune, so both returns carry them.  The batches are
    `stable_tables` on the "batch" stream, over one `Support`, planned by
    `g_parameters` at alpha/2, whose d also gives eta.
    Batches whose stable run fails contribute a sentinel item that pruning
    removes.  A run of more than `MAX_BATCHES` batches, over an hour at
    20-250 us a batch (2-vCPU host), is refused before any runs; d = 1 at
    K = 2**20 would need 1.4e9.
    A batch on a settled support (see `stability`) is a decided Fail or,
    at k = 0, the settled table, read off its k draw alone.
    """
    for name, v in (("eps", priv.eps), ("delta", priv.delta),
                    ("alpha", alpha), ("beta", beta)):
        if not 0 < v < 1:
            raise ValueError(f"{name} must lie in (0, 1), got {v}")
    if H.K < 2:
        # eta = (K - 1) / ... is 0 at K = 1, so no batch count reaches it
        raise ValueError(f"the private learner needs K >= 2 labels, "
                         f"got K = {H.K}")
    plan = g_parameters(H, alpha / 2.0)
    d = plan[0]
    eta = stability_eta(H.K, d)
    k = batch_count(eta, beta, priv.delta, priv.eps)
    support = Support(H, D)     # the sampler refuses bad input first
    if k > MAX_BATCHES:
        raise ValueError(f"num_batches = {k} exceeds the limit of {MAX_BATCHES}")
    ledger = PrivacyLedger()
    half_eps = _exact_budget(priv.eps) / 2

    items = stable_tables(support, plan, k, seed, "batch")
    fail_batches = items.count(None)

    hist = stable_histogram(items, PrivacyParams(priv.eps / 2.0, priv.delta),
                            trial_rng(seed, "hist"))
    ledger.debit("stable-histogram", half_eps, priv.delta)
    ledger.debit("generic-learner", half_eps, 0.0)
    if not ledger.matches(priv):
        raise AssertionError("privacy ledger does not total the declared budget")

    pruned = [(it, est) for it, est in zip(hist.items, hist.estimates)
              if it is not None and est > 0.75 * eta]
    diagnostics = {
        "d": d,
        "eta": eta,
        "histogram_threshold": hist.threshold,
        "calibration_constants": {"C1": BATCH_CONSTANT, "C": SELECT_CONSTANT,
                                  "note": "calibration choices, not derived"},
    }
    if not pruned:
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
    return PipelineResult(chosen, False, eta, k, fail_batches,
                          len(hist.items), len(tables), n_prime, ledger,
                          diagnostics)


@dataclass
class RegressionResult:
    values: Optional[tuple]      # midpoint-grid predictions, None on failure
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
        return RegressionResult(None, res)
    values = tuple(label_to_midpoint(int(j), gamma) for j in res.table)
    return RegressionResult(values, res)


# ---------------------------------------------------------------------------
# sufficient-condition checker
# ---------------------------------------------------------------------------

COVER_ROW_CAP = 20


def _sup_distances(F: RealFunctionClass) -> np.ndarray:
    """Sup-norm distances between F's rows, one column at a time."""
    return functools.reduce(np.maximum, (np.abs(col[:, None] - col[None, :])
                                         for col in F.table.T))


def _radius(r) -> float:
    # below 0 every ball is empty, so no cover exists; NaN fails this too
    if not r >= 0:
        raise ValueError(f"cover radius must be >= 0, got {r}")
    return float(r)


def covering_number(F: RealFunctionClass, radius: float):
    """Exact size of the smallest proper sup-norm cover at this radius.

    Returns (size, centers), the lexicographically first minimum cover as
    sorted row indices.  Sizes 1, 2, ... are tried in turn, each by a
    depth-first search over increasing center indices that drops a branch
    once the balls from the next index on cannot cover what is left.  That
    is exponential, so classes past `COVER_ROW_CAP` rows are refused.
    """
    radius = _radius(radius)
    if F.num_rows > COVER_ROW_CAP:
        raise ValueError(f"exact covers are capped at {COVER_ROW_CAP} rows")
    return _first_cover(_sup_distances(F), radius)


def _first_cover(dist: np.ndarray, radius: float):
    m = len(dist)
    full = (1 << m) - 1
    balls = [row_mask(row <= radius + 1e-12) for row in dist]
    reach = [0] * (m + 1)       # reach[i]: the union of balls[i:]
    for i in range(m - 1, -1, -1):
        reach[i] = reach[i + 1] | balls[i]

    def first(left, start, covered):
        # the first `left` centers from `start` on that complete the cover
        if covered == full:
            return []
        for i in range(start, m) if left else ():
            if covered | reach[i] != full:
                return None
            rest = first(left - 1, i + 1, covered | balls[i])
            if rest is not None:
                return [i, *rest]
        return None

    for size in range(1, m + 1):
        centers = first(size, 0, 0)
        if centers is not None:
            return size, centers


@dataclass
class CoverScaleReport:
    radius: float
    covering_number: Optional[int]     # None past COVER_ROW_CAP rows
    centers: Optional[list]
    compresses: bool    # some ball holds two functions: cover < |F|


@dataclass
class ConditionsReport:
    range_values: list
    cover_scales: list
    min_distance: Optional[float]      # None for a one-row class
    cond3_holds: bool
    pdim_report: DimensionReport


def check_conditions(F: RealFunctionClass, scales=(0.25, 0.5, 1.0)) -> ConditionsReport:
    """Check condition 3 (sup-norm covers) on an explicit class.

    Conditions 1 (class and domain finite), 2 (finite range) and 4 (finite
    Pollard pseudo-dimension) hold for every explicit table; the report
    keeps their witnesses, the range values and Pdim with its certificate.
    A scale compresses when a cover is smaller than the class: one row, or
    two rows within the radius.  That only switches on as the radius
    grows, so condition 3 holds iff `min_distance`, the least distance
    between two rows, is within the smallest scale.  Up to `COVER_ROW_CAP`
    rows each scale also gets its first minimum cover (see
    `covering_number`), and None above that.
    """
    radii = sorted(_radius(r) for r in scales)
    if not radii:
        raise ValueError("no scales to check")
    dist = _sup_distances(F)
    m = F.num_rows
    gap = float(dist[~np.eye(m, dtype=bool)].min()) if m > 1 else None
    covers = []
    for r in radii:
        size, centers = (_first_cover(dist, r) if m <= COVER_ROW_CAP
                         else (None, None))
        compresses = m == 1 or gap <= r + 1e-12
        covers.append(CoverScaleReport(r, size, centers, compresses))
    return ConditionsReport(sorted({float(v) for v in F.table.ravel()}), covers,
                            gap, covers[0].compresses, pdim(F))
