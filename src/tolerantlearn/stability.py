"""The tournament sampler and the globally-stable learner built on it.

The sampler recursively interleaves tournament examples (points where two
independent optimal-play runs disagree, labeled uniformly at random) between
blocks of fresh draws.  Running the online learner on such a sample forces a
mistake at every tournament position, which is what makes some single output
hypothesis land with probability bounded away from zero.  Only the
Monte-Carlo variant with a draw cap is implemented; the idealized sampler
needs exact output probabilities, which are not computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classes import (FiniteDistribution, HypothesisClass, LabeledExample,
                      TolerantZeroOne, evaluate_loss)
from .dimensions import ldim_value
from .online import predictor_table, soa_final_predictor
from .seeding import as_generator, trial_rng


class _Fail(Exception):
    """Internal signal: the sampler exceeded its draw budget."""


class _DrawStream:
    """Chunked draws from a finite distribution with a hard budget N.

    Indices are pregenerated in chunks for speed; the logical draw count
    only advances by what the sampler actually requests, so the budget
    semantics match example-by-example sampling.
    """

    CHUNK = 512

    def __init__(self, D: FiniteDistribution, rng: np.random.Generator,
                 budget: int):
        self.D = D
        self.rng = rng
        self.budget = budget
        self.used = 0
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        if self.used + n > self.budget:
            self.used += n  # record the attempt that tripped the cap
            raise _Fail
        while self._pos + n > self._buf.size:
            fresh = np.searchsorted(self.D._cum,
                                    self.rng.random(self.CHUNK), side="right")
            self._buf = np.concatenate([self._buf[self._pos:], fresh])
            self._pos = 0
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        self.used += n
        return out


@dataclass
class TournamentSample:
    """Output of the capped tournament sampler.

    On success `examples` holds k*(n+1) labeled examples, the k injected
    tournament examples sitting at `tournament_positions`.  On failure
    `examples` is None and `draw_count` records the attempt that exceeded
    the cap.
    """

    examples: Optional[list]
    failed: bool
    draw_count: int
    tournament_positions: list = field(default_factory=list)


# Rows of a class the sampler accepts: its consistency LUT holds one uint64
# row bitmask per domain point.
LUT_ROW_LIMIT = 64


def _consistent_mask_lut(H: HypothesisClass, D: FiniteDistribution) -> np.ndarray:
    """Per-point bitmask of rows consistent with (x, target(x))."""
    lut = np.zeros(H.domain_size, dtype=np.uint64)
    for x in range(H.domain_size):
        lut[x] = H.col_masks()[x].get(int(D.target[x]), 0)
    return lut


def _sample_rec(k: int, D: FiniteDistribution, H: HypothesisClass, n: int,
                stream: _DrawStream, rng: np.random.Generator, lut: np.ndarray):
    """Recursive tournament sampling; returns (examples, positions)."""
    if k == 0:
        return [], []
    full = H.full_mask
    while True:
        s0, p0 = _sample_rec(k - 1, D, H, n, stream, rng, lut)
        t0 = stream.take(n)
        s1, p1 = _sample_rec(k - 1, D, H, n, stream, rng, lut)
        t1 = stream.take(n)
        if not s0 and not s1:
            # realizable prefixes: the final predictor is a pure function of
            # the consistent row set, so compare those first
            v0 = full & int(np.bitwise_and.reduce(lut[t0])) if n else full
            v1 = full & int(np.bitwise_and.reduce(lut[t1])) if n else full
            if v0 == v1:
                continue
            f0 = predictor_table(H, 0, v0)
            f1 = predictor_table(H, 0, v1)
        else:
            e0 = s0 + [LabeledExample(int(x), int(D.target[x])) for x in t0]
            e1 = s1 + [LabeledExample(int(x), int(D.target[x])) for x in t1]
            f0 = soa_final_predictor(H, e0)
            f1 = soa_final_predictor(H, e1)
        if f0 == f1:
            continue
        x = next(i for i in range(H.domain_size) if f0[i] != f1[i])
        y = int(rng.integers(1, H.K + 1))
        if f0[x] != y:
            examples, positions = s0, p0
            t = t0
        else:
            examples, positions = s1, p1
            t = t1
        out = examples + [LabeledExample(int(xx), int(D.target[xx])) for xx in t]
        out.append(LabeledExample(x, y))
        return out, positions + [len(out) - 1]


def sample_dk_mc(k: int, D: FiniteDistribution, H: HypothesisClass, n: int,
                 N: int, seed) -> TournamentSample:
    """Draw once from the capped tournament distribution.

    k = 0 returns the empty sample.  The global draw counter covers the
    whole recursive generation; exceeding N yields the Fail outcome, which
    is a value, not an error.
    """
    if k < 0 or n < 1 and k > 0 or N < 1 and k > 0:
        raise ValueError("need k >= 0 and, for k >= 1, n >= 1 and N >= 1")
    if H.num_rows > LUT_ROW_LIMIT:
        raise ValueError(
            f"the tournament sampler keeps row subsets in a uint64 consistency "
            f"LUT and takes at most {LUT_ROW_LIMIT} rows (got {H.num_rows})")
    rng = as_generator(seed)
    if k == 0:
        return TournamentSample([], False, 0, [])
    stream = _DrawStream(D, rng, N)
    lut = _consistent_mask_lut(H, D)
    try:
        examples, positions = _sample_rec(k, D, H, n, stream, rng, lut)
        return TournamentSample(examples, False, stream.used, positions)
    except _Fail:
        return TournamentSample(None, True, stream.used, [])


# ---------------------------------------------------------------------------
# the globally-stable learner G
# ---------------------------------------------------------------------------

@dataclass
class GRunResult:
    table: Optional[tuple]       # None on Fail
    failed: bool
    k: int
    n: int
    cap: int
    draw_count: int


def g_parameters(H: HypothesisClass, alpha: float, d: Optional[int] = None):
    """(d, n, N) used by the stable learner at accuracy alpha.

    n = ceil(d * ln(K) / alpha); the natural log matches the e^{-n*alpha}
    generalization argument.  N = (4K)^(d+1) * n caps the sampler.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if d is None:
        d = ldim_value(H, 0)
    n = math.ceil(d * math.log(H.K) / alpha)
    cap = (4 * H.K) ** (d + 1) * n
    return d, n, cap


def run_g(H: HypothesisClass, D: FiniteDistribution, alpha: float, seed,
          d: Optional[int] = None) -> GRunResult:
    """One run of the stable learner: draw k uniformly, play SOA on S o T."""
    d, n, cap = g_parameters(H, alpha, d)
    rng = as_generator(seed)
    k = int(rng.integers(0, d + 1))
    sample = sample_dk_mc(k, D, H, n, cap, rng)
    if sample.failed:
        return GRunResult(None, True, k, n, cap, sample.draw_count)
    tail = D.draw_sample(rng, n)
    table = soa_final_predictor(H, sample.examples + tail)
    return GRunResult(table, False, k, n, cap, sample.draw_count)


@dataclass
class GsEstimate:
    """Monte-Carlo estimate of the stability guarantee."""

    modal_table: Optional[tuple]
    frequency: float             # modal count / all trials (Fail included)
    trials: int
    population_loss: Optional[float]
    fail_count: int
    counts: dict = field(default_factory=dict)

    @property
    def fail_rate(self) -> float:
        return self.fail_count / self.trials


def estimate_stability(H: HypothesisClass, D: FiniteDistribution, alpha: float,
                       trials: int, seed: int,
                       d: Optional[int] = None) -> GsEstimate:
    """Tally exact-table equality of stable-learner outputs over seeded trials.

    Fail outcomes are tallied separately and stay in the frequency
    denominator.  Ties for the mode break toward the smallest table.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    d_val, _, _ = g_parameters(H, alpha, d)
    counts = {}
    fails = 0
    for i in range(trials):
        res = run_g(H, D, alpha, trial_rng(seed, "g", i), d=d_val)
        if res.failed:
            fails += 1
        else:
            counts[res.table] = counts.get(res.table, 0) + 1
    if not counts:
        return GsEstimate(None, 0.0, trials, None, fails, counts)
    modal = min(counts, key=lambda t: (-counts[t], t))
    loss = evaluate_loss(np.array(modal), D, TolerantZeroOne(0))
    return GsEstimate(modal, counts[modal] / trials, trials, loss, fails, counts)
