"""The tournament sampler and the globally-stable learner built on it.

The sampler recursively interleaves tournament examples (points where two
independent optimal-play runs disagree, labeled uniformly at random) between
blocks of fresh draws.  Running the online learner on such a sample forces a
mistake at every tournament position, which is what makes some single output
hypothesis land with probability bounded away from zero.  Only the
Monte-Carlo variant with a draw cap is implemented; the idealized sampler
needs exact output probabilities, which are not computable.

Some supports make every tournament fail, and that is decided without
drawing.  If the target is realizable on supp(D) (the AND of the support
points' consistent-row masks is nonzero), the version space a round half
reaches by folding its n >= 1 target-labeled draws is the AND of their
masks, so it lies in the AND-closure of the support's masks.  If SOA_0's
`predictor_table` is the same at every mask of that closure, every k = 1
round has f0 == f1, so the first level runs into the cap with no label
drawn and trips at N - N % 2n + (n if N % 2n < n else 2n); every deeper
level starts by recursing into level 1 and trips at the same count.  The
closure is searched breadth-first and stops at the first predictor that
differs; above CLOSURE_LIMIT version spaces the sampler just runs.  The
decision and the points' consistent-row masks are cached on the class per
target and support.  A decided Fail does not advance a generator the
caller passed in; `run_g` and `estimate_stability` never use it after a
Fail.

Row subsets are Python-int bitmasks here as in every module, so a class
may have any number of rows.  Rejection rounds are cheap to score.  At
k = 1 no tournament label is drawn between rounds, so every round already
in the draw buffer (and within the budget) is scored before the stream
advances, each half by the AND of its points' consistent-row masks, and
only rounds whose masks differ or are empty are walked.  Deeper levels
carry SOA's `online.SoaState` up from the child sample and fold only each
round's fresh draws into it, the realizable stretch by ANDing the same
masks.  Buffer refills stay lazy: the generator is shared with the
tournament labels, so drawing a chunk before a round needs it would change
every later label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classes import (FiniteDistribution, HypothesisClass, TolerantZeroOne,
                      evaluate_loss)
from .dimensions import ldim_value
from .online import SoaState, predictor_table, soa_final_predictor
from .seeding import as_generator, trial_rng


class _Fail(Exception):
    """Internal signal: the sampler exceeded its draw budget."""


class _DrawStream:
    """Chunked draws from a finite distribution with a hard budget N.

    Indices are pregenerated in chunks for speed; the logical draw count
    only advances by what the sampler actually requests, so the budget
    semantics match example-by-example sampling.  A chunk is drawn only
    when the next request needs it: the generator is shared with the
    tournament labels, so drawing ahead would change every later label.
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

    @property
    def buffered(self) -> int:
        return self._buf.size - self._pos

    def refill(self):
        """Append one chunk of fresh draws to the unread part of the buffer."""
        fresh = self.D.draw_indices(self.rng, self.CHUNK)
        self._buf = np.concatenate([self._buf[self._pos:], fresh])
        self._pos = 0

    def peek(self, m: int) -> np.ndarray:
        return self._buf[self._pos:self._pos + m]

    def advance(self, m: int):
        self._pos += m
        self.used += m

    def take(self, n: int) -> np.ndarray:
        if self.used + n > self.budget:
            self.used += n  # record the attempt that tripped the cap
            raise _Fail
        while self.buffered < n:
            self.refill()
        out = self.peek(n)
        self.advance(n)
        return out


@dataclass
class TournamentSample:
    """Output of the capped tournament sampler.

    On success `xs` and `ys` are the k*(n+1) domain points and labels of
    the sample, the k injected tournament examples sitting at
    `tournament_positions`.  On failure both are None and `draw_count`
    records the attempt that exceeded the cap.
    """

    xs: Optional[np.ndarray]
    ys: Optional[np.ndarray]
    failed: bool
    draw_count: int
    tournament_positions: list = field(default_factory=list)


# Largest AND-closure of the support's masks searched for the k = 1
# impossibility decision; past it the sampler runs.  The closure of m
# support points can hold 2^m - 1 version spaces, each costing one
# `predictor_table` call.
CLOSURE_LIMIT = 1024


def _tournaments_fail(H: HypothesisClass, masks: list) -> bool:
    """True if SOA_0's predictor is one table on the AND-closure of `masks`.

    `masks` are the support points' consistent-row masks.  Unless their
    AND is nonzero (the target is realizable on the support) and the
    closure fits in CLOSURE_LIMIT, nothing is decided and False returns.
    """
    basis = list(dict.fromkeys(masks))
    whole = H.full_mask
    for m in basis:
        whole &= m
    if not whole:
        return False
    seen = set(basis)
    level = basis
    first = predictor_table(H, 0, basis[0])
    while level:
        if len(seen) > CLOSURE_LIMIT:
            return False
        if any(predictor_table(H, 0, m) != first for m in level):
            return False
        grown = []
        for m in level:
            for b in basis:
                c = m & b
                if c not in seen:
                    seen.add(c)
                    grown.append(c)
        level = grown
    return True


def _support_entry(H: HypothesisClass, D: FiniteDistribution,
                   labels: list) -> tuple:
    """(per-point masks, whether every k >= 1 tournament fails), cached on H.

    The mask of point x is the bitmask of rows consistent with
    (x, target(x)).
    """
    support = D.weights > 0
    key = (tuple(labels), support.tobytes())
    hit = H._support_cache.get(key)
    if hit is None:
        cols = H.col_masks()
        masks = [cols[x].get(y, 0) for x, y in enumerate(labels)]
        drawn = [m for m, on in zip(masks, support.tolist()) if on]
        hit = (masks, _tournaments_fail(H, drawn))
        H._support_cache[key] = hit
    return hit


_NO_POINTS = np.empty(0, dtype=np.int64)


class _Sampler:
    """One draw of the capped tournament sampler.

    A sample is kept as an int array of domain points (every point but the
    tournament ones labeled by the target) plus the tournament positions
    and labels, together with the `SoaState` of SOA_0 after it.  A round
    folds only its n fresh draws into the state its child sample carried
    up, so no prefix is ever replayed.
    """

    def __init__(self, H: HypothesisClass, n: int, stream: _DrawStream,
                 rng: np.random.Generator, masks: list, target: list):
        self.H = H
        self.n = n
        self.stream = stream
        self.rng = rng
        self.masks = masks
        self.target = target

    def fold(self, state: SoaState, t: list) -> SoaState:
        """Fold the target-labeled draws `t` into `state`, in place.

        While the prefix is realizable the running AND of the draws' masks
        is the version space; the draw that empties it and all later ones
        go through `observe`.
        """
        start = 0
        if state.base is None:
            mask, masks = state.mask, self.masks
            for x in t:
                m = mask & masks[x]
                if not m:
                    break
                mask = m
                start += 1
            state.mask = mask
        for x in t[start:]:
            state.observe(x, self.target[x])
        return state

    def accept(self, sides, f0: tuple, f1: tuple):
        """Draw a label at the first disagreement x; keep the side that errs.

        Each side is (child points, round draws, positions, labels, state),
        the draws already folded into the state.  The kept side's predictor
        disagrees with the drawn label at x, so SOA errs there.
        """
        x = next(i for i in range(self.H.domain_size) if f0[i] != f1[i])
        y = int(self.rng.integers(1, self.H.K + 1))
        prefix, t, positions, labels, state = sides[0] if f0[x] != y else sides[1]
        xs = np.concatenate([prefix, t, [x]])
        state.observe(x, y)
        return xs, positions + [xs.size - 1], labels + [y], state

    def first_level(self):
        """k = 1: rounds scored a buffered block at a time.

        No tournament label is drawn between k = 1 rounds, so every round
        that fits both in the stream's buffer and in the remaining budget
        is scored before the stream advances: each half by the AND of its
        points' consistent-row masks.  Two equal nonempty masks give equal
        predictors; every other round is walked, in order, and scored by
        the SOA fold (an empty mask means the draws were not realizable,
        and SOA then freezes and patches).
        """
        n, stream, masks = self.n, self.stream, self.masks
        two_n, full = 2 * n, self.H.full_mask
        while True:
            left = stream.budget - stream.used
            if left < two_n:
                # trip on the half-round where one-at-a-time draws would
                stream.used += n if left < n else two_n
                raise _Fail
            while stream.buffered < two_n:
                stream.refill()
            end = min(stream.buffered, left) // two_n * two_n
            block = stream.peek(end).tolist()
            for j in range(0, end, two_n):
                t0, t1 = block[j:j + n], block[j + n:j + two_n]
                m0 = m1 = full
                for x in t0:
                    m0 &= masks[x]
                for x in t1:
                    m1 &= masks[x]
                if m0 == m1 and m0:
                    continue
                st0 = self.fold(SoaState(self.H), t0)
                st1 = self.fold(SoaState(self.H), t1)
                f0, f1 = st0.predictor(), st1.predictor()
                if f0 == f1:
                    continue
                stream.advance(j + two_n)
                return self.accept([(_NO_POINTS, t0, [], [], st0),
                                    (_NO_POINTS, t1, [], [], st1)], f0, f1)
            stream.advance(end)

    def level(self, k: int):
        """A sample of depth k >= 1: (points, positions, labels, state)."""
        if k == 1:
            return self.first_level()
        while True:
            xs0, pos0, lab0, st0 = self.level(k - 1)
            t0 = self.stream.take(self.n).tolist()
            xs1, pos1, lab1, st1 = self.level(k - 1)
            t1 = self.stream.take(self.n).tolist()
            f0 = self.fold(st0, t0).predictor()
            f1 = self.fold(st1, t1).predictor()
            if f0 == f1:
                continue
            return self.accept([(xs0, t0, pos0, lab0, st0),
                                (xs1, t1, pos1, lab1, st1)], f0, f1)


def sample_dk_mc(k: int, D: FiniteDistribution, H: HypothesisClass, n: int,
                 N: int, seed) -> TournamentSample:
    """Draw once from the capped tournament distribution.

    k = 0 returns the empty sample.  The global draw counter covers the
    whole recursive generation; exceeding N yields the Fail outcome, which
    is a value, not an error.  A Fail decided from the support (see the
    module docstring) returns the same draw count without drawing and
    leaves a generator passed as `seed` where it was.
    """
    if k < 0 or n < 1 and k > 0 or N < 1 and k > 0:
        raise ValueError("need k >= 0 and, for k >= 1, n >= 1 and N >= 1")
    labels = D.target.tolist()
    if len(labels) != H.domain_size or not set(labels) <= set(range(1, H.K + 1)):
        raise ValueError(f"the distribution must label the class's "
                         f"{H.domain_size} points with integers in 1..{H.K}")
    rng = as_generator(seed)
    if k == 0:
        return TournamentSample(_NO_POINTS.copy(), _NO_POINTS.copy(), False, 0, [])
    masks, always_fails = _support_entry(H, D, labels)
    if always_fails:
        left = N % (2 * n)
        return TournamentSample(None, None, True,
                                N - left + (n if left < n else 2 * n), [])
    # a float-stored target must not put 1.0 into SOA's patches
    target = D.target.astype(np.int64)
    stream = _DrawStream(D, rng, N)
    sampler = _Sampler(H, n, stream, rng, masks, target.tolist())
    try:
        xs, positions, labels, _ = sampler.level(k)
    except _Fail:
        return TournamentSample(None, None, True, stream.used, [])
    ys = target[xs]
    ys[positions] = labels
    return TournamentSample(xs, ys, False, stream.used, positions)


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
    tail_xs, tail_ys = D.draw_sample(rng, n)
    table = soa_final_predictor(H, np.concatenate([sample.xs, tail_xs]),
                                np.concatenate([sample.ys, tail_ys]))
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
