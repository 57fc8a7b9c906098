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
decision, the floor and the points' consistent-row masks are cached on the
class per distribution, together with the check that the distribution labels
the class's points, so each (H, D) pair is checked once.  A decided Fail
does not advance a generator the caller passed in; `run_g` and
`estimate_stability` never use it after a Fail.

Row subsets are Python-int bitmasks here as in every module, so a class
may have any number of rows; the draw buffer is a list of Python ints.
Rejection rounds are cheap to score.  Every support point's mask contains
the support's floor, the AND of all their masks, so a running AND stops
once it reaches the floor: no later draw can change it.  At k = 1 no
tournament label is drawn between rounds, so every round already in the
buffer (and within the budget) is scored before the stream advances, each
half by the AND of its points' consistent-row masks.  A nonempty mask is
the version space SOA_0 ends the half in, so two of them are compared by
their cached predictor tables, and only a half with an empty mask is
walked through the SOA fold.  Deeper levels carry SOA's `online.SoaState`
up from the child sample and fold only each round's fresh draws into it,
the realizable stretch by ANDing the same masks.  Buffer refills stay
lazy: the generator is shared with the tournament labels, so drawing a
chunk before a round needs it would change every later label.

A sample hands SOA_0's state after it to the stable learner, so `run_g`
folds only its n tail draws into that state, by the same fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classes import (FiniteDistribution, HypothesisClass, TolerantZeroOne,
                      evaluate_loss, row_mask)
from .dimensions import ldim_value
from .online import SoaState, predictor_table
# bound only for bench/tracing.py, which wraps it under this name; nothing
# here calls it
from .online import soa_final_predictor  # noqa: F401
from .seeding import as_generator, trial_rng


class _Fail(Exception):
    """Internal signal: the sampler exceeded its draw budget."""


class _DrawStream:
    """Chunked draws from a finite distribution with a hard budget N.

    Indices are pregenerated in chunks for speed and kept as a list; the
    logical draw count only advances by what the sampler requests, so the
    budget semantics match example-by-example sampling.  A chunk is drawn
    only when the next request needs it: the generator is shared with the
    tournament labels, so drawing ahead would change every later label.
    """

    CHUNK = 512

    def __init__(self, D: FiniteDistribution, rng: np.random.Generator,
                 budget: int):
        self.D = D
        self.rng = rng
        self.budget = budget
        self.used = 0
        self._buf = []
        self._pos = 0

    @property
    def buffered(self) -> int:
        return len(self._buf) - self._pos

    def refill(self):
        """Append one chunk of fresh draws to the unread part of the buffer."""
        del self._buf[:self._pos]
        self._pos = 0
        self._buf += self.D.draw_indices(self.rng, self.CHUNK).tolist()

    def peek(self, m: int) -> list:
        return self._buf[self._pos:self._pos + m]

    def advance(self, m: int):
        self._pos += m
        self.used += m

    def take(self, n: int) -> list:
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
    `tournament_positions`, and `state` is SOA_0's `SoaState` after the
    sample (a fresh one for k = 0), into which `run_g` folds its tail
    draws.  On failure `xs`, `ys` and `state` are None and `draw_count`
    records the attempt that exceeded the cap.
    """

    xs: Optional[np.ndarray]
    ys: Optional[np.ndarray]
    failed: bool
    draw_count: int
    tournament_positions: list = field(default_factory=list)
    state: Optional[SoaState] = None


# Largest AND-closure of the support's masks searched for the k = 1
# impossibility decision; past it the sampler runs.  The closure of m
# support points can hold 2^m - 1 version spaces, each costing one
# `predictor_table` call.
CLOSURE_LIMIT = 1024


def _tournaments_fail(H: HypothesisClass, masks: list, floor: int) -> bool:
    """True if SOA_0's predictor is one table on the AND-closure of `masks`.

    `masks` are the support points' consistent-row masks, `floor` their AND.
    Unless it is nonzero (the target is realizable on the support) and the
    closure fits in CLOSURE_LIMIT, nothing is decided and False returns.
    """
    if not floor:
        return False
    basis = list(dict.fromkeys(masks))
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


class _Support:
    """What the sampler needs of one (H, D) pair, checked and built once.

    `masks[x]` is the bitmask of rows consistent with (x, target(x)),
    `floor` that of the rows consistent on the whole support, `labels` the
    target as a list of ints and `target` as an int64 array.
    """

    __slots__ = ("masks", "floor", "labels", "target", "always_fails")

    def __init__(self, H: HypothesisClass, D: FiniteDistribution):
        t = D.target
        if not (len(t) == H.domain_size and t.dtype.kind in "iuf"
                and 1 <= t.min() and t.max() <= H.K
                and np.all(np.mod(t, 1) == 0)):
            raise ValueError(f"the distribution must label the class's "
                             f"{H.domain_size} points with integers in 1..{H.K}")
        # a float-stored target must not put 1.0 into SOA's patches
        self.target = D.target.astype(np.int64)
        self.labels = self.target.tolist()
        support = D.weights > 0
        cols = H.col_masks()
        self.masks = [cols[x].get(y, 0) for x, y in enumerate(self.labels)]
        drawn = [m for m, on in zip(self.masks, support.tolist()) if on]
        self.floor = row_mask((H.table[:, support]
                               == self.target[support]).all(axis=1))
        self.always_fails = _tournaments_fail(H, drawn, self.floor)

    def fold(self, state: SoaState, t: list) -> SoaState:
        """Fold the target-labeled draws `t` into `state`, in place.

        While the prefix is realizable the running AND of the draws' masks
        is the version space, and one at the floor stays there; the draw
        that empties it goes through `observe`, later ones into `patches`.
        """
        start = 0
        if state.base is None:
            mask, masks, floor = state.mask, self.masks, self.floor
            for x in t:
                m = mask & masks[x]
                if not m:
                    break
                mask = m
                start += 1
                if mask == floor:
                    start = len(t)
                    break
            state.mask = mask
        labels = self.labels
        for x in t[start:start + 1]:  # freezes the predictor if need be
            state.observe(x, labels[x])
        state.patches.update({x: labels[x] for x in t[start + 1:]})
        return state


def _support_entry(H: HypothesisClass, D: FiniteDistribution) -> _Support:
    """The `_Support` of (H, D), cached on H by the distribution itself.

    `FiniteDistribution` hashes by identity and its arrays are read-only,
    so the check that D labels H's points runs once per D; a D that fails
    it is not cached and raises ValueError on every call.
    """
    hit = H._support_cache.get(D)
    if hit is None:
        hit = H._support_cache[D] = _Support(H, D)
    return hit


class _Sampler:
    """One draw of the capped tournament sampler.

    A sample is kept as a list of domain points (every point but the
    tournament ones labeled by the target) plus the tournament positions
    and labels, together with the `SoaState` of SOA_0 after it.  A round
    folds only its n fresh draws into the state its child sample carried
    up, so no prefix is ever replayed.
    """

    def __init__(self, H: HypothesisClass, n: int, stream: _DrawStream,
                 rng: np.random.Generator, support: _Support):
        self.H = H
        self.n = n
        self.stream = stream
        self.rng = rng
        self.support = support
        self.fold = support.fold

    def accept(self, sides, f0: tuple, f1: tuple):
        """Draw a label at the first disagreement x; keep the side that errs.

        Each side is (child points, round draws, positions, labels, state),
        the draws already folded into the state.  The kept side's predictor
        disagrees with the drawn label at x, so SOA errs there.
        """
        x = next(i for i in range(self.H.domain_size) if f0[i] != f1[i])
        y = int(self.rng.integers(1, self.H.K + 1))
        prefix, t, positions, labels, state = sides[0] if f0[x] != y else sides[1]
        xs = prefix + t + [x]
        state.observe(x, y)
        return xs, positions + [len(xs) - 1], labels + [y], state

    def first_level(self):
        """k = 1: rounds scored a buffered block at a time.

        No tournament label is drawn between k = 1 rounds, so every round
        that fits both in the stream's buffer and in the remaining budget
        is scored before the stream advances: each half by the AND of its
        points' consistent-row masks, up to the floor.  A nonempty mask is
        the version space SOA_0 ends the half in, so two are compared by
        their cached predictor tables and give an accepted round its
        states; only a half with an empty mask (unrealizable draws: SOA
        freezes and patches) is walked through the SOA fold.
        """
        H, n, stream = self.H, self.n, self.stream
        masks, floor = self.support.masks, self.support.floor
        two_n, full = 2 * n, H.full_mask
        while True:
            left = stream.budget - stream.used
            if left < two_n:
                # trip on the half-round where one-at-a-time draws would
                stream.used += n if left < n else two_n
                raise _Fail
            while stream.buffered < two_n:
                stream.refill()
            end = min(stream.buffered, left) // two_n * two_n
            block = stream.peek(end)
            for j in range(0, end, two_n):
                m0 = m1 = full
                for x in block[j:j + n]:
                    m0 &= masks[x]
                    if m0 == floor:
                        break
                for x in block[j + n:j + two_n]:
                    m1 &= masks[x]
                    if m1 == floor:
                        break
                if m0 and m1 and (m0 == m1 or predictor_table(H, 0, m0)
                                  == predictor_table(H, 0, m1)):
                    continue
                t0, t1 = block[j:j + n], block[j + n:j + two_n]
                st0 = SoaState(H, mask=m0) if m0 else self.fold(SoaState(H), t0)
                st1 = SoaState(H, mask=m1) if m1 else self.fold(SoaState(H), t1)
                f0, f1 = st0.predictor(), st1.predictor()
                if f0 == f1:
                    continue
                stream.advance(j + two_n)
                return self.accept([([], t0, [], [], st0),
                                    ([], t1, [], [], st1)], f0, f1)
            stream.advance(end)

    def level(self, k: int):
        """A sample of depth k >= 1: (points, positions, labels, state)."""
        if k == 1:
            return self.first_level()
        while True:
            xs0, pos0, lab0, st0 = self.level(k - 1)
            t0 = self.stream.take(self.n)
            xs1, pos1, lab1, st1 = self.level(k - 1)
            t1 = self.stream.take(self.n)
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
    support = _support_entry(H, D)
    rng = as_generator(seed)
    if k == 0:
        return TournamentSample(np.zeros(0, np.int64), np.zeros(0, np.int64),
                                False, 0, [], SoaState(H))
    if support.always_fails:
        left = N % (2 * n)
        return TournamentSample(None, None, True,
                                N - left + (n if left < n else 2 * n), [])
    stream = _DrawStream(D, rng, N)
    sampler = _Sampler(H, n, stream, rng, support)
    try:
        xs, positions, labels, state = sampler.level(k)
    except _Fail:
        return TournamentSample(None, None, True, stream.used, [])
    xs = np.array(xs, dtype=np.int64)
    ys = support.target[xs]
    ys[positions] = labels
    return TournamentSample(xs, ys, False, stream.used, positions, state)


# ---------------------------------------------------------------------------
# the globally-stable learner G
# ---------------------------------------------------------------------------

@dataclass
class GRunResult:
    table: Optional[tuple]       # None on Fail
    failed: bool
    k: int
    n: int
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
    """One run of the stable learner: draw k uniformly, play SOA on S o T.

    The n tail draws T are folded into the SOA_0 state the sample S ends
    in, so S is never replayed.
    """
    d, n, cap = g_parameters(H, alpha, d)
    rng = as_generator(seed)
    k = int(rng.integers(0, d + 1))
    sample = sample_dk_mc(k, D, H, n, cap, rng)
    if sample.failed:
        return GRunResult(None, True, k, n, sample.draw_count)
    tail = D.draw_indices(rng, n).tolist()
    state = _support_entry(H, D).fold(sample.state, tail)
    return GRunResult(state.predictor(), False, k, n, sample.draw_count)


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
