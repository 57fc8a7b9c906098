"""The tournament sampler and the globally-stable learner built on it.

The sampler recursively interleaves tournament examples (points where two
independent optimal-play runs disagree, labeled uniformly at random) between
blocks of fresh draws.  Running the online learner on such a sample forces a
mistake at every tournament position, which is what makes some single output
hypothesis land with probability bounded away from zero.  Only the
Monte-Carlo variant with a draw cap is implemented.  The idealized sampler
needs exact output probabilities, which are not computable; that holds for
it only, since the capped sampler's output law is the uncapped law cut off
at the cap N, which is computable.

On some supports the stable learner's whole law is decided without
drawing.  If the target is realizable on supp(D) (the AND of the support
points' consistent-row masks is nonzero), the version space that n >= 1
target-labeled draws fold SOA_0 into from scratch is the AND of their
masks, so it lies in the AND-closure of the support's masks.  If SOA_0's
`predictor_table` is one table at every mask of that closure, the support
is settled on that table.  A k = 0 run then folds its n tail draws into a
fresh state and ends in that table; at k >= 1 every k = 1 round has
f0 == f1, so level 1 runs to the cap with no label drawn, and every deeper
level starts in level 1.  So with n >= 1 every run's answer is fixed by
its k, as it is in an n = 0 plan, which only a one-row class has (d = 0,
so every k is 0 and the run ends in the row).  `stable_tables` answers
all such runs from the coins' k draw alone, with no data stream, no label
and no sampler.  `run_g` and `sample_dk_mc` reach the same answers by
running.  The closure is searched breadth-first and stops at the first
predictor that differs; above CLOSURE_LIMIT version spaces nothing is
settled and the sampler and the tail just run.
The settled table, the points' consistent-row masks and the check that
the distribution labels the class's points make one `Support`, checked
once per run and shared by its data sources.

Row subsets are Python-int bitmasks here as in every module, so a class
may have any number of rows.  A run of G reads two sources, as BLM20's
learner reads an example sequence and has coins of its own (Bun, Livni
and Moran, FOCS 2020).  Its coins draw k and, through a label source,
the tournament labels.  `stable_tables` reads its coin stream's labels
LABEL_BLOCK at a time (`block_labels`), which gives the labels that one
draw each would, in the same order, and hands them out across its runs.
Its examples come from a `DataSource`, the run's own generator read in
n-draw windows, BLOCK_DRAWS draws a refill, rounded down to whole windows.
One generator serves the whole example sequence, so the block size
changes no output, only how many numpy calls a refill pays.  Every
request is n draws or a multiple of them, so the stream splits into
n-draw windows, and a window's mask is the AND of its points'
consistent-row masks.  Each point's mask is also kept as
ceil(num_rows / 64) uint64 words, so one `np.bitwise_and.reduceat` per
block gives each of its windows its mask.  The words take at most 1/64 of
the class's own int64 table plus 8 bytes a point.  A block's draws are
the inverse-CDF indices of `FiniteDistribution.draw_indices`.  `_Sampler`
keeps the draws used and the budget N, which one rule (`reserve`) checks
for a half-round (n draws) and a k = 1 round (2n) alike.

At k = 1 no tournament label is drawn between rounds, so every round in
the buffer (and within the budget) is scored before the stream advances,
each half by its window mask.  A nonempty mask is the version space SOA_0
ends the half in, so two of them are compared by their cached predictor
tables.  Those tables also give an accepted round its disagreement, its
label and its kept half, so only the kept half gets a state, one
`SoaState` at its mask that observes the label.  Only a round with an
empty mask walks both halves through the SOA fold.  Deeper levels carry
SOA's `online.SoaState` up from the child sample and fold each round's n
fresh draws into it: a realizable state that stays realizable by one AND
with the window mask, else the draw that breaks realizability and the ones
after it through the fold.  A sample hands SOA_0's state after it to the
stable learner, so `run_g` folds only its n tail draws, the source's next
window, into that state by the same fold.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .classes import (FiniteDistribution, HypothesisClass, TolerantZeroOne,
                      evaluate_loss)
from .dimensions import ldim_value
from .online import SoaState, predictor_table
# bound only for bench/tracing.py, which wraps it under this name; nothing
# here calls it
from .online import soa_final_predictor  # noqa: F401
from .seeding import as_generator, trial_rng


class _Fail(Exception):
    """Internal signal: the sampler exceeded its draw budget."""


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


# Largest AND-closure of the support's masks searched for the settled
# table; past it the sampler and the tail run.  The closure of m
# support points can hold 2^m - 1 version spaces, each costing one
# `predictor_table` call.
CLOSURE_LIMIT = 1024


def _settled_table(H: HypothesisClass, masks: list) -> Optional[tuple]:
    """SOA_0's predictor if it is one table on the AND-closure of `masks`.

    `masks` are the support points' consistent-row masks.  Unless their AND
    is nonzero (the target is realizable on the support) and the closure
    fits in CLOSURE_LIMIT, nothing is decided and None returns.
    """
    floor = H.full_mask
    for m in masks:
        floor &= m
    if not floor:
        return None
    basis = list(dict.fromkeys(masks))
    seen = set(basis)
    level = basis
    first = predictor_table(H, 0, basis[0])
    while level:
        if len(seen) > CLOSURE_LIMIT:
            return None
        if any(predictor_table(H, 0, m) != first for m in level):
            return None
        grown = []
        for m in level:
            for b in basis:
                c = m & b
                if c not in seen:
                    seen.add(c)
                    grown.append(c)
        level = grown
    return first


class Support:
    """What the sampler needs of one (H, D) pair, checked and built once.

    `masks[x]` is the bitmask of rows consistent with (x, target(x)),
    `words[x]` the same mask as ceil(num_rows / 64) little-endian uint64
    words (one uint64, and `words` 1-D, when the class has at most 64
    rows), `labels` the target as a list of ints and `target` as an int64
    array.  `settled` is the one table SOA_0 ends in after any window of
    draws from D, folded from scratch (see the module docstring), or None.
    A D that does not label H's points raises ValueError.
    """

    __slots__ = ("H", "D", "masks", "words", "labels", "target",
                 "settled")

    def __init__(self, H: HypothesisClass, D: FiniteDistribution):
        if H.K >= 2 ** 63:
            # a tournament label is drawn by rng.integers(1, K + 1)
            raise ValueError(f"the sampler needs K < 2**63, got K = {H.K}")
        t = D.target
        if not (len(t) == H.domain_size and t.dtype.kind in "iuf"
                and 1 <= t.min() and t.max() <= H.K
                and np.all(np.mod(t, 1) == 0)):
            raise ValueError(f"the distribution must label the class's "
                             f"{H.domain_size} points with integers in 1..{H.K}")
        self.H, self.D = H, D
        # a float-stored target must not put 1.0 into SOA's patches
        self.target = D.target.astype(np.int64)
        self.labels = self.target.tolist()
        cols = H.col_masks()
        self.masks = [cols[x].get(y, 0) for x, y in enumerate(self.labels)]
        drawn = [m for m, w in zip(self.masks, D.weights.tolist()) if w > 0]
        self.settled = _settled_table(H, drawn)
        size = -(-H.num_rows // 64) * 8
        words = np.frombuffer(
            b"".join(m.to_bytes(size, "little") for m in self.masks),
            "<u8").reshape(H.domain_size, -1)
        # a 1-D reduceat takes half the time of one over a column
        self.words = words.ravel() if size == 8 else words

    def window_masks(self, draws: np.ndarray, n: int) -> list:
        """The mask of each n-draw window of `draws`, whose length is a
        multiple of n: the AND of its points' masks."""
        if not len(draws):
            return []
        ands = np.bitwise_and.reduceat(self.words[draws],
                                       np.arange(0, len(draws), n), axis=0)
        if ands.ndim == 1:
            return ands.tolist()
        # the ufunc answers in native byte order
        rows = ands.astype("<u8", copy=False).view((np.void, ands[0].nbytes))
        return [int.from_bytes(r, "little") for r in rows.ravel().tolist()]

    def fold(self, state: SoaState, t: list, window: int) -> SoaState:
        """Fold the target-labeled draws `t`, whose masks AND to `window`,
        into `state`, in place.

        A realizable state that stays realizable is settled by one AND.
        Else the running AND of the draws' masks is the version space up to
        the draw that empties it, which goes through `observe`; later draws
        go into `patches`.
        """
        start = 0
        if state.base is None:
            mask = state.mask & window
            if mask:
                state.mask = mask
                return state
            mask, masks = state.mask, self.masks
            for x in t:
                m = mask & masks[x]
                if not m:
                    break
                mask = m
                start += 1
            state.mask = mask
        labels = self.labels
        for x in t[start:start + 1]:  # freezes the predictor if need be
            state.observe(x, labels[x])
        state.patches.update({x: labels[x] for x in t[start + 1:]})
        return state


# Draws one refill of a data source reads, rounded down to whole windows
# (one window at least); each refill pays about a dozen numpy calls
# whatever its size.  Against blocks doubling from the first request up to
# 4096 draws, fixed blocks of 1024 / 2048 / 4096 / 8192 draws took
# 1.19 / 1.08 / 0.96 / 0.99 times as long on `gs` over threshold_class(7)
# (alpha 0.1), 1.03 / 1.01 / 1.25 / 1.63 over threshold_class(100) (alpha
# 0.5, n = 9) and 0.77 / 0.68 / 0.74 / 0.80 on `dp-learn` over
# threshold_class(3) (eps 0.9): median ratios, in process, 2-vCPU host.
BLOCK_DRAWS = 4096
_NO_DRAWS = np.zeros(0, np.int64)    # the empty buffer and k = 0 sample
_NO_DRAWS.flags.writeable = False


class DataSource:
    """The example sequence one run of G reads, as n-draw windows.

    `support` gives D and the window masks, and every run over one (H, D)
    shares it.  `rng` is the run's own generator, or a seed for
    `as_generator`.  Reads are whole windows, so the unread buffer starts on
    a window boundary; `wins[i]` is the mask of the window
    `buf[i*n:(i+1)*n]`.  A refill reads BLOCK_DRAWS draws rounded down to
    whole windows (one window at least).
    """

    __slots__ = ("support", "n", "rng", "buf", "pos", "wins")

    def __init__(self, support: Support, n: int, rng):
        self.support = support
        self.n = n
        self.rng = as_generator(rng)
        self.buf = _NO_DRAWS
        self.pos = 0
        self.wins = []

    def fill(self, m: int):
        """Buffer at least m unread draws, a multiple of n."""
        n = self.n
        while len(self.buf) - self.pos < m:
            fresh = self.support.D.draw_indices(
                self.rng, max(BLOCK_DRAWS // n, 1) * n)
            rest = self.buf[self.pos:]
            self.buf = np.concatenate((rest, fresh)) if len(rest) else fresh
            del self.wins[:self.pos // n]
            self.wins += self.support.window_masks(fresh, n)
            self.pos = 0

    def take(self) -> tuple:
        """The next window: its n draws and their mask."""
        n = self.n
        self.fill(n)
        i = self.pos
        self.pos = i + n
        return self.buf[i:i + n].tolist(), self.wins[i // n]


# Tournament labels one read of the coins draws; `stable_tables` hands them
# out in order across its runs.
LABEL_BLOCK = 1024
# Runs of G one `stable_tables` call may start: past it the runs would
# take over an hour at 20-250 us each (2-vCPU host), and their k draw
# alone 80 MB.
MAX_BATCHES = 10 ** 7


def block_labels(coins: np.random.Generator, K: int) -> Iterator[int]:
    """The tournament labels, uniform on 1..K, read from `coins`
    LABEL_BLOCK at a time, the first on the first label asked for.

    They are the labels of one `coins.integers(1, K + 1)` call each, in the
    same order: below a range of 2^32 numpy draws an array one
    `next_uint32` a value (rejections included), as it draws one value,
    and PCG64 keeps the spare half of a 64-bit output in the bit generator;
    at 2^32 and above it draws one `next_uint64` a value either way.  After
    a whole number of blocks `coins` is where as many single calls leave it.
    """
    while True:
        yield from coins.integers(1, K + 1, size=LABEL_BLOCK).tolist()


class _Sampler:
    """One draw of the capped tournament sampler: the budget N on its reads
    of a `DataSource`, its label source and the levels of the recursion.

    A sample is kept as a list of domain points (every point but the
    tournament ones labeled by the target) plus the tournament positions
    and labels, together with the `SoaState` of SOA_0 after it.  A round
    folds only its n fresh draws into the state its child sample carried
    up, so no prefix is ever replayed.  `used` counts the draws read, so
    the budget semantics match example-by-example sampling.
    """

    def __init__(self, data: DataSource, labels: Iterator[int], budget: int):
        self.H = data.support.H
        self.data = data
        self.labels = labels
        self.n = data.n
        self.budget = budget
        self.fold = data.support.fold
        self.used = 0

    def reserve(self, m: int) -> int:
        """The budget left if the next m (n or 2n) draws fit in it; else
        count the draws through the half (n draws) that overflows and raise
        _Fail."""
        left = self.budget - self.used
        if left < m:
            self.used += self.n if left < self.n else m
            raise _Fail
        return left

    def take(self) -> tuple:
        """The next window within the budget: its n draws and their mask."""
        self.reserve(self.n)
        self.used += self.n
        return self.data.take()

    def accept(self, f0: tuple, f1: tuple) -> tuple:
        """(x, y, keep0): the first disagreement x of the two sides'
        predictors, the label y drawn there, and whether side 0 is the one
        kept.  The kept side's predictor disagrees with y at x, so SOA errs
        there."""
        x = next(i for i in range(self.H.domain_size) if f0[i] != f1[i])
        y = next(self.labels)
        return x, y, f0[x] != y

    def first_level(self):
        """k = 1: rounds scored a buffered block at a time.

        No tournament label is drawn between k = 1 rounds, so every round
        that fits both in the buffer and in the remaining budget is scored
        before the stream advances: each half by its window mask.  A
        nonempty mask is the version space SOA_0 ends the half in, so two
        are compared by their cached predictor tables, which also decide an
        accepted round; only its kept half then gets a state, at its mask.
        A round with an empty mask (unrealizable draws: SOA freezes and
        patches) walks both halves through the SOA fold.
        """
        H, n, data = self.H, self.n, self.data
        two_n = 2 * n
        while True:
            left = self.reserve(two_n)
            data.fill(two_n)
            pos, buf, wins = data.pos, data.buf, data.wins
            first = pos // n
            stop = first + min(len(buf) - pos, left) // two_n * 2
            for i in range(first, stop, 2):
                m0, m1 = wins[i], wins[i + 1]
                j = i * n
                if m0 and m1:
                    if m0 == m1 or ((f0 := predictor_table(H, 0, m0))
                                    == (f1 := predictor_table(H, 0, m1))):
                        continue
                    st0 = st1 = None
                else:
                    st0 = self.fold(SoaState(H), buf[j:j + n].tolist(), m0)
                    st1 = self.fold(SoaState(H), buf[j + n:j + two_n].tolist(),
                                    m1)
                    f0, f1 = st0.predictor(), st1.predictor()
                    if f0 == f1:
                        continue
                data.pos = j + two_n
                self.used += j + two_n - pos
                x, y, keep0 = self.accept(f0, f1)
                at, mask, state = (j, m0, st0) if keep0 else (j + n, m1, st1)
                if state is None:   # the mask is the half's version space
                    state = SoaState(H, 0, mask)
                state.observe(x, y)
                return buf[at:at + n].tolist() + [x], [n], [y], state
            data.pos = stop * n
            self.used += stop * n - pos

    def level(self, k: int):
        """A sample of depth k >= 1: (points, positions, labels, state)."""
        if k == 1:
            return self.first_level()
        while True:
            xs0, pos0, lab0, st0 = self.level(k - 1)
            t0, w0 = self.take()
            xs1, pos1, lab1, st1 = self.level(k - 1)
            t1, w1 = self.take()
            f0 = self.fold(st0, t0, w0).predictor()
            f1 = self.fold(st1, t1, w1).predictor()
            if f0 == f1:
                continue
            x, y, keep0 = self.accept(f0, f1)
            xs, t, positions, labels, state = (
                (xs0, t0, pos0, lab0, st0) if keep0 else
                (xs1, t1, pos1, lab1, st1))
            xs = xs + t + [x]
            state.observe(x, y)
            return xs, positions + [len(xs) - 1], labels + [y], state


def sample_dk_mc(k: int, data: DataSource, N: int,
                 labels: Iterator[int]) -> TournamentSample:
    """Draw once from the capped tournament distribution.

    `data` is the example sequence, a `DataSource`, which gives H, D and
    the window size n; `labels` gives the tournament labels in order, each
    uniform on 1..K (`block_labels`).  k = 0 returns the empty sample.  The
    global draw counter covers the whole recursive generation; exceeding N
    yields the Fail outcome, which is a value, not an error.
    """
    support, n = data.support, data.n
    if k < 0 or k > 0 and (n < 1 or N < 1):
        raise ValueError("need k >= 0 and, for k >= 1, n >= 1 and N >= 1")
    if k == 0:
        return TournamentSample(_NO_DRAWS, _NO_DRAWS, False, 0, [],
                                SoaState(support.H))
    sampler = _Sampler(data, labels, N)
    try:
        xs, positions, labels, state = sampler.level(k)
    except _Fail:
        return TournamentSample(None, None, True, sampler.used, [])
    xs = np.array(xs, dtype=np.int64)
    ys = support.target[xs]
    ys[positions] = labels
    return TournamentSample(xs, ys, False, sampler.used, positions, state)


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


def g_parameters(H: HypothesisClass, alpha: float):
    """(d, n, N), the plan of the stable learner at accuracy alpha: d =
    Ldim_0, n = ceil(d * ln(K) / alpha), where the natural log matches the
    e^{-n*alpha} generalization argument, and the cap N = (4K)^(d+1) * n.

    A k = 1 round reads 2n draws as one int64 array, so an alpha that makes
    2n past the int64 range is refused here.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    d = ldim_value(H, 0)
    window = d * math.log(H.K) / alpha
    if not 2 * window < 2 ** 63:
        raise ValueError(f"the stable learner at alpha = {alpha:g} needs "
                         f"windows of n = ceil(d ln K / alpha) = {window:.3g} "
                         f"draws, and a round of 2n draws must fit an int64 "
                         f"array")
    n = math.ceil(window)
    cap = (4 * H.K) ** (d + 1) * n
    return d, n, cap


def stability_eta(K: int, d: int) -> float:
    """The guaranteed output frequency of the stable learner."""
    return (K - 1) / ((d + 1) * K ** (d + 1))


def run_g(data: DataSource, N: int, labels: Iterator[int],
          k: int) -> GRunResult:
    """One run of the stable learner at depth k: play SOA on S o T.

    The sample S comes from `sample_dk_mc(k, data, N, labels)`.  The n tail
    draws T are the source's next window after it, folded into the SOA_0
    state S ends in, so S is never replayed.
    """
    sample = sample_dk_mc(k, data, N, labels)
    if sample.failed:
        return GRunResult(None, True, k, data.n, sample.draw_count)
    state = sample.state
    if data.n:  # n = 0 when d = 0 or K = 1: then k = 0 and T is empty
        state = data.support.fold(state, *data.take())
    return GRunResult(state.predictor(), False, k, data.n, sample.draw_count)


@dataclass
class GsEstimate:
    """Monte-Carlo estimate of the stability guarantee, with the d = Ldim_0
    of its plan."""

    d: int
    modal_table: Optional[tuple]
    frequency: float             # modal count / all trials (Fail included)
    trials: int
    population_loss: Optional[float]
    fail_count: int
    counts: dict = field(default_factory=dict)

    @property
    def fail_rate(self) -> float:
        return self.fail_count / self.trials


def stable_tables(support: Support, plan: tuple, runs: int, seed,
                  stream: str) -> list:
    """The tables of `runs` seeded runs of G on `support`, in run order,
    None for a Fail: the one loop over runs of G.

    `plan` is `g_parameters`' (d, n, N) for the run's accuracy.  The coins
    are one stream, `trial_rng(seed, stream)`: every run's k, uniform on
    0..d, in one draw, then the tournament labels in run order, read
    LABEL_BLOCK at a time by `block_labels`, which gives the labels one at
    a time would.  Run i reads its examples from a `DataSource` over
    `support` on `trial_rng(seed, stream, i)`.
    `gs` runs on "g" and `dp-learn` on "batch".  More than `MAX_BATCHES`
    runs are refused before any coin is drawn.

    A run whose table is fixed before any read is decided by its k alone,
    the settled table at k = 0 and a Fail at k >= 1, with no `DataSource`
    and no label drawn: every run on a settled support with n >= 1, and
    every run of an n = 0 plan, which only a one-row class (d = 0) has, so
    every k is 0 and the table is a fresh SOA_0's.  `run_g` reaches the
    same answers by running.
    """
    if runs > MAX_BATCHES:
        raise ValueError(f"{runs} runs of the stable learner exceed the "
                         f"limit of {MAX_BATCHES}")
    d, n, cap = plan
    H = support.H
    coins = trial_rng(seed, stream)
    ks = coins.integers(0, d + 1, size=runs)
    decided = support.settled if n else predictor_table(H, 0, H.full_mask)
    if decided is not None:
        return [None if k else decided for k in ks.tolist()]
    labels = block_labels(coins, H.K)
    return [run_g(DataSource(support, n, trial_rng(seed, stream, i)), cap,
                  labels, int(k)).table
            for i, k in enumerate(ks)]


def estimate_stability(H: HypothesisClass, D: FiniteDistribution, alpha: float,
                       trials: int, seed: int) -> GsEstimate:
    """Tally exact-table equality of `trials` runs of G on the "g" stream,
    planned by `g_parameters` at alpha.

    Fail outcomes are tallied separately and stay in the frequency
    denominator.  Ties for the mode break toward the smallest table.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    plan = g_parameters(H, alpha)
    counts = Counter(stable_tables(Support(H, D), plan, trials, seed, "g"))
    fails = counts.pop(None, 0)
    if not counts:
        return GsEstimate(plan[0], None, 0.0, trials, None, fails, counts)
    modal = min(counts, key=lambda t: (-counts[t], t))
    loss = evaluate_loss(np.array(modal), D, TolerantZeroOne(0))
    return GsEstimate(plan[0], modal, counts[modal] / trials, trials, loss,
                      fails, counts)
