"""Explicit finite hypothesis classes, losses, samples and distributions.

Everything here is an explicit table: a multi-class hypothesis class is a
|H| x |X| integer matrix with entries in 1..K, a real-valued function class
is a |F| x |X| float matrix with entries in [-1, 1].  A labeled sample is
a pair (xs, ys) of int64 arrays (see `integer_sample`).  All objects are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

# Slack used when a float sits on an interval boundary.  Values produced on
# decimal grids land within ~1e-15 of the mathematical boundary; snapping by
# 1e-9 keeps the half-open interval rule deterministic across platforms.
BOUNDARY_SNAP = 1e-9

# Grid steps a real class may declare.  Below GRID_MIN, (v + 1) / grid for
# a value v in [-1, 1] passes 2**53, where every float is a whole number,
# so no value could be told off the grid.
GRID_MIN = 2.0 ** -52
GRID_RULE = "a number in [2**-52, 2]"

# `FiniteDistribution.draw_indices` looks a call of at least GUIDE_DRAWS
# draws up in a guide table, and binary-searches a smaller one: the table's
# fixed cost per call lost to `np.searchsorted` below about 64 draws and
# won from 128 (7-point uniform on a 2-vCPU host: 11 draws 3.6 -> 5.8 us,
# 128 draws 5.3 -> 4.2 us, 512 draws 16.7 -> 7.8 us).  A distribution
# whose table would need more than GUIDE_BUCKETS buckets keeps the binary
# search.  The sampler's data source draws blocks that start at its first
# request (n or 2n draws) and double, so only its first blocks at small n
# are binary-searched; `run_g`'s tail is a window of those blocks, not a
# call of its own.
GUIDE_DRAWS = 128
GUIDE_BUCKETS = 2 ** 16


def is_grid(grid) -> bool:
    """Whether `grid` is a grid step a real class may declare."""
    return (isinstance(grid, (int, float)) and not isinstance(grid, bool)
            and GRID_MIN <= grid <= 2)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def tolerant_loss(y_hat: int, y: int, tau: int) -> int:
    """Zero-one loss with tolerance: 1 iff |y - y_hat| > tau.

    tau = 0 recovers the standard zero-one loss.
    """
    if tau < 0:
        raise ValueError(f"tolerance must be >= 0, got {tau}")
    if y_hat < 1 or y < 1:
        raise ValueError(f"labels are 1-based, got ({y_hat}, {y})")
    return 1 if abs(int(y) - int(y_hat)) > tau else 0


def absolute_loss(y_hat: float, y: float) -> float:
    """Absolute loss |y_hat - y| for predictions and labels in [-1, 1]."""
    if not (-1.0 <= y_hat <= 1.0) or not (-1.0 <= y <= 1.0):
        raise ValueError(f"values must lie in [-1, 1], got ({y_hat}, {y})")
    return abs(float(y_hat) - float(y))


@dataclass(frozen=True)
class TolerantZeroOne:
    """Loss kind: zero-one with an integer tolerance."""

    tau: int = 0

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")

    def __call__(self, y_hat, y) -> np.ndarray:
        """Losses of broadcast label arrays, as floats."""
        y_hat, y = np.asarray(y_hat), np.asarray(y)
        if y_hat.min(initial=1) < 1 or y.min(initial=1) < 1:
            raise ValueError("labels are 1-based")
        return (np.abs(y - y_hat) > self.tau).astype(np.float64)


@dataclass(frozen=True)
class AbsoluteLoss:
    """Loss kind: absolute loss on [-1, 1]."""

    def __call__(self, y_hat, y) -> np.ndarray:
        """Losses of broadcast value arrays."""
        y_hat, y = np.asarray(y_hat, float), np.asarray(y, float)
        # written so that NaN, which fails every comparison, is rejected
        if not all(np.all((v >= -1.0) & (v <= 1.0)) for v in (y_hat, y)):
            raise ValueError("values must lie in [-1, 1]")
        return np.abs(y_hat - y)


LossKind = Union[TolerantZeroOne, AbsoluteLoss]


# ---------------------------------------------------------------------------
# classes
# ---------------------------------------------------------------------------

def row_mask(rows: np.ndarray) -> int:
    """Bitmask with bit r set iff rows[r] is true: the one builder of the
    Python-int row subsets every module works on."""
    return int.from_bytes(np.packbits(rows, bitorder="little").tobytes(),
                          "little")


def _dedup_rows(table: np.ndarray):
    """Drop duplicate rows, keeping first occurrences in order.

    Returns (deduped table, row_map) where row_map[i] is the surviving row
    index that original row i collapsed into.  Rows are equal when their
    bytes are, so 0.0 and -0.0 stay distinct.  Each row is keyed by
    integer words: a float row by its values' bit patterns, a row of
    labels in 1..max by its labels as base-(max + 1) digits, as many to an
    int64 word as keep the word below 2**63.  One stable sort of the words
    groups equal rows with each group's first occurrence at its head.
    """
    n, width = table.shape
    if table.dtype.kind == "f":
        keys = table.view(np.uint64).T
    else:
        base, per = int(table.max()) + 1, 1
        while per < width and base ** (per + 1) <= 2 ** 63:
            per += 1
        powers = np.array([base ** k for k in range(per)], np.int64)
        keys = np.array([np.dot(table[:, c:c + per], powers[:width - c])
                         for c in range(0, width, per)])
    order = np.lexsort(keys)
    ranked = keys[:, order]
    starts = np.empty(n, np.intp)   # 1 where each group of equal rows begins
    starts[0] = 1
    # a wrapping difference of integer words is nonzero iff they differ
    starts[1:] = (ranked[:, 1:] - ranked[:, :-1]).any(0)
    first = order[starts.nonzero()[0]]
    kept = np.zeros(n, np.intp)
    kept[first] = 1
    # a group's id is its first occurrence's rank among the first occurrences
    # (the int counts accumulate faster than booleans would)
    row_map = np.empty(n, np.int64)
    row_map[order] = ((np.add.accumulate(kept) - 1)[first]
                      [np.add.accumulate(starts) - 1])
    return table[kept.nonzero()[0]], row_map


class HypothesisClass:
    """Multi-class hypothesis class H in [K]^X as an explicit label table.

    Labels are 1-based; domain points are indexed 0..domain_size-1.
    Duplicate rows are collapsed at construction (`row_map` records the
    collapse).  Instances are immutable; the lazily filled mask, dimension
    and predictor caches are append-only and safe under concurrent readers.
    The sampler's `stability.Support` of (H, D) is built per run, not here.
    """

    __slots__ = ("K", "table", "num_rows", "domain_size", "row_map",
                 "_col_masks", "_ldim_cache", "_predictor_cache")

    def __init__(self, K: int, table):
        # K = 1 only arises from degenerate discretization (gamma = 2); the
        # multi-class setting proper always has K >= 2
        if K < 1:
            raise ValueError(f"K must be >= 1, got {K}")
        raw = np.asarray(table)
        if raw.ndim != 2 or raw.shape[0] < 1 or raw.shape[1] < 1:
            raise ValueError("table must be a nonempty 2-D matrix")
        if raw.dtype.kind not in "iuf" or (
                raw.dtype.kind == "f" and not np.all(np.mod(raw, 1) == 0)):
            raise ValueError("labels must be integers")
        if raw.min() < 1 or raw.max() > K:
            raise ValueError(f"labels must lie in 1..{K}")
        # a huge K admits float or uint64 labels that int64 cannot hold
        if raw.dtype.kind != "i" and raw.max() >= 2.0 ** 63:
            raise ValueError("labels must lie below 2**63")
        arr, row_map = _dedup_rows(raw.astype(np.int64, copy=False))
        arr.setflags(write=False)
        self.K = int(K)
        self.table = arr
        self.num_rows = int(arr.shape[0])
        self.domain_size = int(arr.shape[1])
        self.row_map = row_map
        self._col_masks = None       # per-column {label: row bitmask}
        self._ldim_cache = {}        # tau -> Ldim_tau split engine
        self._predictor_cache = {}   # (tau, mask) -> predictor label tuple

    def col_masks(self):
        """Per-column map label -> bitmask of rows carrying that label,
        labels in increasing order."""
        if self._col_masks is None:
            self._col_masks = [{k: row_mask(col == k)
                                for k in sorted(set(col.tolist()))}
                               for col in self.table.T]
        return self._col_masks

    @property
    def full_mask(self) -> int:
        return (1 << self.num_rows) - 1

    def row(self, i: int) -> tuple:
        return tuple(int(v) for v in self.table[i])

    def __eq__(self, other):
        return (isinstance(other, HypothesisClass) and self.K == other.K
                and np.array_equal(self.table, other.table))

    def __repr__(self):
        return (f"HypothesisClass(K={self.K}, rows={self.num_rows}, "
                f"domain={self.domain_size})")


class RealFunctionClass:
    """Real-valued function class F in [-1, 1]^X as an explicit value table."""

    __slots__ = ("table", "num_rows", "domain_size", "row_map", "grid")

    def __init__(self, table, grid: Optional[float] = None):
        arr = np.asarray(table, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("table must be a nonempty 2-D matrix")
        # written so that NaN, which fails every comparison, is rejected
        if not (arr.min() >= -1.0 and arr.max() <= 1.0):
            raise ValueError("values must lie in [-1, 1]")
        arr, row_map = _dedup_rows(arr)
        arr.setflags(write=False)
        self.table = arr
        self.num_rows = int(arr.shape[0])
        self.domain_size = int(arr.shape[1])
        self.row_map = row_map
        self.grid = grid

    def row(self, i: int) -> tuple:
        return tuple(float(v) for v in self.table[i])

    def __eq__(self, other):
        return (isinstance(other, RealFunctionClass)
                and np.array_equal(self.table, other.table))

    def __repr__(self):
        return (f"RealFunctionClass(rows={self.num_rows}, "
                f"domain={self.domain_size})")


# ---------------------------------------------------------------------------
# samples and distributions
# ---------------------------------------------------------------------------

def _whole(a: np.ndarray) -> bool:
    """Is every entry an integer (not a boolean), or a float holding an
    int64 value?"""
    if a.dtype.kind != "f":
        return a.dtype.kind in "iu"
    with np.errstate(invalid="ignore"):   # NaN and the infinities fail
        return bool(np.all((np.mod(a, 1) == 0) & (np.abs(a) < 2.0 ** 63)))


def integer_sample(xs, ys) -> tuple:
    """A labeled sample as two equal-length 1-D int64 arrays.

    `xs` holds domain indices and `ys` labels.  Whole floats such as 1.0
    pass as ints; a fractional, NaN, boolean or non-numeric entry is a
    ValueError naming its pair.
    """
    xa, ya = np.asarray(xs), np.asarray(ys)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
        raise ValueError(f"a sample is two 1-D arrays of equal length, "
                         f"got shapes {xa.shape} and {ya.shape}")
    # numpy reads [True, 2] as ints, so lists are searched for booleans
    if not (_whole(xa) and _whole(ya)) or any(
            isinstance(v, (bool, np.bool_)) for vals in (xs, ys)
            if not isinstance(vals, np.ndarray) for v in vals):
        # name the first bad pair as given (a mixed list reads as strings)
        for x, y in zip(np.asarray(xs, dtype=object),
                        np.asarray(ys, dtype=object)):
            if not (_whole(np.asarray(x)) and _whole(np.asarray(y))):
                raise ValueError(f"example ({x!r}, {y!r}) is not a pair "
                                 f"of integers")
    return xa.astype(np.int64, copy=False), ya.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Finite-support distribution over domain points with a labeling target.

    Draws are pairs (x, target[x]).  `target` may be a row of the class or
    any explicit table; realizability against a class means some hypothesis
    agrees with the target on every support point.
    """

    weights: np.ndarray
    target: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False, default=None)
    # built on the first draw of GUIDE_DRAWS or more; () if refused
    _guide: Optional[tuple] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        t = np.asarray(self.target)
        if w.ndim != 1 or t.ndim != 1 or w.shape != t.shape:
            raise ValueError("weights and target must be 1-D of equal length")
        # written so that NaN, which fails every comparison, is rejected
        if not (w.min() >= 0 and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError("weights must be nonnegative and sum to 1")
        w.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "target", t)
        # a float sum can end just below 1 (0.9999999999999998 for seven
        # equal weights); from the last positive-weight point on it is
        # exactly 1 (and never above, so it stays sorted), so every u in
        # [0, 1) lands on a positive-weight point and every u below the
        # float sum keeps its index
        cum = np.minimum(np.cumsum(w), 1.0)
        cum[np.flatnonzero(w)[-1]:] = 1.0
        cum.setflags(write=False)
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def uniform(cls, cls_or_table, row: int) -> "FiniteDistribution":
        """Equal weight on every point, labeled by row `row` of the table."""
        table = np.asarray(getattr(cls_or_table, "table", cls_or_table))
        rows, n = table.shape
        if not 0 <= row < rows:
            raise ValueError(f"target row {row} outside 0..{rows - 1}")
        return cls(np.full(n, 1.0 / n), table[row].copy())

    @property
    def domain_size(self) -> int:
        return int(self.weights.shape[0])

    def draw_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n domain indices; labels follow from the target table.

        Draw i is the inverse CDF at u = rng.random(n)[i], the number of
        cumulative weights at or below u:
        `np.searchsorted(self._cum, u, side="right")`.  A call of at least
        GUIDE_DRAWS draws gets the same indices without a binary search,
        from a guide table (Chen & Asau 1974; Devroye 1986, III.2.4) built
        on its first such call.  Bucket b = floor(u * B) covers
        [b / B, (b + 1) / B) and holds the answer at its left edge and the
        one boundary that may lie strictly inside it, so a draw is one
        gather and one compare.  B is a power of two, so u * B and its
        floor are exact; it is the smallest one at least twice the points
        and at least 1 / (the smallest gap between distinct boundaries),
        so no bucket holds two.  Equal boundaries (zero weights, or weights
        below an ulp of the running sum) count once and map back to their
        first index.  A distribution whose B would pass GUIDE_BUCKETS
        keeps the binary search.
        """
        u = rng.random(n)
        guide = self._guide_table() if n >= GUIDE_DRAWS else ()
        if not guide:
            return np.searchsorted(self._cum, u, side="right")
        size, rank, edge, first = guide
        b = (u * size).astype(np.intp)
        i = rank[b]
        i += u >= edge[b]
        return i if first is None else first[i]

    def _guide_table(self) -> tuple:
        """(B, rank, edge, first) for `draw_indices`, or () if refused.

        rank[b] counts the distinct boundaries at or below b / B, and
        edge[b] is the next one; first maps a count of distinct boundaries
        to a draw (None when every boundary is distinct).
        """
        if self._guide is None:
            bounds, first = np.unique(self._cum, return_index=True)
            size = 1 << (2 * self.domain_size - 1).bit_length()
            if len(bounds) > 1:
                # gap = f * 2**e with 0.5 <= f < 1, so 2**(1 - e) is the
                # smallest power of two whose reciprocal is at most it.  The
                # float gap is exact unless the upper boundary is over twice
                # the lower (Sterbenz); two such in one bucket lie below
                # 1 / B, and their gap rounds to at most the upper one
                gap = float(np.diff(bounds).min())
                size = max(size, 2 ** (1 - math.frexp(gap)[1]))
            guide = ()
            if size <= GUIDE_BUCKETS:
                # bounds[-1] == 1 > b / B, so edge is defined for every b
                rank = np.searchsorted(bounds, np.arange(size) / size,
                                       side="right")
                guide = (size, rank, bounds[rank],
                         None if len(bounds) == self.domain_size else first)
            object.__setattr__(self, "_guide", guide)
        return self._guide

    def draw_sample(self, rng: np.random.Generator, n: int) -> tuple:
        """Draw n labeled examples as (xs, target[xs])."""
        xs = self.draw_indices(rng, n)
        return xs, self.target[xs]

    def realizable_by(self, cls: HypothesisClass) -> bool:
        support = self.weights > 0
        tgt = self.target[support]
        return any(np.array_equal(cls.table[r, support], tgt)
                   for r in range(cls.num_rows))


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def num_intervals(gamma: float) -> int:
    """Number of length-gamma intervals partitioning [-1, 1]."""
    if not 0 < gamma <= 2:   # NaN fails too
        raise ValueError(f"gamma must lie in (0, 2], got {gamma}")
    if gamma < GRID_MIN:   # past 2**53 intervals labels round off 1..K
        raise ValueError(f"gamma must be at least 2**-52, got {gamma}")
    return int(np.ceil(2.0 / gamma - BOUNDARY_SNAP))


def value_to_label(v, gamma: float):
    """Index of the interval of [-1, 1] that v falls in, elementwise.

    Interval j covers [-1 + (j-1)*gamma, -1 + j*gamma), the last interval is
    closed at +1.  An int for a number, an int64 array for an array.
    """
    K = num_intervals(gamma)
    j = np.floor((np.asarray(v, dtype=np.float64) + 1.0) / gamma + BOUNDARY_SNAP)
    labels = np.clip(j, 0, K - 1).astype(np.int64) + 1
    return labels if labels.ndim else int(labels)


def label_to_midpoint(j: int, gamma: float) -> float:
    """Midpoint of interval j under the same partition."""
    K = num_intervals(gamma)
    if not (1 <= j <= K):
        raise ValueError(f"label {j} outside 1..{K}")
    if j == K:
        # last interval ends at +1 regardless of whether gamma divides 2
        lo, hi = -1.0 + (j - 1) * gamma, 1.0
        return (lo + hi) / 2.0
    return -1.0 + (j - 0.5) * gamma


def discretize(F: RealFunctionClass, gamma: float):
    """Map a real class to the multi-class of interval indices at scale gamma.

    Returns (H, row_map): H has K = ceil(2/gamma) labels and row_map[i] is
    the row of H that row i of F lands on (rows may collapse).
    """
    H = HypothesisClass(num_intervals(gamma), value_to_label(F.table, gamma))
    return H, H.row_map


# ---------------------------------------------------------------------------
# loss evaluation
# ---------------------------------------------------------------------------

def evaluate_loss(h, data, loss: LossKind):
    """Empirical mean over a sample, or exact expectation over a distribution.

    `h` is a total prediction table over the domain (labels or reals).  On
    a sample (xs, ys), `h` may also be a stack of tables, scored at once
    into an array of means; a single table scores to a float.
    """
    h = np.asarray(h)
    if isinstance(data, FiniteDistribution):
        # left to right, as a dot product could change the last bit
        total = 0.0
        for w, v in zip(data.weights.tolist(), loss(h, data.target).tolist()):
            if w > 0:
                total += w * v
        return total
    xs, ys = (np.asarray(v) for v in data)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("a sample is two 1-D arrays of equal length")
    if xs.size == 0:
        raise ValueError("empirical loss of an empty sample is undefined")
    means = loss(h[..., xs], ys).sum(axis=-1) / xs.size
    return float(means) if h.ndim == 1 else means
