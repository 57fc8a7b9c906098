"""Combinatorial dimensions with shattering certificates.

Computes the tolerant Littlestone dimension, the sequential fat-shattering
dimension and the sequential Pollard pseudo-dimension of explicit finite
classes, each together with a mistake tree certifying the value.  All three
are one memoized search over row subsets (Python-int bitmasks) under a
family of splits, kept on an explicit stack, so it has no depth limit.  All
values are exact.  The worst case is exponential in |H|, which is inherent;
the sides of a split are disjoint, so a subset of m rows has value at most
floor(log2 m), and pruning with that bound makes structured classes with
hundreds of rows fast.  Certificates are filled level by level into the
heap-order arrays of `trees.MistakeTree`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classes import HypothesisClass, RealFunctionClass, row_mask
from .trees import (MistakeTree, WITNESS_EPS, check_mc_tree, check_real_tree,
                    check_sign_tree, gamma_fault)

# Ldim of the empty class; internal sentinel that keeps the search and the
# SOA argmax total.  Never reported.
EMPTY_LDIM = -1


@dataclass
class DimensionReport:
    """A dimension value, its certificate tree and the scale parameters."""

    value: int
    certificate: MistakeTree
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.certificate.height != self.value:
            raise ValueError("certificate height must equal the dimension")


class _SplitEngine:
    """Mistake-tree depth of row subsets under a fixed list of splits.

    A split `(tag, a, b)` sends the rows in `a` left and those in `b` right.
    `value(mask)` is the best 1 + min(value(mask & a), value(mask & b)) over
    the splits live in mask, those with both sides inhabited (0 if none,
    EMPTY_LDIM if mask is empty).  A split dead in a mask is dead in all its
    submasks, so a mask scans only the splits live in the mask it was split
    from.  The sides are disjoint, so a depth-d tree needs 2^d rows: a split
    whose smaller side has m rows reaches at most 1 + floor(log2 m), and a
    mask of m rows at most floor(log2 m).  Live splits are tried in
    decreasing order of that bound and the scan stops at the first one that
    cannot beat the best so far, which also stops it at the mask's cap.
    """

    def __init__(self, splits):
        self.splits = splits
        self._memo = {}

    def value(self, mask: int, splits=None) -> int:
        """Depth of the row subset `mask`.  `splits` (default: all) must
        hold, in list order, every split live in `mask`.  The searches it
        descends wait on an explicit stack, so it has no depth limit."""
        if mask == 0:
            return EMPTY_LDIM
        v = self._memo.get(mask)
        if v is not None:
            return v
        stack = [self._search(mask, self.splits if splits is None else splits)]
        while stack:
            try:
                side, live = stack[-1].send(v)
            except StopIteration as done:
                stack.pop()
                v = done.value
                continue
            v = self._memo.get(side)
            if v is None:
                stack.append(self._search(side, live))
        return v

    def _search(self, mask: int, splits):
        """Yields (side, live splits) per side it needs, returns the value."""
        # live splits, and (rows on the smaller side, smaller, larger side)
        live, scored = [], []
        for split in splits:
            lo = mask & split[1]
            if lo:
                hi = mask & split[2]
                if hi:
                    live.append(split)
                    n_lo, n_hi = lo.bit_count(), hi.bit_count()
                    scored.append((n_lo, lo, hi) if n_lo <= n_hi else (n_hi, hi, lo))
        scored.sort(key=lambda t: t[0], reverse=True)
        best = 0
        for n, lo, hi in scored:
            # n.bit_length() == 1 + floor(log2 n) bounds this split and
            # every later one
            if n.bit_length() <= best:
                break
            v = yield lo, live
            if v >= best:
                # a nonempty side is worth >= 0, so v == 0 settles the min
                best = max(best, 1 + (min(v, (yield hi, live)) if v else 0))
        self._memo[mask] = best
        return best

    def certificate(self, mask: int, height: int) -> list:
        """Split tags of a complete tree of `height` in heap order.

        Each node takes the first split in list order whose sides both
        reach the height left below it; its children split those sides.
        """
        tags, level = [], [(mask, self.splits)]
        for need in range(height - 1, -1, -1):
            below = []
            for m, splits in level:
                live = [s for s in splits if m & s[1] and m & s[2]]
                for tag, a, b in live:
                    lo, hi = m & a, m & b
                    # a side of fewer than 2^need rows cannot reach need
                    if (min(lo.bit_count(), hi.bit_count()) >= 1 << need
                            and self.value(lo, live) >= need
                            and self.value(hi, live) >= need):
                        tags.append(tag)
                        below += ((lo, live), (hi, live))
                        break
                else:
                    raise AssertionError("no split supports the computed dimension")
            level = below
        return tags


# ---------------------------------------------------------------------------
# tolerant Littlestone dimension
# ---------------------------------------------------------------------------

def _ldim_engine(H: HypothesisClass, tau: int) -> _SplitEngine:
    """The engine of Ldim_tau: splits (x, k, k') over each column's sorted
    label pairs with k' - k > tau, cached on H per tau."""
    engine = H._ldim_cache.get(tau)
    if engine is None:
        splits = []
        for x, col in enumerate(H.col_masks()):
            labels = sorted(col)
            for i, k in enumerate(labels):
                for kp in labels[i + 1:]:
                    if kp - k > tau:
                        splits.append(((x, k, kp), col[k], col[kp]))
        engine = H._ldim_cache[tau] = _SplitEngine(splits)
    return engine


def ldim_value(H: HypothesisClass, tau: int, mask: Optional[int] = None) -> int:
    """Ldim_tau of the row subset `mask` (defaults to the whole class).

    Returns EMPTY_LDIM (-1) for the empty subset.  The value is, over
    all instances x and label pairs with gap > tau whose restrictions are
    both nonempty, the best 1 + min of the two restricted values.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if mask is None:
        mask = H.full_mask
    return _ldim_engine(H, tau).value(mask)


def ldim_tau(H: HypothesisClass, tau: int) -> DimensionReport:
    """Exact Ldim_tau with a certificate tree attached."""
    value = ldim_value(H, tau)
    tags = _ldim_engine(H, tau).certificate(H.full_mask, value)
    x, k, kp = np.array(tags, np.int64).reshape(-1, 3).T
    return DimensionReport(value, MistakeTree(x, k, kp), params={"tau": tau})


def ldim_brute_force(H: HypothesisClass, tau: int, depth_cap: int) -> int:
    """Independent oracle: search candidate mistake trees from the definition.

    Enumerates trees top-down, keeping the set of hypotheses realizing the
    current path and demanding both leaf-extended paths stay realizable.  No
    memoization, no reuse of the engine above.  Returns
    min(true Ldim_tau, depth_cap).
    """
    if tau < 0 or depth_cap < 0:
        raise ValueError("tau and depth_cap must be >= 0")
    table = H.table

    def exists(rows, depth):
        if depth == 0:
            return True
        for x in range(H.domain_size):
            col = [int(table[r, x]) for r in rows]
            labels = sorted(set(col))
            for i, k in enumerate(labels):
                for kp in labels[i + 1:]:
                    if kp - k <= tau:
                        continue
                    side_k = tuple(r for r, v in zip(rows, col) if v == k)
                    side_kp = tuple(r for r, v in zip(rows, col) if v == kp)
                    if exists(side_k, depth - 1) and exists(side_kp, depth - 1):
                        return True
        return False

    all_rows = tuple(range(H.num_rows))
    d = 0
    while d < depth_cap and exists(all_rows, d + 1):
        d += 1
    return d


# ---------------------------------------------------------------------------
# sequential fat-shattering dimension
# ---------------------------------------------------------------------------

def _real_dimension(splits, num_rows: int, params: dict) -> DimensionReport:
    engine = _SplitEngine(splits)
    full = (1 << num_rows) - 1
    d = engine.value(full)
    tags = engine.certificate(full, d)
    tree = MistakeTree([x for x, _ in tags], witness=[s for _, s in tags])
    return DimensionReport(d, tree, params=params)


def fat_gamma(F: RealFunctionClass, gamma: float) -> DimensionReport:
    """Exact sequential fat-shattering dimension at scale gamma.

    Witnesses range over the breakpoints v - gamma/2 and v + gamma/2 of
    each column's values; the row partition is piecewise constant between
    breakpoints, so this grid loses nothing.  The split at (x, s) sends
    f <= s - gamma/2 left and f >= s + gamma/2 right.
    """
    if fault := gamma_fault(gamma):
        raise ValueError(fault)
    if math.isinf(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    half = gamma / 2.0
    splits = [((x, s), row_mask(col <= s - half + WITNESS_EPS),
               row_mask(col >= s + half - WITNESS_EPS))
              for x, col in enumerate(F.table.T)
              for s in sorted({float(v) + d for v in col for d in (-half, half)})]
    return _real_dimension(splits, F.num_rows, {"gamma": gamma})


# ---------------------------------------------------------------------------
# sequential Pollard pseudo-dimension
# ---------------------------------------------------------------------------

def _sign_witness_grid(F: RealFunctionClass):
    """Distinct column values plus one value strictly between each pair."""
    grids = []
    for x in range(F.domain_size):
        vals = sorted({float(v) for v in F.table[:, x]})
        grid = list(vals)
        for a, b in zip(vals, vals[1:]):
            mid = (a + b) / 2.0
            if a < mid < b:
                grid.append(mid)
        grids.append(sorted(grid))
    return grids


def pdim(F: RealFunctionClass) -> DimensionReport:
    """Pollard pseudo-dimension: Ldim of the sign class f -> sign(f(x) - s).

    sign(0) = +1.  Witnesses range over the per-column value grid, which
    realizes every sign pattern the class can produce.  The split at (x, s)
    sends f < s left (sign -1) and f >= s right (sign +1).
    """
    grids = _sign_witness_grid(F)
    splits = [((x, s), row_mask(F.table[:, x] < s),
               row_mask(F.table[:, x] >= s))
              for x in range(F.domain_size) for s in grids[x]]
    return _real_dimension(splits, F.num_rows, {})


def verify_report(report: DimensionReport, cls) -> tuple:
    """Re-check a report's certificate against the definitional checkers:
    a `tau` param marks Ldim_tau, a `gamma` param fat_gamma, neither pdim."""
    params, tree = report.params, report.certificate
    if "tau" in params:
        return check_mc_tree(cls, tree, params["tau"])
    if "gamma" in params:
        return check_real_tree(cls, tree, params["gamma"])
    return check_sign_tree(cls, tree)


# ---------------------------------------------------------------------------
# tower / iterated-logarithm utilities
# ---------------------------------------------------------------------------

MAX_EXPONENT = 1023.0  # twr saturates once the next exponent exceeds 2^1023


def log_star(x: float) -> int:
    """Number of base-2 log applications taking x down to at most 1."""
    count = 0
    v = float(x)
    while v > 1.0:
        v = math.log2(v)
        count += 1
    return count


def twr(t: int, x: float):
    """Height-t tower 2^2^...^x.  Returns (value, saturated).

    Saturates (value = inf) as soon as an exponent exceeds 2^1023, the last
    tower stage representable as a double.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    v = float(x)
    for _ in range(t):
        if v > MAX_EXPONENT:
            return math.inf, True
        v = 2.0 ** v
    return v, False
