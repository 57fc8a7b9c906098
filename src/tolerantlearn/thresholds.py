"""Threshold-family extraction from shattered trees.

One refinement step colors a shattered tree by a hypothesis, descends into
the tallest monochromatic subtree and keeps the rows of the input class
that carry the chosen edge label.  Iterating the step and keeping the
longest run with a constant label pair yields a family of two-block
threshold functions; a verifier re-checks the family pattern from its
definition.

The monochromatic search runs on the tree's heap-order arrays: a coloring is
one color per node, the (node, color) table is filled bottom-up one depth
level (`trees.level`) at a time, and the subtree is gathered top-down a
level at a time, each chosen node found by a descent that the table's
branch maxima steer, without another sweep of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classes import (GRID_MIN, HypothesisClass, RealFunctionClass, discretize,
                      label_to_midpoint)
from .dimensions import ldim_tau
from .trees import MistakeTree, check_mc_tree, child, children, level


# ---------------------------------------------------------------------------
# monochromatic subtree maximization
# ---------------------------------------------------------------------------

def color_by_hypothesis(tree: MistakeTree, h_row) -> np.ndarray:
    """The color h(x) of every node, in heap order."""
    return np.asarray(h_row)[tree.x]


def max_mono_subtree(tree: MistakeTree, coloring):
    """Tallest single-color subtree; ties broken toward the smallest color.

    `coloring` gives each node's color in heap order.  For a node v of
    color c, the best height through v is 1 plus the min over v's two
    branches of the best height anywhere in that branch.  Returns
    (color, subtree) where the subtree's nodes keep their original
    instances and edge labels.

    The (node, color) table is filled bottom-up one depth level at a time,
    with `best`, the max of m over each branch.  The subtree is then
    gathered top-down a level at a time: below each chosen node, the child
    on each side is the first node in preorder in that branch whose subtree
    of the color is tall enough, found by a descent from the branch's top
    that keeps a node v if m[v] >= h, else goes left if best[left] >= h,
    else right; each level's descents run together.
    """
    coloring = np.asarray(coloring)
    if tree.height == 0:
        raise ValueError("cannot search an empty tree")
    if coloring.shape != tree.x.shape:
        raise ValueError("a coloring gives one color per node, in heap order")

    colors, own = np.unique(coloring, return_inverse=True)
    own = own[:, None] == np.arange(len(colors))
    n = len(coloring)
    m = np.zeros((n, len(colors)), np.int64)   # best c-subtree rooted at v
    # max of m under v; the rows past n stand for the absent children of leaves
    best = np.zeros((2 * n + 1, len(colors)), np.int64)
    for d in range(tree.height - 1, -1, -1):
        ids, (lefts, rights) = level(d), children(d)
        bl, br = best[lefts], best[rights]
        m[ids] = mv = np.where(own[ids], 1 + np.minimum(bl, br), 0)
        best[ids] = np.maximum(mv, np.maximum(bl, br))
    ci = int(best[0].argmax())                 # first maximum: smallest color
    top = int(best[0, ci])
    m, best = m[:, ci], best[:, ci]

    def first_reaching(ids, h):
        """Moves each id, whose branch holds a node with m >= h, in place
        to the first such node of the branch in preorder: the node itself,
        else the first of its left branch if that holds one (best >= h),
        else the first of its right branch."""
        while (low := m[ids] < h).any():
            down = ids[low]
            ids[low] = child(down, best[child(down, False)] < h)
        return ids

    chosen = [first_reaching(np.zeros(1, np.int64), top)]   # level by level
    for h in range(top - 1, 0, -1):
        above = chosen[-1]
        chosen.append(first_reaching(
            np.stack((child(above, False), child(above, True)), axis=1).ravel(), h))
    return int(colors[ci]), tree.take(np.concatenate(chosen))


# ---------------------------------------------------------------------------
# one refinement step
# ---------------------------------------------------------------------------

@dataclass
class ChooseResult:
    k: int                     # color of the tallest monochromatic subtree
    k_prime: int               # edge label at its root with 2|k - k'| > tau
    x0: int                    # root instance of the monochromatic subtree
    rows: np.ndarray           # the given rows labeled k' at x0, in order
    subtree: MistakeTree


def color_and_choose(H: HypothesisClass, rows: np.ndarray, tree: MistakeTree,
                     tau: int) -> ChooseResult:
    """One coloring/descent step on a tolerance-tau shattered tree.

    `rows` index `H.table` and must shatter the tree at tolerance tau,
    which the step does not check; the tree is colored by row rows[0].
    The returned rows shatter the returned subtree: its paths, after the
    chosen edge, are paths of the monochromatic subtree, and those extend
    to paths of the given tree.

    The gap test at the chosen edge is 2|k - k'| > tau, the integer form of
    |k - k'| > tau/2.  When both edges qualify the left one wins: the
    monochromatic subtree is complete, so its two children are equally tall.
    """
    if tree.height < 1:
        raise ValueError("need a shattered tree of height >= 1")

    k, mono = max_mono_subtree(tree, color_by_hypothesis(tree, H.table[rows[0]]))
    x0 = int(mono.x[0])

    # (edge label, which edge) at the subtree's root
    options = [(int(label), right)
               for label, right in ((mono.left_label[0], False),
                                    (mono.right_label[0], True))
               if 2 * abs(k - label) > tau]
    if not options:
        raise AssertionError("no edge label clears the tau/2 gap")
    k_prime, right = options[0]

    kept = rows[H.table[rows, x0] == k_prime]
    if kept.size == 0:
        raise AssertionError("shattered tree admits no hypothesis on the chosen edge")
    return ChooseResult(k, k_prime, x0, kept, mono.subtree(child(0, right)))


# ---------------------------------------------------------------------------
# threshold families
# ---------------------------------------------------------------------------

@dataclass
class ThresholdFamily:
    """Points and functions realizing the two-block threshold pattern.

    f_i(x_j) sits at one center for i <= j and at the other for i > j.
    Multiclass: the centers are labels (k, k'), met exactly, with
    |k - k'| > gap.  Regression: the centers are values (u, u'), met within
    `band` (margin/20 when null), with |u - u'| >= margin.
    """

    kind: str
    points: list
    functions: list
    labels: Optional[tuple] = None    # (k, k')
    gap: Optional[int] = None
    bounds: Optional[tuple] = None    # (u, u')
    margin: Optional[float] = None
    band: Optional[float] = None
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.points)


@dataclass
class VerifyResult:
    ok: bool
    message: str = "ok"
    violation: Optional[tuple] = None  # (i, j)

    def __bool__(self):
        return self.ok


def verify_thresholds(fam: ThresholdFamily) -> VerifyResult:
    """Re-check a family against the definitional two-block pattern.

    The kind sets the centers, their separation test and the tolerance of
    each value: multiclass labels must match exactly, regression values lie
    within the band (plus 1e-12 of float slack).  The first (i, j) in row
    order that misses its center is reported.  Every test is written so that
    NaN, which fails every comparison, is rejected.
    """
    if len(fam.points) != len(fam.functions):
        return VerifyResult(False, "points and functions differ in length")
    if len(fam.points) == 0:
        return VerifyResult(True, "empty family (vacuously valid)")

    if fam.kind == "multiclass":
        centers = k, kp = fam.labels
        if not abs(k - kp) > (fam.gap or 0):
            return VerifyResult(False, f"label gap |{k}-{kp}| <= {fam.gap}")

        def miss(i, j, got, want):
            return got != want and f"h_{i}(x_{j}) = {got}, expected {want}"
    elif fam.kind == "regression":
        centers = u, up = fam.bounds
        if not abs(u - up) >= (fam.margin or 0.0):
            return VerifyResult(False, f"|u - u'| = {abs(u - up)} < {fam.margin}")
        band = fam.band if fam.band is not None else (fam.margin or 0.0) / 20.0

        def miss(i, j, got, want):
            dev = abs(got - want)
            return (not dev <= band + 1e-12
                    and f"|f_{i}(x_{j}) - {want}| = {dev} > {band}")
    else:
        return VerifyResult(False, f"unknown family kind {fam.kind!r}")

    for i, f in enumerate(fam.functions):
        for j, x in enumerate(fam.points):
            message = miss(i, j, f[x], centers[i > j])   # first block: i <= j
            if message:
                return VerifyResult(False, message, (i, j))
    return VerifyResult(True)


@dataclass
class ExtractionTrace:
    """Per-step record of the iterated refinement (for reports and tests)."""

    pairs: list = field(default_factory=list)      # (k_n, k'_n)
    heights: list = field(default_factory=list)    # height of T_n after step n


def extract_thresholds_mc(H: HypothesisClass, tau: int,
                          tree: Optional[MistakeTree] = None):
    """Iterate the refinement on a tolerance-2*tau tree and collect thresholds.

    Returns (family, trace).  The family is the longest subsequence of steps
    sharing one (k, k') pair; its gap is tau, and `meta["row_ids"]` names
    the rows of H its functions are.  With no tree supplied the
    tolerance-2*tau certificate is computed by `ldim_tau`.  The tree is
    checked once, here: each step's pair is shattered by construction.
    """
    if tree is None:
        tree = ldim_tau(H, 2 * tau).certificate
    ok, msg = check_mc_tree(H, tree, 2 * tau)
    if not ok:
        raise ValueError(f"input tree is not shattered at tolerance {2 * tau}: {msg}")
    trace = ExtractionTrace()
    rows = np.arange(H.num_rows)
    by_pair = {}  # (k, k') -> [(row id of h_n, x_n)]
    while tree.height >= 1:
        res = color_and_choose(H, rows, tree, 2 * tau)
        trace.pairs.append((res.k, res.k_prime))
        trace.heights.append(res.subtree.height)
        by_pair.setdefault((res.k, res.k_prime), []).append((int(rows[0]), res.x0))
        rows, tree = res.rows, res.subtree

    if not by_pair:
        return ThresholdFamily("multiclass", [], [], labels=None, gap=tau), trace

    pair = min(by_pair, key=lambda p: (-len(by_pair[p]), p))
    chosen = by_pair[pair]
    fam = ThresholdFamily(
        "multiclass",
        points=[x for _, x in chosen],
        functions=[tuple(int(v) for v in H.table[hid]) for hid, _ in chosen],
        labels=pair,
        gap=tau,
        meta={"row_ids": [hid for hid, _ in chosen]},
    )
    return fam, trace


def extract_thresholds_reg(F: RealFunctionClass, gamma: float):
    """Regression thresholds via discretization at scale gamma/50.

    Discretizes, extracts multiclass thresholds at gap 10 (tolerance-20
    trees), and maps the labels back to interval midpoints.  The family
    margin is gamma/5 with per-point deviation at most gamma/100.  An empty
    family means no tolerance-20 pair exists at this scale.
    """
    if not gamma > 0:   # NaN fails too
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not gamma <= 100:   # the discretization scale gamma/50 is at most 2
        raise ValueError(f"gamma must lie in (0, 100], got {gamma}")
    if gamma < 50 * GRID_MIN:   # nor is the scale below 2**-52
        raise ValueError(f"gamma must be at least 50 * 2**-52, got {gamma}")
    scale = gamma / 50.0
    Hd, row_map = discretize(F, scale)
    mc_fam, trace = extract_thresholds_mc(Hd, 10)
    margin, band = gamma / 5.0, gamma / 100.0
    if len(mc_fam) == 0:
        return ThresholdFamily("regression", [], [], margin=margin, band=band), trace

    # the first original row landing on each discretized row
    reps = np.unique(row_map, return_index=True)[1][mc_fam.meta["row_ids"]]
    fam = ThresholdFamily(
        "regression",
        points=list(mc_fam.points),
        functions=[tuple(float(v) for v in F.table[r]) for r in reps],
        bounds=tuple(label_to_midpoint(k, scale) for k in mc_fam.labels),
        margin=margin,
        band=band,
    )
    return fam, trace
