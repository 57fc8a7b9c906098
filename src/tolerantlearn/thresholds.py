"""Threshold-family extraction from shattered trees.

One refinement step colors a shattered tree by a hypothesis, descends into
the tallest monochromatic subtree and restricts the class by the chosen
edge label.  Iterating the step and keeping the longest run with a constant
label pair yields a family of two-block threshold functions; a verifier
re-checks the family pattern from its definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classes import HypothesisClass, RealFunctionClass, discretize, label_to_midpoint
from .dimensions import ldim_tau
from .trees import McNode, MistakeTree, check_mc_tree, node_height


# ---------------------------------------------------------------------------
# monochromatic subtree maximization
# ---------------------------------------------------------------------------

def color_by_hypothesis(tree: MistakeTree, h_row) -> dict:
    """Color every internal vertex x by h(x)."""
    colors = {}

    def walk(node):
        if node is None:
            return
        colors[node] = int(h_row[node.x])
        walk(node.left)
        walk(node.right)

    walk(tree.root)
    # a recursive closure holds itself through its cell; dropping the name
    # frees what it captured now instead of at a later cyclic collection
    del walk
    return colors


def max_mono_subtree(tree: MistakeTree, coloring: dict):
    """Tallest single-color subtree; ties broken toward the smallest color.

    For a node v of color c, the best height through v is 1 plus the min
    over v's two branches of the best height anywhere in that branch.
    Returns (color, subtree) where the subtree's nodes keep their original
    instances and edge labels.
    """
    if tree.root is None:
        raise ValueError("cannot search an empty tree")
    for node in coloring:
        if not isinstance(node, McNode):
            raise ValueError("coloring must map multiclass tree nodes")

    colors = sorted(set(coloring.values()))
    m = {}      # (node, color) -> height of best c-subtree rooted at node
    best = {}   # (node, color) -> max of m over the subtree at node

    def compute(node):
        if node is None:
            return
        compute(node.left)
        compute(node.right)
        for c in colors:
            if coloring[node] != c:
                mv = 0
            else:
                bl = best.get((node.left, c), 0) if node.left else 0
                br = best.get((node.right, c), 0) if node.right else 0
                mv = 1 + min(bl, br)
            m[(node, c)] = mv
            sub = mv
            if node.left:
                sub = max(sub, best[(node.left, c)])
            if node.right:
                sub = max(sub, best[(node.right, c)])
            best[(node, c)] = sub

    compute(tree.root)
    top, top_color = -1, None
    for c in colors:
        h = best[(tree.root, c)]
        if h > top:
            top, top_color = h, c

    def first_with(node, c, h):
        """First node in preorder whose best c-subtree reaches height h."""
        if node is None:
            return None
        if m[(node, c)] >= h:
            return node
        return first_with(node.left, c, h) or first_with(node.right, c, h)

    def rebuild(node, c, h):
        if h == 0:
            return None
        left_child = first_with(node.left, c, h - 1)
        right_child = first_with(node.right, c, h - 1)
        return McNode(node.x, node.left_label, node.right_label,
                      rebuild(left_child, c, h - 1) if left_child else None,
                      rebuild(right_child, c, h - 1) if right_child else None)

    root = first_with(tree.root, top_color, top)
    mono = MistakeTree("multiclass", rebuild(root, top_color, top), top)
    # the recursive closures hold themselves and the memos (one entry per
    # node and color); dropping them frees the memos now
    del compute, first_with, rebuild
    return top_color, mono


# ---------------------------------------------------------------------------
# one refinement step
# ---------------------------------------------------------------------------

@dataclass
class ChooseResult:
    k: int                     # color of the tallest monochromatic subtree
    k_prime: int               # edge label at its root with 2|k - k'| > tau
    h0: tuple                  # the coloring hypothesis (row 0 of the input)
    x0: int                    # root instance of the monochromatic subtree
    restricted: HypothesisClass
    restricted_rows: np.ndarray  # positions of the surviving rows in the input
    subtree: MistakeTree
    mono_height: int


def color_and_choose(H: HypothesisClass, tree: MistakeTree, tau: int,
                     *, verify: bool = True) -> ChooseResult:
    """One coloring/descent step on a tolerance-tau shattered tree.

    The gap test at the chosen edge is 2|k - k'| > tau, the integer form of
    |k - k'| > tau/2.  When both edges qualify, the child with the taller
    remaining subtree wins; ties go left.
    """
    if tree.height < 1 or tree.root is None:
        raise ValueError("need a shattered tree of height >= 1")
    if verify:
        ok, msg = check_mc_tree(H, tree, tau)
        if not ok:
            raise ValueError(f"input tree is not shattered at tolerance {tau}: {msg}")

    h0 = H.row(0)
    coloring = color_by_hypothesis(tree, h0)
    k, mono = max_mono_subtree(tree, coloring)
    root = mono.root
    x0 = root.x

    options = []
    for label, child in ((root.left_label, root.left),
                         (root.right_label, root.right)):
        if 2 * abs(k - label) > tau:
            options.append((label, child))
    if not options:
        raise AssertionError("no edge label clears the tau/2 gap")
    k_prime, child = max(options, key=lambda lc: node_height(lc[1]))
    if len(options) == 2 and node_height(options[0][1]) == node_height(options[1][1]):
        k_prime, child = options[0]

    sel = np.flatnonzero(H.table[:, x0] == k_prime)
    if sel.size == 0:
        raise AssertionError("shattered tree admits no hypothesis on the chosen edge")
    restricted = HypothesisClass(H.K, H.table[sel])
    subtree = MistakeTree("multiclass", child, mono.height - 1)
    return ChooseResult(k, k_prime, h0, x0, restricted, sel, subtree, mono.height)


# ---------------------------------------------------------------------------
# threshold families
# ---------------------------------------------------------------------------

@dataclass
class ThresholdFamily:
    """Points and functions realizing the two-block threshold pattern.

    Multiclass: h_i(x_j) = k for i <= j and k' for i > j, with |k - k'| > gap.
    Regression: f_i(x_j) stays within `band` of u for i <= j (of u' for
    i > j), with |u - u'| >= margin.
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


def verify_thresholds(fam: ThresholdFamily, band: Optional[float] = None) -> VerifyResult:
    """Re-check a family against the definitional two-block pattern."""
    if len(fam.points) != len(fam.functions):
        return VerifyResult(False, "points and functions differ in length")
    n = len(fam.points)
    if n == 0:
        return VerifyResult(True, "empty family (vacuously valid)")

    if fam.kind == "multiclass":
        k, kp = fam.labels
        if abs(k - kp) <= (fam.gap or 0):
            return VerifyResult(False,
                                f"label gap |{k}-{kp}| <= {fam.gap}")
        for i in range(n):
            for j in range(n):
                want = k if i <= j else kp
                got = fam.functions[i][fam.points[j]]
                if got != want:
                    return VerifyResult(
                        False, f"h_{i}(x_{j}) = {got}, expected {want}", (i, j))
        return VerifyResult(True)

    if fam.kind == "regression":
        u, up = fam.bounds
        if abs(u - up) < (fam.margin or 0.0):
            return VerifyResult(False, f"|u - u'| = {abs(u - up)} < {fam.margin}")
        b = band if band is not None else fam.band
        if b is None:
            b = (fam.margin or 0.0) / 20.0
        for i in range(n):
            for j in range(n):
                center = u if i <= j else up
                dev = abs(fam.functions[i][fam.points[j]] - center)
                if dev > b + 1e-12:
                    return VerifyResult(
                        False, f"|f_{i}(x_{j}) - {center}| = {dev} > {b}", (i, j))
        return VerifyResult(True)

    return VerifyResult(False, f"unknown family kind {fam.kind!r}")


@dataclass
class ExtractionTrace:
    """Per-step record of the iterated refinement (for reports and tests)."""

    pairs: list = field(default_factory=list)      # (k_n, k'_n)
    points: list = field(default_factory=list)     # x_n
    heights: list = field(default_factory=list)    # height of T_n after step n
    mono_heights: list = field(default_factory=list)


def extract_thresholds_mc(H: HypothesisClass, tau: int,
                          tree: Optional[MistakeTree] = None,
                          *, verify_steps: bool = True):
    """Iterate the refinement on a tolerance-2*tau tree and collect thresholds.

    Returns (family, trace).  The family is the longest subsequence of steps
    sharing one (k, k') pair; its gap is tau.  With no tree supplied the
    tolerance-2*tau certificate is computed by `ldim_tau`.
    """
    if tree is None:
        tree = ldim_tau(H, 2 * tau).certificate
    trace = ExtractionTrace()
    rows = H.table
    row_ids = np.arange(H.num_rows)
    cur_H, cur_T = H, tree
    steps = []  # (k, k', original row id of h_n, x_n)
    while cur_T.height >= 1:
        res = color_and_choose(cur_H, cur_T, 2 * tau, verify=verify_steps)
        steps.append((res.k, res.k_prime, int(row_ids[0]), res.x0))
        trace.pairs.append((res.k, res.k_prime))
        trace.points.append(res.x0)
        trace.mono_heights.append(res.mono_height)
        trace.heights.append(res.subtree.height)
        row_ids = row_ids[res.restricted_rows]
        cur_H, cur_T = res.restricted, res.subtree

    if not steps:
        return ThresholdFamily("multiclass", [], [], labels=None, gap=tau), trace

    by_pair = {}
    for k, kp, hid, x in steps:
        by_pair.setdefault((k, kp), []).append((hid, x))
    pair = min(by_pair, key=lambda p: (-len(by_pair[p]), p))
    chosen = by_pair[pair]
    fam = ThresholdFamily(
        "multiclass",
        points=[x for _, x in chosen],
        functions=[tuple(int(v) for v in rows[hid]) for hid, _ in chosen],
        labels=pair,
        gap=tau,
        meta={"row_ids": [hid for hid, _ in chosen],
              "steps": len(steps)},
    )
    return fam, trace


def extract_thresholds_reg(F: RealFunctionClass, gamma: float):
    """Regression thresholds via discretization at scale gamma/50.

    Discretizes, extracts multiclass thresholds at gap 10 (tolerance-20
    trees), and maps the labels back to interval midpoints.  The family
    margin is gamma/5 with per-point deviation at most gamma/100.  An empty
    family means no tolerance-20 pair exists at this scale.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    scale = gamma / 50.0
    Hd, row_map = discretize(F, scale)
    report = ldim_tau(Hd, 20)
    margin, band = gamma / 5.0, gamma / 100.0
    if report.value < 1:
        fam = ThresholdFamily("regression", [], [], bounds=None,
                              margin=margin, band=band,
                              meta={"reason": "no tolerance-20 pair at this scale"})
        return fam, ExtractionTrace()

    mc_fam, trace = extract_thresholds_mc(Hd, 10, tree=report.certificate)
    if len(mc_fam) == 0:
        fam = ThresholdFamily("regression", [], [], bounds=None,
                              margin=margin, band=band,
                              meta={"reason": "refinement produced no steps"})
        return fam, trace

    k, kp = mc_fam.labels
    u = label_to_midpoint(k, scale)
    up = label_to_midpoint(kp, scale)
    # first original row landing on each discretized row
    reps = []
    for hid in mc_fam.meta["row_ids"]:
        orig = int(np.flatnonzero(row_map == hid)[0])
        reps.append(orig)
    fam = ThresholdFamily(
        "regression",
        points=list(mc_fam.points),
        functions=[tuple(float(v) for v in F.table[r]) for r in reps],
        bounds=(u, up),
        margin=margin,
        band=band,
        meta={"scale": scale, "labels": (k, kp), "source_rows": reps},
    )
    return fam, trace
