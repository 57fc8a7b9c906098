"""Mistake trees: shattering certificates for the dimension computations.

A multi-class node carries a domain index and two edge labels; a real-valued
node carries a domain index and a shattering witness, with -1/+1 edge
directions.  Trees are complete to their height: every root-to-leaf path has
exactly `height` internal nodes.

`flatten_mc` turns a multiclass tree into preorder arrays without
recursion.  `check_mc_tree` works on them: it routes every hypothesis down
the tree one level at a time (the edge gap lets a hypothesis follow at most
one path) and reports the first fault in a fixed order (incompleteness,
then per-node domain/gap/label faults in preorder, then unrealized final
edges in preorder).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .classes import HypothesisClass, RealFunctionClass

# comparison slack for real-valued shattering constraints (see classes.BOUNDARY_SNAP)
WITNESS_EPS = 1e-9


@dataclass(eq=False)
class McNode:
    """Internal node of a multi-class mistake tree.

    Nodes hash and compare by identity so they can key colorings.
    """

    __slots__ = ("x", "left_label", "right_label", "left", "right")

    x: int
    left_label: int
    right_label: int
    left: Optional["McNode"]
    right: Optional["McNode"]


@dataclass(eq=False)
class RealNode:
    """Internal node of a real-valued mistake tree (witness + direction edges).

    The left edge is direction -1 (functions below the witness), the right
    edge is +1.
    """

    __slots__ = ("x", "witness", "left", "right")

    x: int
    witness: float
    left: Optional["RealNode"]
    right: Optional["RealNode"]


@dataclass
class MistakeTree:
    """A shattering certificate: kind, root (None when empty) and height."""

    kind: str            # "multiclass" | "real"
    root: object
    height: int

    def __post_init__(self):
        if self.kind not in ("multiclass", "real"):
            raise ValueError(f"unknown tree kind {self.kind!r}")
        if (self.root is None) != (self.height == 0):
            raise ValueError("empty tree iff height 0")


def node_height(node) -> int:
    if node is None:
        return 0
    return 1 + max(node_height(node.left), node_height(node.right))


def is_complete(node, height: int) -> bool:
    """Every root-to-leaf path has exactly `height` internal nodes."""
    if node is None:
        return height == 0
    return is_complete(node.left, height - 1) and is_complete(node.right, height - 1)


# ---------------------------------------------------------------------------
# flattened multiclass trees
# ---------------------------------------------------------------------------

class FlatMcTree(NamedTuple):
    """A multiclass tree as preorder arrays.

    Node i is `nodes[i]`, with instance `x[i]`, edge labels `left_label[i]`
    and `right_label[i]`, children `left[i]` and `right[i]` (-1 where
    absent) and depth `depth[i]`.  Every subtree is a contiguous id range
    that starts at its root, and `levels[d]` holds the ids at depth d in
    increasing order.
    """

    nodes: list
    x: np.ndarray
    left_label: np.ndarray
    right_label: np.ndarray
    left: np.ndarray
    right: np.ndarray
    depth: np.ndarray
    levels: list


def breadth_first(root) -> tuple:
    """Nodes level by level, left to right, with the width of each level and
    each node's has-left and has-right flags."""
    order, widths, has_left, has_right = [], [], [], []
    level = [] if root is None else [root]
    while level:
        order += level
        widths.append(len(level))
        below = []
        for v in level:
            left, right = v.left, v.right
            has_left.append(left is not None)
            has_right.append(right is not None)
            if left is not None:
                below.append(left)
            if right is not None:
                below.append(right)
        level = below
    return order, widths, has_left, has_right


def flatten_mc(tree: MistakeTree) -> FlatMcTree:
    """Flatten a multiclass tree into preorder arrays in one iterative pass.

    Nodes are gathered breadth-first, so each level is a contiguous run and
    the children of a run follow in order; subtree sizes (bottom-up) and
    preorder positions (top-down) are then computed a level at a time.
    """
    bfs, widths, has_l, has_r = breadth_first(tree.root)
    n = len(bfs)
    has_l = np.fromiter(has_l, bool, n)
    has_r = np.fromiter(has_r, bool, n)
    # breadth-first ids of children run 1, 2, ... in the order of their parents
    kids = has_l.astype(np.int64) + has_r
    first = np.cumsum(kids) - kids + 1
    left_b = np.where(has_l, first, -1)
    right_b = np.where(has_r, first + has_l, -1)
    bounds = np.cumsum([0] + widths).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))

    size = np.ones(n + 1, np.int64)   # size[-1] = 0 stands for an absent child
    size[n] = 0
    for s, e in reversed(spans):
        size[s:e] += size[left_b[s:e]] + size[right_b[s:e]]
    pre = np.zeros(n, np.int64)
    for s, e in spans:
        lb, rb, at = left_b[s:e], right_b[s:e], pre[s:e]
        pre[lb[lb >= 0]] = at[lb >= 0] + 1
        pre[rb[rb >= 0]] = (at + 1 + size[lb])[rb >= 0]

    order = np.empty(n, np.int64)
    order[pre] = np.arange(n)
    nodes = [bfs[i] for i in order.tolist()]
    lb, rb = left_b[order], right_b[order]
    return FlatMcTree(
        nodes=nodes,
        x=np.fromiter((v.x for v in nodes), np.int64, n),
        left_label=np.fromiter((v.left_label for v in nodes), np.int64, n),
        right_label=np.fromiter((v.right_label for v in nodes), np.int64, n),
        left=np.where(lb >= 0, pre[lb], -1),
        right=np.where(rb >= 0, pre[rb], -1),
        depth=np.repeat(np.arange(len(widths)), widths)[order],
        levels=[pre[s:e] for s, e in spans],
    )


# ---------------------------------------------------------------------------
# definitional shattering checkers
# ---------------------------------------------------------------------------

def check_mc_tree(H: HypothesisClass, tree: MistakeTree, tau: int):
    """Check a multi-class tree straight from the shattering definition.

    Verifies completeness, that every instance lies in the domain, the
    per-node edge gap |k - k'| > tau, that edge labels lie in 1..K, and that
    every root-to-leaf path (including the final edge choice) is realized by
    at least one hypothesis.  Returns (ok, message).

    The gap makes the two edge labels of a node differ, so a hypothesis
    agrees with at most one of them and follows at most one path.  All rows
    are therefore routed down the tree together, one level at a time, and
    the tree is shattered iff every final edge receives a row.  When a tree
    has several faults the message names the first in this order: an
    incomplete tree, then the first node in preorder that breaks the
    domain, gap or label test (checked in that order at the node), then the
    first unrealized final edge in preorder, left edge before right.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tree.kind != "multiclass":
        return False, "not a multiclass tree"
    if tree.root is None:
        if tree.height != 0:
            return False, f"tree is not complete at height {tree.height}"
        return True, "empty tree"
    try:
        t = flatten_mc(tree)
    except OverflowError:
        # no domain index and no label in 1..K is that large
        return False, "an instance or edge label does not fit in 64 bits"
    last = t.depth == tree.height - 1
    if ((t.left < 0) != last).any() or ((t.right < 0) != last).any():
        return False, f"tree is not complete at height {tree.height}"

    xs, kl, kr = t.x, t.left_label, t.right_label
    bad_x = (xs < 0) | (xs >= H.domain_size)
    bad_gap = np.abs(kl - kr) <= tau
    bad_kl = (kl < 1) | (kl > H.K)
    bad = bad_x | bad_gap | bad_kl | (kr < 1) | (kr > H.K)
    if bad.any():
        i = int(bad.argmax())
        if bad_x[i]:
            return False, f"instance {xs[i]} outside the domain"
        if bad_gap[i]:
            return False, f"edge gap |{kl[i]} - {kr[i]}| <= {tau} at instance {xs[i]}"
        return False, f"label {kl[i] if bad_kl[i] else kr[i]} outside 1..{H.K}"

    rows = np.arange(H.num_rows)
    at = np.zeros(H.num_rows, np.int64)      # node each surviving row sits at
    for _ in range(tree.height - 1):
        vals = H.table[rows, xs[at]]
        go_left, go_right = vals == kl[at], vals == kr[at]
        moving = go_left | go_right
        rows = rows[moving]
        at = np.where(go_left, t.left[at], t.right[at])[moving]
    vals = H.table[rows, xs[at]]
    reached = np.zeros((len(t.nodes), 2), bool)
    reached[at[vals == kl[at]], 0] = True
    reached[at[vals == kr[at]], 1] = True
    leaves = t.levels[-1]
    missing = ~reached[leaves]
    if missing.any():
        j = int(missing.ravel().argmax())
        i, side = int(leaves[j // 2]), j % 2
        label = (kl, kr)[side][i]
        return False, (f"path ending with ({xs[i]} -> {label}) "
                       "is realized by no hypothesis")
    return True, "ok"


def check_real_tree(F: RealFunctionClass, tree: MistakeTree, gamma: float):
    """Check a real-valued tree: every path admits f with eps*(f(x)-s) >= gamma/2."""
    if tree.kind != "real":
        return False, "not a real-valued tree"
    if not gamma > 0:   # NaN fails too
        return False, f"gamma must be positive, got {gamma}"
    if not is_complete(tree.root, tree.height):
        return False, f"tree is not complete at height {tree.height}"
    if tree.root is None:
        return True, "empty tree"
    half = gamma / 2.0 - WITNESS_EPS

    def walk(node, rows: np.ndarray):
        if node.x < 0 or node.x >= F.domain_size:
            return f"instance {node.x} outside the domain"
        col = F.table[rows, node.x]
        below = rows[col <= node.witness - half]
        above = rows[col >= node.witness + half]
        for sub, child, side in ((below, node.left, -1), (above, node.right, +1)):
            if child is None:
                if sub.size == 0:
                    return (f"path ending with ({node.x}, eps={side:+d}) "
                            "is realized by no function")
            else:
                err = walk(child, sub)
                if err:
                    return err
        return None

    err = walk(tree.root, np.arange(F.num_rows))
    return (err is None), (err or "ok")


# ---------------------------------------------------------------------------
# analytic certificates for the structured generator families
# ---------------------------------------------------------------------------

def complete_binary_certificate(num_points: int) -> MistakeTree:
    """Depth-n certificate for the complete binary class over n points.

    Level i branches on instance i with edge labels (1, 2); every path is
    realizable because all 2^n labelings are present.
    """
    if num_points < 1:
        raise ValueError("need at least one point")

    def build(level: int):
        if level == num_points:
            return None
        child_l = build(level + 1)
        child_r = build(level + 1)
        return McNode(level, 1, 2, child_l, child_r)

    return MistakeTree("multiclass", build(0), num_points)


def threshold_class_certificate(num_points: int) -> MistakeTree:
    """Binary-search certificate for the threshold class over n points.

    The class has rows h_j (j = 0..n) with h_j(x_i) = 2 iff i >= j.  A node
    on point m splits the consistent thresholds into j <= m (label 2) and
    j > m (label 1), so balanced splitting shatters depth floor(log2(n+1)).
    """
    if num_points < 1:
        raise ValueError("need at least one point")

    def build(lo: int, hi: int, depth: int):
        # thresholds j in [lo, hi] are still consistent with the path
        if depth == 0:
            return None
        m = (lo + hi) // 2                      # branch on point m
        left = build(m + 1, hi, depth - 1)      # label 1: j > m
        right = build(lo, m, depth - 1)         # label 2: j <= m
        return McNode(m, 1, 2, left, right)

    height = int(np.floor(np.log2(num_points + 1)))
    if height == 0:
        return MistakeTree("multiclass", None, 0)
    return MistakeTree("multiclass", build(0, num_points, height), height)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def tree_to_dict(tree: MistakeTree) -> dict:
    def enc(node):
        if node is None:
            return None
        if isinstance(node, McNode):
            return {"x": node.x, "left_label": node.left_label,
                    "right_label": node.right_label,
                    "left": enc(node.left), "right": enc(node.right)}
        return {"x": node.x, "witness": node.witness,
                "left": enc(node.left), "right": enc(node.right)}

    return {"kind": tree.kind, "height": tree.height, "root": enc(tree.root)}


def tree_from_dict(doc: dict) -> MistakeTree:
    kind = doc["kind"]

    def dec(d):
        if d is None:
            return None
        if kind == "multiclass":
            return McNode(int(d["x"]), int(d["left_label"]),
                          int(d["right_label"]), dec(d["left"]), dec(d["right"]))
        return RealNode(int(d["x"]), float(d["witness"]),
                        dec(d["left"]), dec(d["right"]))

    return MistakeTree(kind, dec(doc["root"]), int(doc["height"]))
