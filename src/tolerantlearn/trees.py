"""Mistake trees: shattering certificates for the dimension computations.

A multi-class node carries a domain index and two edge labels; a real-valued
node carries a domain index and a shattering witness, with -1/+1 edge
directions.  Trees are complete to their height: every root-to-leaf path has
exactly `height` internal nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
# definitional shattering checkers
# ---------------------------------------------------------------------------

def check_mc_tree(H: HypothesisClass, tree: MistakeTree, tau: int):
    """Check a multi-class tree straight from the shattering definition.

    Verifies completeness, the per-node edge gap |k - k'| > tau, and that
    every root-to-leaf path (including the final edge choice) is realized by
    at least one hypothesis.  Returns (ok, message).
    """
    if tree.kind != "multiclass":
        return False, "not a multiclass tree"
    if not is_complete(tree.root, tree.height):
        return False, f"tree is not complete at height {tree.height}"
    if tree.root is None:
        return True, "empty tree"

    def walk(node, rows: np.ndarray):
        if node.x < 0 or node.x >= H.domain_size:
            return f"instance {node.x} outside the domain"
        if abs(node.left_label - node.right_label) <= tau:
            return (f"edge gap |{node.left_label} - {node.right_label}| "
                    f"<= {tau} at instance {node.x}")
        for label, child in ((node.left_label, node.left),
                             (node.right_label, node.right)):
            if not (1 <= label <= H.K):
                return f"label {label} outside 1..{H.K}"
            sub = rows[H.table[rows, node.x] == label]
            if child is None:
                if sub.size == 0:
                    return (f"path ending with ({node.x} -> {label}) "
                            "is realized by no hypothesis")
            else:
                err = walk(child, sub)
                if err:
                    return err
        return None

    err = walk(tree.root, np.arange(H.num_rows))
    return (err is None), (err or "ok")


def check_real_tree(F: RealFunctionClass, tree: MistakeTree, gamma: float):
    """Check a real-valued tree: every path admits f with eps*(f(x)-s) >= gamma/2."""
    if tree.kind != "real":
        return False, "not a real-valued tree"
    if gamma <= 0:
        return False, "gamma must be positive"
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
