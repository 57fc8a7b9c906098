"""Mistake trees: shattering certificates for the dimension computations.

Every tree is complete to its height, so a tree of height h is a set of
per-node arrays of length 2^h - 1 in heap (breadth-first) order: node i has
children 2i + 1 (left edge) and 2i + 2 (right edge), depth d holds the ids
`level(d)`, and a list length other than 2^h - 1 cannot be a tree.  A
multi-class node carries a domain index `x` and two edge labels
`left_label`/`right_label`; a real-valued node carries `x` and a shattering
`witness`, its left edge being direction -1 and its right edge +1.

`check_mc_tree` routes every hypothesis down the tree one level at a time
(the edge gap lets a hypothesis follow at most one path) and reports the
first fault in a fixed order (per-node domain/gap/label faults in preorder,
then unrealized final edges in preorder).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classes import HypothesisClass, RealFunctionClass

# comparison slack for real-valued shattering constraints (see classes.BOUNDARY_SNAP)
WITNESS_EPS = 1e-9


# ---------------------------------------------------------------------------
# the heap layout
# ---------------------------------------------------------------------------

def child(i, right):
    """Heap id of node i's left child (right false) or right child (right
    true); works on arrays too."""
    return 2 * i + 1 + right


def level(d: int) -> slice:
    """Heap ids of the nodes at depth d, left to right."""
    return slice((1 << d) - 1, (2 << d) - 1)


def children(d: int) -> tuple:
    """Heap ids of the left and of the right children of the nodes at
    depth d, as two slices in the order of their parents."""
    below = level(d + 1)
    return (slice(below.start, below.stop, 2),
            slice(below.start + 1, below.stop, 2))


def preorder_rank(height: int) -> np.ndarray:
    """Preorder position of every heap id in a tree of `height`.

    A left child comes right after its parent, a right child after its
    parent and the parent's left subtree; in closed form, node j of depth d
    (heap id 2^d - 1 + j) has rank d + j * 2^(h-d) - popcount(j).
    """
    rank = np.zeros((1 << height) - 1, np.int64)
    for d in range(height - 1):
        lefts, rights = children(d)
        rank[lefts] = rank[level(d)] + 1
        rank[rights] = rank[level(d)] + (1 << (height - d - 1))
    return rank


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

# per-node arrays of each tree kind, in file order
FIELDS = {"multiclass": ("x", "left_label", "right_label"), "real": ("x", "witness")}


@dataclass(eq=False)
class MistakeTree:
    """A complete shattering certificate as heap-order arrays.

    Multi-class trees give `left_label` and `right_label`, real-valued trees
    give `witness`; the kind and the height follow from which arrays are
    given and from their length.
    """

    x: np.ndarray
    left_label: Optional[np.ndarray] = None
    right_label: Optional[np.ndarray] = None
    witness: Optional[np.ndarray] = None

    def __post_init__(self):
        given = tuple(getattr(self, f) is not None
                      for f in ("left_label", "right_label", "witness"))
        if given not in ((True, True, False), (False, False, True)):
            raise ValueError("a tree has both edge labels or a witness")
        for f in self.fields:
            setattr(self, f, np.asarray(getattr(self, f),
                                        np.float64 if f == "witness" else np.int64))
        n = len(self.x)
        if any(getattr(self, f).shape != (n,) for f in self.fields):
            raise ValueError("per-node arrays must be 1-D of one length")
        if n & (n + 1):
            raise ValueError(f"{n} nodes do not make a complete tree "
                             "(2^height - 1 do)")

    @property
    def kind(self) -> str:
        return "real" if self.witness is not None else "multiclass"

    @property
    def fields(self) -> tuple:
        return FIELDS[self.kind]

    @property
    def height(self) -> int:
        return len(self.x).bit_length()

    def take(self, ids) -> "MistakeTree":
        """The tree whose node i is node ids[i] of this one."""
        return MistakeTree(**{f: getattr(self, f)[ids] for f in self.fields})

    def subtree(self, i: int) -> "MistakeTree":
        """The subtree under node i, in its own heap order."""
        depths = range(self.height - (i + 1).bit_length() + 1)
        return self.take(np.concatenate(
            [np.arange(((i + 1) << d) - 1, ((i + 2) << d) - 1) for d in depths]
            or [np.zeros(0, np.int64)]))

    @property
    def root(self) -> Optional["Node"]:
        """A read-only view of the root, None for the empty tree."""
        return Node(self, 0) if len(self.x) else None


class Node:
    """Read-only view of heap node `index` of a tree: `x`, the edge labels
    or `witness`, and the children `left`/`right` (None below the last
    level)."""

    __slots__ = ("tree", "index")

    def __init__(self, tree: MistakeTree, index: int):
        self.tree, self.index = tree, index

    def _child(self, i: int) -> Optional["Node"]:
        return Node(self.tree, i) if i < len(self.tree.x) else None

    x = property(lambda self: int(self.tree.x[self.index]))
    left_label = property(lambda self: int(self.tree.left_label[self.index]))
    right_label = property(lambda self: int(self.tree.right_label[self.index]))
    witness = property(lambda self: float(self.tree.witness[self.index]))
    left = property(lambda self: self._child(child(self.index, False)))
    right = property(lambda self: self._child(child(self.index, True)))


# ---------------------------------------------------------------------------
# definitional shattering checkers
# ---------------------------------------------------------------------------

def check_mc_tree(H: HypothesisClass, tree: MistakeTree, tau: int):
    """Check a multi-class tree straight from the shattering definition.

    Verifies that every instance lies in the domain, the per-node edge gap
    |k - k'| > tau, that edge labels lie in 1..K, and that every
    root-to-leaf path (including the final edge choice) is realized by at
    least one hypothesis.  Returns (ok, message).

    The gap makes the two edge labels of a node differ, so a hypothesis
    agrees with at most one of them and follows at most one path.  All rows
    are therefore routed down the tree together, one level at a time, and
    the tree is shattered iff every final edge receives a row.  When a tree
    has several faults the message names the first in this order: the
    first node in preorder that breaks the domain, gap or label test
    (checked in that order at the node), then the first unrealized final
    edge in preorder, left edge before right.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tree.kind != "multiclass":
        return False, "not a multiclass tree"
    if tree.height == 0:
        return True, "empty tree"

    xs, kl, kr = tree.x, tree.left_label, tree.right_label
    bad_x = (xs < 0) | (xs >= H.domain_size)
    bad_gap = np.abs(kl - kr) <= tau
    bad_kl = (kl < 1) | (kl > H.K)
    bad = np.flatnonzero(bad_x | bad_gap | bad_kl | (kr < 1) | (kr > H.K))
    if bad.size:
        i = bad[preorder_rank(tree.height)[bad].argmin()]
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
        at = child(at, go_right)[moving]
    vals = H.table[rows, xs[at]]
    # the last level's heap order is its preorder
    leaves = level(tree.height - 1)
    reached = np.zeros((leaves.stop - leaves.start, 2), bool)
    reached[at[vals == kl[at]] - leaves.start, 0] = True
    reached[at[vals == kr[at]] - leaves.start, 1] = True
    missing = ~reached
    if missing.any():
        j = int(missing.ravel().argmax())
        i, side = leaves.start + j // 2, j % 2
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
    if tree.height == 0:
        return True, "empty tree"
    half = gamma / 2.0 - WITNESS_EPS
    n = len(tree.x)

    def walk(i, rows: np.ndarray):
        x, s = int(tree.x[i]), float(tree.witness[i])
        if x < 0 or x >= F.domain_size:
            return f"instance {x} outside the domain"
        col = F.table[rows, x]
        below = rows[col <= s - half]
        above = rows[col >= s + half]
        for sub, right, side in ((below, False, -1), (above, True, +1)):
            if child(i, right) >= n:
                if sub.size == 0:
                    return (f"path ending with ({x}, eps={side:+d}) "
                            "is realized by no function")
            else:
                err = walk(child(i, right), sub)
                if err:
                    return err
        return None

    err = walk(0, np.arange(F.num_rows))
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
    n = (1 << num_points) - 1
    x = np.repeat(np.arange(num_points), 1 << np.arange(num_points))
    return MistakeTree(x, np.ones(n, np.int64), np.full(n, 2, np.int64))


def threshold_class_certificate(num_points: int) -> MistakeTree:
    """Binary-search certificate for the threshold class over n points.

    The class has rows h_j (j = 0..n) with h_j(x_i) = 2 iff i >= j.  A node
    on point m splits the consistent thresholds into j <= m (label 2) and
    j > m (label 1), so balanced splitting shatters depth floor(log2(n+1)).
    """
    if num_points < 1:
        raise ValueError("need at least one point")
    height = int(np.floor(np.log2(num_points + 1)))
    # thresholds j in [lo, hi] are still consistent with the path
    lo, hi, xs = np.array([0]), np.array([num_points]), []
    for _ in range(height):
        m = (lo + hi) // 2                      # branch on point m
        xs.append(m)
        # left edge (label 1): j > m; right edge (label 2): j <= m
        lo = np.stack((m + 1, lo), axis=1).ravel()
        hi = np.stack((hi, m), axis=1).ravel()
    n = (1 << height) - 1
    x = np.concatenate(xs) if xs else []
    return MistakeTree(x, np.ones(n, np.int64), np.full(n, 2, np.int64))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def tree_to_dict(tree: MistakeTree) -> dict:
    """The tree as flat JSON lists in heap order."""
    return {"kind": tree.kind, **{f: getattr(tree, f).tolist() for f in tree.fields}}


def tree_from_dict(doc: dict) -> MistakeTree:
    """The inverse of `tree_to_dict`; ValueError naming the faulty key.

    Entries must be JSON numbers of the field's type: a boolean, which
    Python and numpy read as 0 or 1, is refused like any other value.
    """
    kind = doc.get("kind")
    if kind not in FIELDS:
        raise ValueError(f"unknown tree kind {kind!r}")
    arrays = {}
    for f in FIELDS[kind]:
        types = {int, float} if f == "witness" else {int}
        vals = doc.get(f)
        if not isinstance(vals, list) or not set(map(type, vals)) <= types:
            raise ValueError(f"key {f!r} must list numbers of type "
                             + " or ".join(sorted(t.__name__ for t in types)))
        arrays[f] = vals
    try:
        return MistakeTree(**arrays)
    except OverflowError:
        raise ValueError("an instance or edge label does not fit in "
                         "64 bits") from None
