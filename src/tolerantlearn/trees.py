"""Mistake trees: shattering certificates for the dimension computations.

Every tree is complete to its height, so a tree of height h is a set of
per-node arrays of length 2^h - 1 in heap (breadth-first) order: node i has
children 2i + 1 (left edge) and 2i + 2 (right edge), depth d holds the ids
`level(d)`, and a list length other than 2^h - 1 cannot be a tree.  A
multi-class node carries a domain index `x` and two edge labels
`left_label`/`right_label`; a real-valued node carries `x` and a shattering
`witness`, its left edge being direction -1 and its right edge +1.

The three definitional checkers, `check_mc_tree` (tolerance-tau trees),
`check_real_tree` (gamma-fat trees) and `check_sign_tree` (Pollard sign
trees), differ only in their edge rule, their per-node faults and their
messages.  All of them route every row of the class down the tree one level
at a time (each edge rule sends a row along at most one path) and report
the first fault in one order: the first node in preorder with a structural
fault (instance outside the domain; for multi-class trees also an edge gap
of at most tau, then an edge label outside 1..K), else the first final edge
in preorder, left edge before right, that no row realizes.
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

def gamma_fault(gamma: float) -> Optional[str]:
    """Why gamma cannot be a fat-shattering scale, None if it can: both edge
    tests of a fat tree allow WITNESS_EPS of slack, so at gamma <=
    2 * WITNESS_EPS one value passes both and "shatters" any tree."""
    if not gamma > 0:   # NaN fails too
        return f"gamma must be positive, got {gamma}"
    if gamma <= 2 * WITNESS_EPS:
        return (f"gamma must exceed the two-sided witness slack "
                f"2 * {WITNESS_EPS} = {2 * WITNESS_EPS}, got {gamma}")
    return None


def _check(cls, tree: MistakeTree, edges, unrealized, *faults):
    """The checkers' shared sweep, reporting in the module's fault order.

    `faults` pair a per-node bool array with the message of node i; they
    are tested after the domain.  `edges(v, at)` says which rows, valued v
    at their nodes `at`, follow the left and which the right edge; a row
    following neither drops out.  `unrealized(i, right)` names node i's
    final edge.
    """
    if tree.height == 0:
        return True, "empty tree"
    xs = tree.x
    faults = (((xs < 0) | (xs >= cls.domain_size),
               lambda i: f"instance {xs[i]} outside the domain"), *faults)
    bad = np.flatnonzero(np.logical_or.reduce([b for b, _ in faults]))
    if bad.size:
        i = bad[preorder_rank(tree.height)[bad].argmin()]
        return False, next(message(i) for b, message in faults if b[i])

    # each surviving row as the flat offset of its first value, and its node
    table, width = cls.table.ravel(), cls.domain_size
    rows = np.arange(0, cls.num_rows * width, width)
    at = np.zeros(cls.num_rows, np.int64)
    for _ in range(tree.height - 1):
        go_left, go_right = edges(table[rows + xs[at]], at)
        at = child(at, go_right)
        moving = go_left | go_right
        if not moving.all():
            rows, at = rows[moving], at[moving]
    go_left, go_right = edges(table[rows + xs[at]], at)
    # the last level's heap order is its preorder
    leaves = level(tree.height - 1)
    reached = np.zeros((leaves.stop - leaves.start, 2), bool)
    reached[at[go_left] - leaves.start, 0] = True
    reached[at[go_right] - leaves.start, 1] = True
    missing = ~reached
    if missing.any():
        j = int(missing.ravel().argmax())
        return False, unrealized(leaves.start + j // 2, j % 2)
    return True, "ok"


def check_mc_tree(H: HypothesisClass, tree: MistakeTree, tau: int):
    """Check a tolerance-tau tree from the shattering definition: instances
    in the domain, edge gaps |k - k'| > tau, labels in 1..K, and every path
    with its final edge realized, a row valued k following the left edge
    and one valued k' the right.  Returns (ok, message)."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tree.kind != "multiclass":
        return False, "not a multiclass tree"
    xs, kl, kr = tree.x, tree.left_label, tree.right_label
    bad_kl = (kl < 1) | (kl > H.K)
    return _check(
        H, tree, lambda v, at: (v == kl[at], v == kr[at]),
        lambda i, right: (f"path ending with ({xs[i]} -> {(kl, kr)[right][i]}) "
                          "is realized by no hypothesis"),
        (np.abs(kl - kr) <= tau,
         lambda i: f"edge gap |{kl[i]} - {kr[i]}| <= {tau} at instance {xs[i]}"),
        (bad_kl | (kr < 1) | (kr > H.K),
         lambda i: f"label {kl[i] if bad_kl[i] else kr[i]} outside 1..{H.K}"))


def check_real_tree(F: RealFunctionClass, tree: MistakeTree, gamma: float):
    """Check a gamma-fat tree: every path admits f with eps*(f(x) - s) >=
    gamma/2 up to WITNESS_EPS, the left edge being eps = -1."""
    if tree.kind != "real":
        return False, "not a real-valued tree"
    if fault := gamma_fault(gamma):
        return False, fault
    half, s = gamma / 2.0 - WITNESS_EPS, tree.witness
    return _check(F, tree, lambda v, at: (v <= s[at] - half, v >= s[at] + half),
                  lambda i, right: (f"path ending with ({tree.x[i]}, "
                                    f"eps={2 * right - 1:+d}) "
                                    "is realized by no function"))


def check_sign_tree(F: RealFunctionClass, tree: MistakeTree):
    """Check a pdim certificate: every path admits f with f(x) < s on each
    left edge and f(x) >= s on each right edge."""
    if tree.kind != "real":
        return False, "not a real-valued tree"
    s = tree.witness
    return _check(F, tree, lambda v, at: (v < s[at], v >= s[at]),
                  lambda i, right: (f"path ending with ({tree.x[i]}, "
                                    f"{2 * right - 1:+d}) unrealized"))


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
    if type(kind) is not str or kind not in FIELDS:   # a list is unhashable
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
