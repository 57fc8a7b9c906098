import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tolerantlearn import thresholds
from tolerantlearn.classes import HypothesisClass, RealFunctionClass
from tolerantlearn.dimensions import ldim_tau
from tolerantlearn.generators import complete_binary, threshold_class
from tolerantlearn.seeding import trial_rng
from tolerantlearn.thresholds import (ThresholdFamily, VerifyResult,
                                      color_and_choose, color_by_hypothesis,
                                      extract_thresholds_mc,
                                      extract_thresholds_reg, max_mono_subtree,
                                      verify_thresholds)
from tolerantlearn.trees import (MistakeTree, check_mc_tree,
                                 complete_binary_certificate, level,
                                 preorder_rank, threshold_class_certificate,
                                 tree_to_dict)


def random_colored_tree(height, num_colors, seed, num_instances=8):
    rng = trial_rng(seed, "tree", height, num_colors)
    n = 2**height - 1
    tree = MistakeTree(rng.integers(0, num_instances, n), np.ones(n, int),
                       np.full(n, 2))
    return tree, rng.integers(1, num_colors + 1, n)


# --- monochromatic subtrees -----------------------------------------------------

def test_mono_subtree_of_monochromatic_tree():
    tree = complete_binary_certificate(4)
    color, sub = max_mono_subtree(tree, color_by_hypothesis(tree, [3] * 16))
    assert color == 3
    assert sub.height == 4


def test_mono_subtree_tie_breaks_to_smallest_color():
    tree = MistakeTree([0, 1, 2], [1, 1, 1], [2, 2, 2])
    color, sub = max_mono_subtree(tree, [1, 2, 2])
    assert color == 1
    assert sub.height == 1


def test_mono_subtree_height_guarantee_random():
    # a q-colored tree of height q*d - (q-1) holds a monochromatic subtree
    # of height d for some color
    for q, d in ((2, 3), (3, 2), (4, 2)):
        height = q * d - (q - 1)
        for seed in range(12):
            tree, coloring = random_colored_tree(height, q, seed)
            _, sub = max_mono_subtree(tree, coloring)
            assert sub.height >= d


def test_mono_subtree_paths_stay_shattered():
    H = complete_binary(4)
    tree = complete_binary_certificate(4)
    for seed in range(6):
        coloring = trial_rng(seed, "paint").integers(1, 3, len(tree.x))
        _, sub = max_mono_subtree(tree, coloring)
        ok, msg = check_mc_tree(H, sub, 0)
        assert ok, msg


# --- one refinement step ---------------------------------------------------------

def all_rows(H):
    return np.arange(H.num_rows)


def test_color_and_choose_complete_two_points():
    H = complete_binary(2)
    tree = complete_binary_certificate(2)
    res = color_and_choose(H, all_rows(H), tree, 0)
    assert res.rows.size >= 1
    assert res.subtree.height >= 1
    assert 2 * abs(res.k - res.k_prime) > 0


def test_color_and_choose_restricts_without_dedup():
    # the kept rows are positions into H, duplicates of a row included
    H = HypothesisClass(2, complete_binary(6).table[::-1])
    rows = np.repeat(all_rows(H), 2)
    res = color_and_choose(H, rows, complete_binary_certificate(6), 0)
    want = rows[H.table[rows, res.x0] == res.k_prime]
    assert np.array_equal(res.rows, want)
    assert np.array_equal(res.rows[::2], res.rows[1::2])


def test_color_and_choose_rejects_height_zero():
    H = HypothesisClass(2, [[1]])
    with pytest.raises(ValueError):
        color_and_choose(H, all_rows(H), MistakeTree([], [], []), 0)


def test_color_and_choose_height_bound(mc_corpus):
    # one step keeps at least ceil(h/K) - 1 of the height
    for H in mc_corpus[:12]:
        rep = ldim_tau(H, 0)
        if rep.value < 1:
            continue
        res = color_and_choose(H, all_rows(H), rep.certificate, 0)
        assert res.subtree.height >= -(-rep.value // H.K) - 1


def refinement_cases(mc_corpus):
    for H in mc_corpus:
        for tau in (0, 1):
            yield H, tau, ldim_tau(H, 2 * tau).certificate
    base = complete_binary(10).table
    for seed in (0, 1):
        H = HypothesisClass(2, base[np.random.default_rng(seed).permutation(len(base))])
        yield H, 0, complete_binary_certificate(10)


def test_each_step_keeps_a_shattered_pair(mc_corpus):
    # the invariant that lets extract_thresholds_mc check its tree once:
    # each step's rows, taken as a class, shatter its subtree
    steps = 0
    for H, tau, tree in refinement_cases(mc_corpus):
        assert check_mc_tree(H, tree, 2 * tau)[0]
        rows = all_rows(H)
        while tree.height >= 1:
            res = color_and_choose(H, rows, tree, 2 * tau)
            assert np.array_equal(res.rows, rows[H.table[rows, res.x0] == res.k_prime])
            ok, msg = check_mc_tree(HypothesisClass(H.K, H.table[res.rows]),
                                    res.subtree, 2 * tau)
            assert ok, msg
            rows, tree = res.rows, res.subtree
            steps += 1
    assert steps >= 50


# --- iterated extraction ----------------------------------------------------------

def test_extract_complete_binary_8():
    H = complete_binary(8)
    fam, trace = extract_thresholds_mc(H, 0, tree=complete_binary_certificate(8))
    assert len(fam) >= 1
    assert verify_thresholds(fam).ok
    # every step keeps at least half the height, minus one
    heights = [8] + trace.heights
    for before, after in zip(heights, heights[1:]):
        assert after >= -(-before // 2) - 1


def test_extract_iteration_count_and_pigeonhole():
    # K = 2, t = 1, d = 16 = K^(K^2 t): at least K^2*t = 4 steps run, and
    # some (k, k') pair repeats at least t times among the first four
    H = complete_binary(16)
    fam, trace = extract_thresholds_mc(H, 0, tree=complete_binary_certificate(16))
    assert len(trace.pairs) >= 4
    first = trace.pairs[:4]
    assert max(first.count(p) for p in set(first)) >= 1
    assert len(fam) >= 1
    assert verify_thresholds(fam).ok


def test_extract_threshold_class():
    H = threshold_class(8)
    fam, _ = extract_thresholds_mc(H, 0, tree=threshold_class_certificate(8))
    assert len(fam) >= 1
    assert fam.labels in ((1, 2), (2, 1))
    assert verify_thresholds(fam).ok


def test_extract_rejects_unshattered():
    # the one check of the input tree; no step checks again
    H = HypothesisClass(2, [[1, 1]])
    for bogus, fault in ((MistakeTree([0], [1], [2]), "is realized by no hypothesis"),
                         (MistakeTree([0], witness=[0.5]), "not a multiclass tree")):
        with pytest.raises(ValueError, match="input tree is not shattered at "
                                             f"tolerance 0: .*{fault}"):
            extract_thresholds_mc(H, 0, tree=bogus)


def test_extract_singleton_empty_family():
    H = HypothesisClass(2, [[1, 2]])
    fam, trace = extract_thresholds_mc(H, 0)
    assert len(fam) == 0
    assert trace.pairs == []
    assert verify_thresholds(fam).ok      # vacuous


def test_extract_gap_soundness(mc_corpus):
    for H in mc_corpus[:10]:
        for tau in (0, 1):
            fam, _ = extract_thresholds_mc(H, tau)
            if fam.labels is not None:
                assert abs(fam.labels[0] - fam.labels[1]) > tau
            assert verify_thresholds(fam).ok


def test_extract_computes_certificate_when_missing(threshold4):
    fam, _ = extract_thresholds_mc(threshold4, 0)
    assert len(fam) >= 1
    assert verify_thresholds(fam).ok


# --- verifier ----------------------------------------------------------------------

def hand_family():
    # three binary thresholds: h_i(x_j) = 2 iff i <= j
    funcs = [tuple(2 if i <= j else 1 for j in range(3)) for i in range(3)]
    return ThresholdFamily("multiclass", [0, 1, 2], funcs, labels=(2, 1), gap=0)


def test_verifier_accepts_hand_built():
    assert verify_thresholds(hand_family()).ok


def test_verifier_names_first_violation():
    fam = hand_family()
    funcs = [list(f) for f in fam.functions]
    funcs[1][2] = 1          # break h_1(x_2)
    fam.functions = [tuple(f) for f in funcs]
    res = verify_thresholds(fam)
    assert not res.ok
    assert res.violation == (1, 2)


def test_verifier_rejects_bad_gap():
    fam = hand_family()
    fam.gap = 1              # |2-1| = 1 is not > 1
    assert not verify_thresholds(fam).ok


NAN = float("nan")


@pytest.mark.parametrize("change, violation", [
    ({}, (0, 0)),
    ({"functions": [(NAN, 0.5), (-0.5, 0.5)]}, (0, 0)),
    ({"bounds": (0.5, NAN)}, None),
    ({"margin": NAN}, None),
    ({"band": NAN}, (0, 0)),
    ({"labels": (1, NAN), "kind": "multiclass",
      "functions": [(1, 1), (NAN, 1)]}, None),
    ({"labels": (1, 2), "kind": "multiclass", "gap": NAN,
      "functions": [(1, 1), (2, 1)]}, None),
])
def test_verifier_rejects_nan(change, violation):
    # the regression family of NaN values that the verifier used to pass
    fam = ThresholdFamily("regression", [0, 1], [(NAN, 0.5), (-0.5, NAN)],
                          bounds=(0.5, -0.5), margin=0.2, band=0.01)
    for key, value in change.items():
        setattr(fam, key, value)
    res = verify_thresholds(fam)
    assert not res.ok and res.violation == violation


def reference_verify_thresholds(fam):
    """`verify_thresholds` as defined: one double loop per family kind."""
    if len(fam.points) != len(fam.functions):
        return VerifyResult(False, "points and functions differ in length")
    n = len(fam.points)
    if n == 0:
        return VerifyResult(True, "empty family (vacuously valid)")

    if fam.kind == "multiclass":
        k, kp = fam.labels
        if abs(k - kp) <= (fam.gap or 0):
            return VerifyResult(False, f"label gap |{k}-{kp}| <= {fam.gap}")
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
        b = fam.band if fam.band is not None else (fam.margin or 0.0) / 20.0
        for i in range(n):
            for j in range(n):
                center = u if i <= j else up
                dev = abs(fam.functions[i][fam.points[j]] - center)
                if dev > b + 1e-12:
                    return VerifyResult(
                        False, f"|f_{i}(x_{j}) - {center}| = {dev} > {b}", (i, j))
        return VerifyResult(True)

    return VerifyResult(False, f"unknown family kind {fam.kind!r}")


@st.composite
def faulty_families(draw):
    """A two-block family of either kind, then up to three faults: a value
    moved (by 1e-13, past the band's slack or by a whole unit), a center pair
    too close, a point repeated, a function dropped or an unknown kind."""
    kind = draw(st.sampled_from(["multiclass", "regression"]))
    n = draw(st.integers(0, 4))
    width = n + draw(st.integers(0, 2))
    points = draw(st.permutations(range(width)))[:n]
    values = (st.integers(1, 4) if kind == "multiclass"
              else st.sampled_from([-0.9, -0.5, 0.0, 0.3, 0.9]))
    first = draw(values)
    centers = (first, draw(values.filter(lambda v: v != first)))
    if kind == "multiclass":
        fam = ThresholdFamily(kind, points, [], labels=centers,
                              gap=draw(st.sampled_from([None, 0, 1])))
        wobble = st.just(0)
    else:
        fam = ThresholdFamily(kind, points, [], bounds=centers,
                              margin=draw(st.sampled_from([None, 0.0, 0.2, 0.5])),
                              band=draw(st.sampled_from([None, 0.0, 0.01, 0.1])))
        edge = fam.band if fam.band is not None else (fam.margin or 0.0) / 20.0
        wobble = st.sampled_from([0.0, edge, -edge, edge / 2])
    rows = []
    for i in range(n):
        row = [draw(wobble) + centers[0] for _ in range(width)]
        for j, x in enumerate(points):
            row[x] = centers[i > j] + draw(wobble)
        rows.append(row)
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["value"] * 4 + ["centers", "point",
                                                      "length", "kind"]))
        if fault == "value" and rows:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
            rows[i][points[j]] += draw(st.sampled_from(
                [1e-13, -1e-13, 2e-12, 0.005, 1, -1]))
        elif fault == "centers":
            pair = (centers[0], centers[0] + draw(st.sampled_from([0, 1e-13, 1])))
            if kind == "multiclass":
                fam.labels = pair
            else:
                fam.bounds = pair
        elif fault == "point" and n >= 2:
            fam.points = points = points[:-1] + points[:1]
        elif fault == "length" and rows:
            rows = rows[:-1]
        elif fault == "kind":
            fam.kind = "binary"
    fam.functions = [tuple(r) for r in rows]
    return fam


@settings(max_examples=500, deadline=None)
@given(faulty_families())
def test_verifier_matches_reference(fam):
    got = verify_thresholds(fam)
    want = reference_verify_thresholds(fam)
    assert (got.ok, got.message, got.violation) == (want.ok, want.message,
                                                    want.violation)


# --- regression extraction -----------------------------------------------------------

def step_function_class():
    # step functions over 4 points with levels -0.9 / +0.9
    rows = [[0.9 if i >= j else -0.9 for i in range(4)] for j in range(5)]
    return RealFunctionClass(rows)


def test_extract_regression_step_functions():
    F = step_function_class()
    fam, _ = extract_thresholds_reg(F, 1.0)
    assert len(fam) >= 1
    u, up = fam.bounds
    assert abs(u - up) >= 1.0 / 5
    # the family carries the documented band, gamma/100, and meets it
    assert fam.band == 0.01
    res = verify_thresholds(fam)
    assert res.ok, res.message


def test_extract_regression_constant_class_empty():
    F = RealFunctionClass([[0.3, 0.3, 0.3]])
    fam, _ = extract_thresholds_reg(F, 0.5)
    assert len(fam) == 0
    assert verify_thresholds(fam).ok


def test_extract_regression_closure(real_corpus):
    for F in real_corpus[:8]:
        fam, _ = extract_thresholds_reg(F, 0.8)
        assert verify_thresholds(fam).ok


# --- the array checker and search against their definitions ------------------------

@pytest.mark.parametrize("height", range(8))
def test_heap_layout_matches_recursive_walk(height):
    n = 2**height - 1
    tree = MistakeTree(np.arange(n), np.ones(n, int), np.full(n, 2))
    walked = preorder(tree.root)
    rank = preorder_rank(height)
    assert [v.index for v in walked] == np.argsort(rank).tolist()
    for i in range(n):
        d = (i + 1).bit_length() - 1
        j = i + 1 - 2**d
        assert rank[i] == d + j * 2**(height - d) - j.bit_count()
    by_depth = {}

    def depths(node, d):
        if node is not None:
            by_depth.setdefault(d, []).append(node.index)
            depths(node.left, d + 1)
            depths(node.right, d + 1)

    depths(tree.root, 0)
    assert all(list(range(n))[level(d)] == ids for d, ids in by_depth.items())
    for v in walked:
        assert (tree_to_dict(tree.subtree(v.index))
                == tree_to_dict(from_nested(nested(v))))


def reference_check_mc_tree(H, tree, tau):
    """`check_mc_tree` as defined: walk every path with its realizing rows."""
    if tree.kind != "multiclass":
        return False, "not a multiclass tree"
    if tree.root is None:
        return True, "empty tree"

    def walk(node, rows):
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


def reference_color_by_hypothesis(tree, h_row):
    """Colors keyed by node index, found by a recursive walk."""
    colors = {}

    def walk(node):
        if node is not None:
            colors[node.index] = int(h_row[node.x])
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    return colors


def nested(node):
    """The subtree under a node as nested (x, left label, right label,
    left, right) tuples."""
    if node is None:
        return None
    return (node.x, node.left_label, node.right_label,
            nested(node.left), nested(node.right))


def from_nested(root):
    """A tree from nested tuples, gathered breadth first."""
    nodes, layer = [], [] if root is None else [root]
    while layer:
        nodes += layer
        layer = [child for v in layer for child in v[3:] if child is not None]
    return MistakeTree([v[0] for v in nodes], [v[1] for v in nodes],
                       [v[2] for v in nodes])


def reference_max_mono_subtree(tree, coloring):
    """`max_mono_subtree` as defined: a (node, color) memo filled by recursion."""
    colors = sorted({coloring[v.index] for v in preorder(tree.root)})
    m, best = {}, {}

    def compute(node):
        if node is None:
            return
        compute(node.left)
        compute(node.right)
        for c in colors:
            if coloring[node.index] != c:
                mv = 0
            else:
                bl = best[(node.left.index, c)] if node.left else 0
                br = best[(node.right.index, c)] if node.right else 0
                mv = 1 + min(bl, br)
            m[(node.index, c)] = mv
            sub = mv
            for child in (node.left, node.right):
                if child:
                    sub = max(sub, best[(child.index, c)])
            best[(node.index, c)] = sub

    compute(tree.root)
    top, top_color = -1, None
    for c in colors:
        if best[(0, c)] > top:
            top, top_color = best[(0, c)], c

    def first_with(node, c, h):
        """First node in preorder whose best c-subtree reaches height h."""
        if node is None:
            return None
        if m[(node.index, c)] >= h:
            return node
        return first_with(node.left, c, h) or first_with(node.right, c, h)

    def rebuild(node, c, h):
        if h == 0:
            return None
        left_child = first_with(node.left, c, h - 1)
        right_child = first_with(node.right, c, h - 1)
        return (node.x, node.left_label, node.right_label,
                rebuild(left_child, c, h - 1) if left_child else None,
                rebuild(right_child, c, h - 1) if right_child else None)

    root = first_with(tree.root, top_color, top)
    return top_color, from_nested(rebuild(root, top_color, top))


def preorder(node):
    if node is None:
        return []
    return [node] + preorder(node.left) + preorder(node.right)


FAULTS = ("domain", "gap", "label", "unrealized")


def shattered_case(rng, height, K, tau, domain):
    """A random tolerance-tau tree and a class with one row per final edge.

    Instances are distinct along each path, so every final edge is realized
    by the row built for it (the other entries are random).
    """
    rows = []

    def build(depth, path):
        if depth == height:
            return None
        used = {x for x, _ in path}
        x = int(rng.choice([v for v in range(domain) if v not in used]))
        k = int(rng.integers(1, K - tau))
        kp = int(rng.integers(k + tau + 1, K + 1))
        labels = (k, kp) if rng.random() < 0.5 else (kp, k)
        children = []
        for label in labels:
            step = path + [(x, label)]
            if depth + 1 == height:
                row = rng.integers(1, K + 1, domain)
                for px, py in step:
                    row[px] = py
                rows.append(row)
            children.append(build(depth + 1, step))
        return (x, labels[0], labels[1], *children)

    return from_nested(build(0, [])), np.array(rows)


def inject(rng, fault, tree, rows, K, tau, domain):
    """Break the tree (or drop rows) by one fault of the named kind."""
    nodes = preorder(tree.root)
    i = nodes[int(rng.integers(len(nodes)))].index
    if fault == "domain":
        tree.x[i] = domain if rng.random() < 0.5 else -1
    elif fault == "gap":
        tree.right_label[i] = tree.left_label[i] + int(rng.integers(-tau, tau + 1))
    elif fault == "label":
        bad = 0 if rng.random() < 0.5 else K + 1
        if rng.random() < 0.5:
            tree.left_label[i] = bad
        else:
            tree.right_label[i] = bad
    else:  # drop the rows that realize one final edge
        leaf = [u for u in nodes if u.left is None and u.right is None]
        u = leaf[int(rng.integers(len(leaf)))]
        label = (u.left_label, u.right_label)[int(rng.integers(2))]
        path, node = [], tree.root
        while node.index != u.index:
            side = u.index in {w.index for w in preorder(node.left)}
            path.append((node.x, node.left_label if side else node.right_label))
            node = node.left if side else node.right
        path.append((u.x, label))
        realizes = np.ones(len(rows), bool)
        for x, y in path:
            if 0 <= x < rows.shape[1]:
                realizes &= rows[:, x] == y
        if not realizes.all():      # a class keeps at least one row
            rows = rows[~realizes]
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(2, 5), st.data(),
       st.lists(st.sampled_from(FAULTS), max_size=3), st.integers(0, 2**32 - 1))
def test_check_mc_tree_matches_reference(height, K, data, faults, seed):
    tau = data.draw(st.integers(0, K - 2))
    domain = height + data.draw(st.integers(0, 3))
    rng = np.random.default_rng(seed)
    tree, rows = shattered_case(rng, height, K, tau, domain)
    for fault in faults:
        rows = inject(rng, fault, tree, rows, K, tau, domain)
    H = HypothesisClass(K, rows)
    got = check_mc_tree(H, tree, tau)
    want = reference_check_mc_tree(H, tree, tau)
    assert got[0] == want[0], (got, want)
    if len(faults) <= 1:
        assert got == want
    if not faults:
        assert got[0], got
    if not got[0]:
        return
    colorings = []
    for r in range(min(H.num_rows, 3)):
        colorings.append(color_by_hypothesis(tree, H.row(r)))
        ref = reference_color_by_hypothesis(tree, H.row(r))
        assert dict(enumerate(colorings[-1].tolist())) == ref
    for q in (2, 3):
        colorings.append(rng.integers(1, q + 1, len(tree.x)))
    for coloring in colorings:
        color, sub = max_mono_subtree(tree, coloring)
        ref_color, ref_sub = reference_max_mono_subtree(tree, coloring)
        assert color == ref_color
        assert tree_to_dict(sub) == tree_to_dict(ref_sub)


@pytest.mark.parametrize("height", [6, 7, 8, 9])
def test_mono_subtree_matches_reference_on_taller_trees(height):
    # colorings where one color is rare: a rare winner's tall subtrees sit
    # deep, and rare nodes break a common color's, so the descent to a
    # chosen node walks several levels (node i has instance i, so a chosen
    # node's depth shows in the subtree)
    n = 2**height - 1
    tree = MistakeTree(np.arange(n), np.ones(n, int), np.full(n, 2))
    depth = [(v + 1).bit_length() - 1 for v in range(n)]
    walked = 0
    for seed in range(6):
        rng = trial_rng(seed, "rare", height)
        for rare, colors in ((0.05, (1, 2)), (0.2, (1, 2)), (0.1, (3, 1, 2)),
                             (0.7, (2, 1))):
            common = rng.integers(1, len(colors), n)
            coloring = np.where(rng.random(n) < rare, colors[0],
                                np.asarray(colors)[common])
            color, sub = max_mono_subtree(tree, coloring)
            ref_color, ref_sub = reference_max_mono_subtree(tree, coloring)
            assert color == ref_color
            assert tree_to_dict(sub) == tree_to_dict(ref_sub)
            # levels from each chosen node's chosen parent (the root's at -1)
            ids = sub.x.tolist()
            walked = max(walked, depth[ids[0]] + 1,
                         *(depth[ids[i]] - depth[ids[(i - 1) // 2]]
                           for i in range(1, len(ids))))
    assert walked >= 3


def test_single_faults_are_named_like_the_reference():
    # every fault kind, alone, on trees of every height: the same message
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(200):
        height, K = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        tau = int(rng.integers(0, K - 1))
        fault = FAULTS[int(rng.integers(len(FAULTS)))]
        tree, rows = shattered_case(rng, height, K, tau, height + 1)
        rows = inject(rng, fault, tree, rows, K, tau, height + 1)
        H = HypothesisClass(K, rows)
        got = check_mc_tree(H, tree, tau)
        assert got == reference_check_mc_tree(H, tree, tau), fault
        if not got[0]:
            seen.add(fault)
    assert seen == set(FAULTS)


def test_check_mc_tree_names_faults_in_documented_order():
    tree = complete_binary_certificate(2)
    # two unrealized final edges: the first in preorder is named
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    assert check_mc_tree(H, tree, 0) == (
        False, "path ending with (1 -> 1) is realized by no hypothesis")
    # structural faults come before unrealized paths, and in preorder
    tree.right_label[2] = 3
    assert check_mc_tree(H, tree, 0) == (False, "label 3 outside 1..2")
    tree.x[1] = 5
    assert check_mc_tree(H, tree, 0) == (False, "instance 5 outside the domain")


def test_check_mc_tree_drops_a_row_off_both_edges():
    # row [3, 2] follows neither root edge; carried on below the root it
    # would realize the left child's right edge, which no other row does
    tree = MistakeTree([0, 1, 1], [1, 1, 1], [2, 2, 2])
    H = HypothesisClass(3, [[1, 1], [2, 1], [2, 2], [3, 2]])
    assert check_mc_tree(H, tree, 0) == (
        False, "path ending with (1 -> 2) is realized by no hypothesis")
    assert check_mc_tree(HypothesisClass(3, [*H.table, [1, 2]]), tree, 0) == (
        True, "ok")


def test_check_mc_tree_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        check_mc_tree(complete_binary(2), complete_binary_certificate(2), -1)


@pytest.mark.parametrize("seed", [0, 1])
def test_extraction_matches_reference_path(seed, monkeypatch):
    base = complete_binary(10).table
    H = HypothesisClass(2, base[np.random.default_rng(seed).permutation(len(base))])
    tree = complete_binary_certificate(10)
    fam, trace = extract_thresholds_mc(H, 0, tree=tree)
    monkeypatch.setattr(thresholds, "check_mc_tree", reference_check_mc_tree)
    monkeypatch.setattr(thresholds, "color_by_hypothesis", reference_color_by_hypothesis)
    monkeypatch.setattr(thresholds, "max_mono_subtree", reference_max_mono_subtree)
    ref_fam, ref_trace = extract_thresholds_mc(H, 0, tree=tree)
    assert fam == ref_fam
    assert trace == ref_trace
    assert verify_thresholds(fam).ok
