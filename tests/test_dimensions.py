import inspect
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tolerantlearn.classes import HypothesisClass, RealFunctionClass, discretize
from tolerantlearn.dimensions import (EMPTY_LDIM, check_sign_tree, fat_gamma,
                                      ldim_brute_force, ldim_tau, ldim_value,
                                      log_star, pdim, twr, verify_report)
from tolerantlearn.generators import complete_binary, random_real, threshold_class
from tolerantlearn.trees import (MistakeTree, WITNESS_EPS, check_mc_tree,
                                 check_real_tree, child, level)


# --- tolerant Littlestone dimension -------------------------------------------

def test_singleton_any_tau_is_zero():
    H = HypothesisClass(4, [[2, 3]])
    for tau in range(3):
        assert ldim_tau(H, tau).value == 0


def test_four_constants_tolerance_gap():
    # only the pair (1, 4) has gap 3, which is not > 3
    H = HypothesisClass(4, [[1], [2], [3], [4]])
    assert ldim_tau(H, 2).value == 1
    assert ldim_tau(H, 3).value == 0
    assert ldim_brute_force(H, 2, 3) == 1
    assert ldim_brute_force(H, 3, 3) == 0


def test_complete_binary_three_points():
    H = complete_binary(3)
    rep = ldim_tau(H, 0)
    assert rep.value == 3
    assert ldim_brute_force(H, 0, 3) == 3
    ok, msg = check_mc_tree(H, rep.certificate, 0)
    assert ok, msg


def test_threshold_class_four_points():
    H = threshold_class(4)
    assert ldim_tau(H, 0).value == 2
    assert ldim_brute_force(H, 0, 3) == 2


def test_brute_force_cap_saturates():
    H = complete_binary(3)
    assert ldim_brute_force(H, 0, 0) == 0
    assert ldim_brute_force(H, 0, 2) == 2


def test_empty_subset_sentinel():
    H = HypothesisClass(2, [[1]])
    assert ldim_value(H, 0, 0) == EMPTY_LDIM


def test_oracle_equivalence(mc_corpus):
    for H in mc_corpus:
        for tau in (0, 1, 2):
            assert ldim_tau(H, tau).value == ldim_brute_force(H, tau, 3), \
                f"mismatch on {H} at tau={tau}"


def test_monotone_in_tau(mc_corpus):
    for H in mc_corpus:
        vals = [ldim_tau(H, tau).value for tau in (0, 1, 2, 3)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_certificates_sound(mc_corpus):
    for H in mc_corpus[:24]:
        for tau in (0, 1):
            rep = ldim_tau(H, tau)
            ok, msg = check_mc_tree(H, rep.certificate, tau)
            assert ok, msg
            assert rep.certificate.height == rep.value


def test_certificates_deterministic():
    from tolerantlearn.trees import tree_to_dict
    H = threshold_class(4)
    a = tree_to_dict(ldim_tau(H, 0).certificate)
    b = tree_to_dict(ldim_tau(H, 0).certificate)
    assert a == b


def test_large_classes_certified():
    # no row cap: the floor(log2 |rows|) bound and the live-split scan keep
    # a thousand rows fast
    for H, expected in ((complete_binary(8), 8), (threshold_class(255), 8),
                        (threshold_class(1023), 10)):
        rep = ldim_tau(H, 0)
        assert rep.value == expected
        ok, msg = check_mc_tree(H, rep.certificate, 0)
        assert ok, msg
    F = random_real(128, 8, 0.25, 3)
    fat = fat_gamma(F, 0.25)
    ok, msg = check_real_tree(F, fat.certificate, 0.25)
    assert ok, msg
    p = pdim(F)
    ok, msg = verify_report(p, F)
    assert ok, msg
    assert 1 <= fat.value <= p.value <= math.log2(F.num_rows)


def test_unbalanced_class_needs_no_recursion_depth(unbalanced_pairs):
    # the search descends about |H|/2 = 200 masks deep, past this lowered
    # limit; its stack is a list, not Python frames
    H = unbalanced_pairs
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert ldim_value(H, 0) == 2
        rep = ldim_tau(H, 0)
    finally:
        sys.setrecursionlimit(limit)
    assert rep.value == 2
    assert check_mc_tree(H, rep.certificate, 0) == (True, "ok")


# --- fat-shattering ------------------------------------------------------------

def test_fat_constant_class_zero():
    F = RealFunctionClass([[0.2, 0.2]])
    assert fat_gamma(F, 0.5).value == 0


def test_fat_two_constants():
    F = RealFunctionClass([[-1.0], [1.0]])
    assert fat_gamma(F, 2.0).value == 1
    assert fat_gamma(F, 2.5).value == 0


def test_fat_certificates_sound(real_corpus):
    for F in real_corpus[:16]:
        for gamma in (0.3, 0.6):
            rep = fat_gamma(F, gamma)
            ok, msg = check_real_tree(F, rep.certificate, gamma)
            assert ok, msg


def test_fat_rejects_bad_gamma():
    with pytest.raises(ValueError):
        fat_gamma(RealFunctionClass([[0.0]]), 0.0)


def test_nan_gamma_is_not_carried_along():
    F = RealFunctionClass([[-1.0], [1.0]])
    tree = fat_gamma(F, 1.0).certificate
    with pytest.raises(ValueError, match="gamma must be positive, got nan"):
        fat_gamma(F, math.nan)
    assert check_real_tree(F, tree, math.nan) == (
        False, "gamma must be positive, got nan")


@pytest.mark.parametrize("gamma", [1e-10, 2 * WITNESS_EPS])
def test_gamma_within_the_witness_slack_is_refused(gamma):
    # below and above overlap there: the split's two sides are the whole
    # mask, and one function "shatters" a tree of any height
    with pytest.raises(ValueError, match="two-sided witness slack"):
        fat_gamma(random_real(5, 3, 0.25, 1), gamma)
    F = RealFunctionClass([[0.0]])
    tree = MistakeTree([0, 0, 0], witness=[0.0, 0.0, 0.0])
    assert check_real_tree(F, tree, gamma) == (
        False, "gamma must exceed the two-sided witness slack "
               f"2 * {WITNESS_EPS} = {2 * WITNESS_EPS}, got {gamma}")
    assert check_real_tree(F, tree, 3 * WITNESS_EPS) == (
        False, "path ending with (0, eps=-1) is realized by no function")


def test_fat_witness_grid_is_lossless(real_corpus):
    # perturbing the witness grid off its breakpoints never finds more depth
    for F in real_corpus[:8]:
        gamma = 0.5
        base = fat_gamma(F, gamma).value
        half = gamma / 2
        best = 0
        cands = {x: sorted({float(v) + d for v in F.table[:, x]
                            for d in (-half, half)})
                 for x in range(F.domain_size)}

        def depth(rows, shift):
            out = 0
            for x in range(F.domain_size):
                for s0 in cands[x]:
                    s = s0 + shift
                    below = [r for r in rows if F.table[r, x] <= s - half + 1e-9]
                    above = [r for r in rows if F.table[r, x] >= s + half - 1e-9]
                    if below and above:
                        out = max(out, 1 + min(depth(tuple(below), shift),
                                               depth(tuple(above), shift)))
            return out

        for shift in (-0.07, 0.055):
            best = max(best, depth(tuple(range(F.num_rows)), shift))
        assert best <= base


# --- Pollard pseudo-dimension ----------------------------------------------------

def test_pdim_examples():
    assert pdim(RealFunctionClass([[0.1, 0.1]])).value == 0
    point3 = RealFunctionClass([[1.0 if j == i else 0.0 for j in range(3)]
                                for i in range(3)])
    rep = pdim(point3)
    assert rep.value == 1
    ok, msg = verify_report(rep, point3)
    assert ok, msg
    assert pdim(RealFunctionClass([[-1.0], [1.0]])).value == 1


@pytest.mark.parametrize("x", [-1, 2])
def test_sign_tree_instance_outside_domain_is_a_fault(x):
    # numpy would read column -1 as the last one, and column 2 raises
    # IndexError; the checker has to refuse both like check_real_tree does
    F = RealFunctionClass([[0.0, 0.5], [1.0, -0.5]])
    assert check_sign_tree(F, MistakeTree([x], witness=[0.0])) == (
        False, f"instance {x} outside the domain")
    assert check_sign_tree(F, MistakeTree([1], witness=[0.0])) == (True, "ok")


def reference_check_real_tree(F, tree, gamma):
    """`check_real_tree` as defined: walk every path with its realizing rows."""
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


def reference_check_sign_tree(F, tree):
    """`check_sign_tree` as defined: f < s left, f >= s right."""
    if tree.kind != "real":
        return False, "not a real-valued tree"
    if tree.height == 0:
        return True, "empty tree"
    n = len(tree.x)

    def walk(i, rows: np.ndarray):
        x, s = int(tree.x[i]), float(tree.witness[i])
        if x < 0 or x >= F.domain_size:
            return f"instance {x} outside the domain"
        col = F.table[rows, x]
        below = rows[col < s]
        above = rows[col >= s]
        for sub, right, side in ((below, False, -1), (above, True, +1)):
            if child(i, right) >= n:
                if sub.size == 0:
                    return f"path ending with ({x}, {side:+d}) unrealized"
            else:
                err = walk(child(i, right), sub)
                if err:
                    return err
        return None

    err = walk(0, np.arange(F.num_rows))
    return (err is None), (err or "ok")


GRID = np.linspace(-1.0, 1.0, 17)     # multiples of 1/8: boundaries are exact


def shattered_real_case(rng, height, domain, half):
    """A random real-valued tree and one function per final edge.

    Left edges take values <= s - half (< s when half is 0, as in a sign
    tree), right edges values >= s + half.  Instances are distinct along
    each path, so every final edge is realized by the function built for
    it; the function's other entries are random grid values.
    """
    n = 2**height - 1
    xs, ws = np.zeros(n, np.int64), np.zeros(n)
    for i in range(n):
        used, j = set(), i
        while j:
            j = (j - 1) // 2
            used.add(int(xs[j]))
        xs[i] = rng.choice([v for v in range(domain) if v not in used])
        ws[i] = rng.choice(GRID[(GRID - half > -1) & (GRID + half <= 1)])
    rows = []
    for leaf in range(*level(height - 1).indices(n)):
        for right in (False, True):
            row = rng.choice(GRID, domain)
            i, go_right = leaf, right
            while True:
                s = ws[i]
                side = (GRID >= s + half if go_right
                        else (GRID <= s - half) & (GRID < s))
                row[xs[i]] = rng.choice(GRID[side])
                if i == 0:
                    break
                i, go_right = (i - 1) // 2, i % 2 == 0
            rows.append(row)
    return MistakeTree(xs, witness=ws), rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.sampled_from([None, 0.25, 0.5, 1.0]),
       st.lists(st.sampled_from(["domain", "dropped"]), max_size=2),
       st.integers(0, 2**32 - 1))
def test_real_checkers_match_reference(height, spare, gamma, faults, seed):
    # gamma None builds a sign (pdim) tree, a number a gamma-fat tree
    rng = np.random.default_rng(seed)
    domain = height + spare
    tree, rows = shattered_real_case(rng, height, domain,
                                     0.0 if gamma is None else gamma / 2)
    for fault in faults:
        if fault == "domain":
            tree.x[rng.integers(len(tree.x))] = domain if rng.random() < 0.5 else -1
        elif len(rows) > 1:     # a class keeps at least one function
            rows.pop(int(rng.integers(len(rows))))
    F = RealFunctionClass(rows)
    if gamma is None:
        got, want = check_sign_tree(F, tree), reference_check_sign_tree(F, tree)
    else:
        got = check_real_tree(F, tree, gamma)
        want = reference_check_real_tree(F, tree, gamma)
    assert got[0] == want[0], (got, want)
    if len(faults) <= 1:
        assert got == want
    if not faults:
        assert got[0], got


def test_real_checkers_name_structural_faults_first():
    # the walkers named whichever fault came first in preorder; the sweep
    # names a domain fault before any unrealized final edge
    F = RealFunctionClass([[1.0, 0.0]])
    tree = MistakeTree([0, 1, 5], witness=[0.0, 0.0, 0.0])
    assert check_sign_tree(F, tree) == (False, "instance 5 outside the domain")
    assert reference_check_sign_tree(F, tree) == (
        False, "path ending with (1, -1) unrealized")
    assert check_real_tree(F, tree, 0.5) == (False, "instance 5 outside the domain")
    tree.x[2] = 1
    assert check_sign_tree(F, tree) == (False, "path ending with (1, -1) unrealized")
    assert check_real_tree(F, tree, 0.5) == (
        False, "path ending with (1, eps=-1) is realized by no function")


def test_fat_below_pdim(real_corpus):
    for F in real_corpus[:16]:
        p = pdim(F).value
        for gamma in (0.2, 0.5, 1.0):
            assert fat_gamma(F, gamma).value <= p


# --- discretization bridges -----------------------------------------------------

def test_sandwich_upper_bound(real_corpus):
    # fat_gamma(F) >= Ldim_n([F]_{gamma/n}): a tolerance-n tree turns into a
    # gamma-shattered tree by placing witnesses between the label intervals
    for F in real_corpus[:12]:
        for gamma in (0.2, 0.4):
            d = fat_gamma(F, gamma).value
            for n in (1, 2):
                coarse, _ = discretize(F, gamma / n)
                assert d >= ldim_value(coarse, n)


def test_sandwich_full_on_two_valued_classes():
    # with two function values every fat-tree side carries one label, so the
    # tree converts exactly and the lower bound holds as well
    from tolerantlearn.seeding import trial_rng

    checked = 0
    for s in range(40):
        tbl = np.where(trial_rng(s, "tv").random((4, 3)) < 0.5, -0.75, 0.75)
        if len({r.tobytes() for r in tbl}) < 2:
            continue
        F = RealFunctionClass(tbl)
        for gamma in (0.2, 0.4):
            d = fat_gamma(F, gamma).value
            for n in (1, 2):
                fine, _ = discretize(F, gamma / (2 * (n + 1)))
                coarse, _ = discretize(F, gamma / n)
                assert ldim_value(fine, n) >= d >= ldim_value(coarse, n)
                checked += 1
    assert checked >= 100


def test_sandwich_lower_bound_counterexample():
    """A band constraint is weaker than a label equality: this class has a
    valid depth-2 fat tree at gamma = 0.2 whose sides mix interval labels,
    and no depth-2 tolerance-1 tree exists for the fine discretization."""
    F = RealFunctionClass([[1.0, 0.25], [0.5, -0.25], [-0.75, -0.25], [1.0, 0.0]])
    d = fat_gamma(F, 0.2).value
    assert d == 2
    fine, _ = discretize(F, 0.2 / 4)
    assert ldim_value(fine, 1) == 1 == ldim_brute_force(fine, 1, 3)


def test_condition4_inequality_small(real_corpus):
    for F in real_corpus[:12]:
        p = pdim(F).value
        for gamma in (0.25, 0.5):
            H, _ = discretize(F, gamma)
            assert ldim_value(H, 0) <= p


# --- tower utilities -------------------------------------------------------------

def test_log_star_values():
    assert log_star(1) == 0
    assert log_star(2) == 1
    assert log_star(16) == 3
    assert log_star(65536) == 4
    assert log_star(0.5) == 0


def test_twr_values_and_saturation():
    assert twr(0, 7) == (7.0, False)
    assert twr(3, 1) == (16.0, False)
    assert twr(3, 2) == (65536.0, False)
    value, saturated = twr(2, 16)
    assert saturated and value == math.inf
    # log_star inverts exact towers: twr(t, 1) needs exactly t unrollings
    for t in range(1, 5):
        v, sat = twr(t, 1)
        assert not sat
        assert log_star(v) == t
