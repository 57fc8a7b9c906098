import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from .conftest import StubRng, inverse_cdf_draws
from tolerantlearn.classes import (GUIDE_BUCKETS, GUIDE_DRAWS, AbsoluteLoss,
                                   FiniteDistribution, HypothesisClass,
                                   RealFunctionClass, TolerantZeroOne,
                                   absolute_loss, discretize, evaluate_loss,
                                   label_to_midpoint, num_intervals,
                                   tolerant_loss, value_to_label, _dedup_rows)


# --- losses ------------------------------------------------------------------

def test_tolerant_loss_values():
    assert tolerant_loss(3, 5, 1) == 1      # |5-3| = 2 > 1
    assert tolerant_loss(3, 4, 1) == 0      # |4-3| = 1 <= 1
    for tau in range(4):
        assert tolerant_loss(2, 2, tau) == 0
    # tau = 0 recovers the plain zero-one loss
    assert tolerant_loss(1, 2, 0) == 1
    assert tolerant_loss(1, 1, 0) == 0


@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 10))
def test_tolerant_loss_symmetric(a, b, tau):
    assert tolerant_loss(a, b, tau) == tolerant_loss(b, a, tau)


@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 8))
def test_tolerant_loss_monotone_in_tau(a, b, tau):
    assert tolerant_loss(a, b, tau + 1) <= tolerant_loss(a, b, tau)


def test_tolerant_loss_rejects_bad_args():
    with pytest.raises(ValueError):
        tolerant_loss(1, 2, -1)
    with pytest.raises(ValueError):
        tolerant_loss(0, 2, 0)


def test_absolute_loss_values():
    assert absolute_loss(0.5, 0.5) == 0.0
    assert absolute_loss(-1.0, 1.0) == 2.0
    assert absolute_loss(0.25, -0.5) == 0.75


def test_absolute_loss_rejects_out_of_range():
    with pytest.raises(ValueError):
        absolute_loss(1.5, 0.0)
    with pytest.raises(ValueError):
        absolute_loss(0.0, -2.0)


# --- classes -----------------------------------------------------------------

def test_duplicate_rows_collapse_with_mapping():
    H = HypothesisClass(3, [[1, 2], [3, 1], [1, 2]])
    assert H.num_rows == 2
    assert list(H.row_map) == [0, 1, 0]


def reference_dedup_rows(table):
    """`_dedup_rows` as defined: one dict entry per distinct row's bytes."""
    seen = {}
    row_map = np.fromiter((seen.setdefault(row.tobytes(), len(seen))
                           for row in table), np.int64, len(table))
    return table[np.unique(row_map, return_index=True)[1]], row_map


@st.composite
def tables_with_duplicates(draw):
    """An int64 table of labels in 1..K (K up to 300, so the sort keys
    cross uint8 and uint16) or a float64 table of values such as -0.0 and
    0.0: a shuffled small pool of rows and up to 30 repeats of them, past
    insertion sort's reach.  The pool may hold near twins: a row with one
    label moved by 256, or one zero's sign flipped."""
    width = draw(st.integers(1, 5))
    if draw(st.booleans()):
        K = draw(st.sampled_from([2, 255, 256, 257, 300]) | st.integers(1, 300))
        value, dtype = st.integers(1, K), np.int64

        def twin(v):
            return v + 256 if v + 256 <= K else v - 256 if v > 256 else v
    else:
        value = st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 1e-300])
        dtype = np.float64

        def twin(v):
            return -v if v == 0 else v
    pool = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    for row in list(pool):
        if draw(st.booleans()):
            j = draw(st.integers(0, width - 1))
            pool.append(row[:j] + [twin(row[j])] + row[j + 1:])
    rows = pool + draw(st.lists(st.sampled_from(pool), max_size=30))
    return np.array(draw(st.permutations(rows)), dtype=dtype)


@settings(max_examples=300)
@given(tables_with_duplicates())
def test_dedup_rows_matches_reference(table):
    got, got_map = _dedup_rows(table)
    want, want_map = reference_dedup_rows(table)
    assert got.dtype == want.dtype and got_map.dtype == want_map.dtype
    assert got.tobytes() == want.tobytes() and got.shape == want.shape
    assert np.array_equal(got_map, want_map)


def labels_per_word(K):
    """How many labels of 1..K an int64 word holds as base-(K + 1) digits."""
    per = 1
    while (K + 1) ** (per + 1) <= 2 ** 63:
        per += 1
    return per


def packing_edge_table(K, width):
    """Rows of the labels 1, 2, K - 1 and K, with an all-K row (every word
    at its largest key), near twins that swap one label 1 <-> K - 1 or
    2 <-> K (an even difference, which a word that wrapped past 2**64
    could lose), and repeats of the rows."""
    rng = np.random.default_rng([K % 2**32, width])
    pool = rng.choice(np.array([1, 2, K - 1, K], np.int64), (4, width))
    pool[0] = K
    swap = {1: K - 1, K - 1: 1, 2: K, K: 2}
    twins = []
    for row in pool:
        for j in range(width):
            twin = row.copy()
            twin[j] = swap[int(twin[j])]
            twins.append(twin)
    rows = np.concatenate([pool, twins, pool[::2], twins[1::3]])
    return rows[rng.permutation(len(rows))]


PACKING_EDGES = {"2**21-1": 2**21 - 1, "2**21": 2**21, "2**31": 2**31,
                 "2**62": 2**62}
DEDUP_EDGES = [
    pytest.param(packing_edge_table(K, width), id=f"K={name}-width={width}")
    for name, K in PACKING_EDGES.items()
    for width in sorted({1, labels_per_word(K), labels_per_word(K) + 1, 70})
] + [
    pytest.param(np.array([[0.0], [-0.0], [0.0], [-0.0]]), id="signed-zeros"),
    pytest.param(np.array([[0.0, -0.0] * 35, [-0.0, 0.0] * 35,
                           [0.0, -0.0] * 35, [0.0, 0.0] * 35]),
                 id="signed-zeros-width-70"),
    pytest.param(np.array([[0.5, -1.0, 1.0], [0.5, -1.0, -1.0]] * 3),
                 id="duplicated-rows"),
    pytest.param(np.array([[-0.0, 0.25]]), id="single-float-row"),
    pytest.param(np.array([[3, 1, 2]], np.int64), id="single-label-row"),
]


@pytest.mark.parametrize("table", DEDUP_EDGES)
def test_dedup_rows_at_key_boundaries(table):
    # widths of one word, of one word and a label, and of many words
    got, got_map = _dedup_rows(table)
    want, want_map = reference_dedup_rows(table)
    assert got.dtype == want.dtype and got_map.dtype == want_map.dtype
    assert got.tobytes() == want.tobytes() and got.shape == want.shape
    assert np.array_equal(got_map, want_map)


def test_dedup_rows_keeps_signed_zeros_apart():
    F = RealFunctionClass([[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5]])
    assert F.num_rows == 2 and list(F.row_map) == [0, 1, 0]
    assert np.signbit(F.table[:, 0]).tolist() == [False, True]


def test_class_validation():
    with pytest.raises(ValueError):
        HypothesisClass(2, [[1, 3]])        # label above K
    with pytest.raises(ValueError):
        HypothesisClass(2, [[0, 1]])        # labels are 1-based
    with pytest.raises(ValueError):
        RealFunctionClass([[1.5]])


def test_class_rejects_fractional_labels():
    with pytest.raises(ValueError, match="integers"):
        HypothesisClass(2, [[1.7, 2.2]])
    with pytest.raises(ValueError, match="integers"):
        HypothesisClass(2, [[1, float("nan")]])
    assert HypothesisClass(2, [[1.0, 2.0]]).row(0) == (1, 2)


@pytest.mark.parametrize("rows", [[[1, 10**19]], [[2**63]], [[1.0, 1e19]]],
                         ids=["float64", "uint64", "float"])
def test_class_rejects_labels_past_int64(rows):
    # a K past 64 bits once let these through, to wrap or overflow in int64
    with pytest.raises(ValueError, match=r"labels must lie below 2\*\*63"):
        HypothesisClass(2**64, rows)


def test_real_class_rejects_nan():
    with pytest.raises(ValueError):
        RealFunctionClass([[0.5, float("nan")]])


# --- discretization ------------------------------------------------------------

def test_discretize_two_constants_gamma_one():
    F = RealFunctionClass([[-1.0], [1.0]])
    H, mapping = discretize(F, 1.0)
    assert H.K == 2
    assert H.table.tolist() == [[1], [2]]
    assert list(mapping) == [0, 1]


def test_discretize_constant_zero_half():
    # intervals of length 0.5: [-1,-.5) [-.5,0) [0,.5) [.5,1]; zero lands in the third
    F = RealFunctionClass([[0.0]])
    H, _ = discretize(F, 0.5)
    assert H.K == 4
    assert H.table.tolist() == [[3]]


def test_discretize_gamma_two_single_interval():
    F = RealFunctionClass([[0.3, -0.2], [0.9, 0.1]])
    H, mapping = discretize(F, 2.0)
    assert H.K == 1
    assert H.num_rows == 1          # everything collapses to one constant
    assert H.table.tolist() == [[1, 1]]
    assert list(mapping) == [0, 0]


def test_discretize_rejects_bad_gamma():
    F = RealFunctionClass([[0.0]])
    with pytest.raises(ValueError):
        discretize(F, 0.0)
    with pytest.raises(ValueError):
        num_intervals(-1.0)


def test_discretize_midpoint_within_half_gamma(real_corpus):
    for F in real_corpus[:12]:
        for gamma in (0.3, 0.5, 1.0):
            H, mapping = discretize(F, gamma)
            for i in range(F.num_rows):
                for x in range(F.domain_size):
                    j = int(H.table[mapping[i], x])
                    mid = label_to_midpoint(j, gamma)
                    assert abs(mid - float(F.table[i, x])) <= gamma / 2 + 1e-9


def test_discretize_idempotent_on_midpoints(real_corpus):
    for F in real_corpus[:12]:
        for gamma in (0.4, 0.8):
            H, mapping = discretize(F, gamma)
            mids = np.array([[label_to_midpoint(int(H.table[mapping[i], x]), gamma)
                              for x in range(F.domain_size)]
                             for i in range(F.num_rows)])
            Fm = RealFunctionClass(mids)  # midpoint rows may collapse further
            H2, mapping2 = discretize(Fm, gamma)
            for i in range(F.num_rows):
                relabeled = H2.table[mapping2[Fm.row_map[i]]]
                assert (relabeled == H.table[mapping[i]]).all()


def test_boundary_values_snap_up():
    # -0.9 sits exactly on the boundary between intervals 5 and 6 at scale 0.02
    assert value_to_label(-0.9, 0.02) == 6
    assert value_to_label(1.0, 0.02) == 100
    assert value_to_label(-1.0, 0.02) == 1


# --- distributions and loss evaluation ----------------------------------------

def test_distribution_validation():
    with pytest.raises(ValueError):
        FiniteDistribution(np.array([0.5, 0.6]), np.array([1, 1]))
    with pytest.raises(ValueError):
        FiniteDistribution(np.array([-0.1, 1.1]), np.array([1, 1]))


def test_distribution_takes_no_cumulative_weights():
    # the cumulative weights are built from `weights`, never passed in
    with pytest.raises(TypeError):
        FiniteDistribution(np.array([0.5, 0.5]), np.array([1, 1]),
                           np.array([0.0, 1.0]))


def test_distribution_rejects_nan_weights():
    with pytest.raises(ValueError):
        FiniteDistribution(np.array([np.nan, 1.0]), np.array([1, 1]))
    with pytest.raises(ValueError):
        FiniteDistribution(np.array([np.nan, np.nan]), np.array([1, 1]))


def test_realizable_target_loss_zero():
    H = HypothesisClass(3, [[1, 2, 3], [2, 2, 2]])
    D = FiniteDistribution.uniform(H, 1)
    assert D.realizable_by(H)
    assert evaluate_loss(H.table[1], D, TolerantZeroOne(0)) == 0.0


def test_empirical_loss_counts_disagreements():
    h = np.array([1, 1, 1, 1])
    sample = ([0, 1, 2, 3], [1, 1, 2, 1])
    assert evaluate_loss(h, sample, TolerantZeroOne(0)) == 0.25


def test_distribution_mode_absolute_loss():
    D = FiniteDistribution(np.array([0.5, 0.5]), np.array([0.0, 0.0]))
    h = np.array([0.3, 0.1])
    assert evaluate_loss(h, D, AbsoluteLoss()) == pytest.approx(0.2)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        evaluate_loss(np.array([1]), ([], []), TolerantZeroOne(0))


def test_loss_ranges(mc_corpus):
    rng = np.random.default_rng(0)
    for H in mc_corpus[:10]:
        D = FiniteDistribution.uniform(H, 0)
        sample = D.draw_sample(rng, 5)
        for r in range(H.num_rows):
            v = evaluate_loss(H.table[r], sample, TolerantZeroOne(1))
            assert 0.0 <= v <= 1.0


@pytest.mark.parametrize("weights, last", [
    (np.full(7, 1 / 7), 6),                  # float sum 0.9999999999999998
    (np.r_[0.0, np.full(7, 1 / 7), 0.0, 0.0], 7),
], ids=["uniform-7", "trailing-zeros"])
def test_draws_near_one_land_on_the_last_drawable_point(weights, last):
    D = FiniteDistribution(weights, np.ones(weights.size, dtype=np.int64))
    top = 1 - 2 ** -53                       # the largest double below 1
    # 512 draws go through the guide table, 3 and 1 through the binary search
    for n in (3, 512):
        assert D.draw_indices(StubRng(top), n).tolist() == [last] * n
        xs, ys = D.draw_sample(StubRng(top), n)
        assert (xs.tolist(), ys.tolist()) == ([last] * n, [1] * n)
    # a zero-weight point is never drawn, not even at u = 0
    first = np.flatnonzero(weights)[0]
    for n in (1, 512):
        assert D.draw_indices(StubRng(0.0), n).tolist() == [first] * n


def _random_weights(rs, kind):
    """A weight vector of 1 to 5,000 points: 1 / m each, or normalized by
    its float sum."""
    m = int(rs.integers(1, 5001) if rs.random() < 0.2 else rs.integers(1, 200))
    if kind == "uniform":        # sums of m equal weights often end below 1
        return np.full(m, 1 / m)
    if kind == "spread":         # gaps near 1 / m: a table at every size
        w = 1 + rs.random(m)
    elif kind == "zeros":
        w = rs.random(m) * (rs.random(m) < 0.5)
    elif kind == "skewed":
        w = rs.random(m) ** int(rs.integers(1, 40))
    else:                        # below an ulp of the running sum
        w = np.where(rs.random(m) < 0.3, 2.0 ** -rs.integers(60, 1000, size=m),
                     1 + rs.random(m))
        w[0] = 1
    if not w.any():
        w[int(rs.integers(m))] = 1
    return w / w.sum()


def _crafted_uniforms(D):
    """Every boundary of D, its neighbours either side, every bucket edge
    b / B of every table size B <= GUIDE_BUCKETS, 0 and 1 - 2**-53."""
    bounds = np.unique(D._cum)
    u = np.concatenate([bounds, np.nextafter(bounds, -1),
                        np.nextafter(bounds, 2),
                        np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS,
                        [0.0, 1 - 2 ** -53]])
    return u[(u >= 0) & (u < 1)]


@pytest.mark.parametrize("kind", ["uniform", "spread", "zeros", "skewed",
                                  "sub-ulp"])
def test_draw_indices_is_the_inverse_cdf(kind):
    # on both sides of GUIDE_DRAWS the draws equal the binary search of the
    # cumulative weights at the same uniforms, and leave the generator in
    # the same state
    rs = np.random.default_rng(sum(map(ord, kind)))
    seen = set()
    for _ in range(40):
        w = _random_weights(rs, kind)
        D = FiniteDistribution(w, np.zeros(w.size, dtype=np.int64))
        for n in (1, GUIDE_DRAWS - 1, GUIDE_DRAWS, 512, 2000):
            seed = int(rs.integers(2 ** 32))
            got_rng, want_rng = (np.random.default_rng(seed) for _ in "ab")
            got = D.draw_indices(got_rng, n)
            want = inverse_cdf_draws(D, want_rng, n)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
        # the calls of GUIDE_DRAWS draws or more built the table or refused it
        assert D._guide is not None
        u = _crafted_uniforms(D)
        assert np.array_equal(D.draw_indices(StubRng(u), u.size),
                              inverse_cdf_draws(D, StubRng(u), u.size))
        guide = D._guide_table()
        if guide:
            # B is a power of two, at least twice the points, and no bucket
            # holds two boundaries strictly inside it
            size, bounds = guide[0], np.unique(D._cum)
            assert size & (size - 1) == 0 and 2 * w.size <= size <= GUIDE_BUCKETS
            inside = bounds[bounds * size != np.floor(bounds * size)]
            assert np.all(np.diff(np.floor(inside * size)) > 0)
        seen.add("table" if guide else "refused")
        if np.cumsum(w)[-1] < 1:
            seen.add("sum below 1")
        if np.unique(D._cum).size < w.size:
            seen.add("equal bounds")
    # each kind reaches the table, and the ones meant to reach equal
    # boundaries and sums below 1 do
    assert "table" in seen
    assert kind not in ("zeros", "sub-ulp") or "equal bounds" in seen
    assert kind != "uniform" or "sum below 1" in seen


def test_a_distribution_with_a_tiny_gap_keeps_the_binary_search():
    # two boundaries 2**-20 apart would need 2**20 buckets
    w = np.array([0.5, 2.0 ** -20, 0.5 - 2.0 ** -20])
    D = FiniteDistribution(w, np.ones(3, dtype=np.int64))
    assert D._guide_table() == ()
    u = _crafted_uniforms(D)
    assert np.array_equal(D.draw_indices(StubRng(u), u.size),
                          inverse_cdf_draws(D, StubRng(u), u.size))
    got_rng, want_rng = (np.random.default_rng(5) for _ in "ab")
    assert np.array_equal(D.draw_indices(got_rng, 512),
                          inverse_cdf_draws(D, want_rng, 512))


def test_draws_are_deterministic_given_seed():
    from tolerantlearn.seeding import trial_rng
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    D = FiniteDistribution.uniform(H, 0)
    a = D.draw_sample(trial_rng(9, "x"), 20)
    b = D.draw_sample(trial_rng(9, "x"), 20)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
