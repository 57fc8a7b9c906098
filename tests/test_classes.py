import numpy as np
import pytest
from hypothesis import given, strategies as st

from tolerantlearn.classes import (AbsoluteLoss, FiniteDistribution,
                                   HypothesisClass, RealFunctionClass,
                                   TolerantZeroOne, absolute_loss, discretize,
                                   evaluate_loss, label_to_midpoint,
                                   make_sample, num_intervals, tolerant_loss,
                                   value_to_label)


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
    sample = make_sample([(0, 1), (1, 1), (2, 2), (3, 1)])
    assert evaluate_loss(h, sample, TolerantZeroOne(0)) == 0.25


def test_distribution_mode_absolute_loss():
    D = FiniteDistribution(np.array([0.5, 0.5]), np.array([0.0, 0.0]))
    h = np.array([0.3, 0.1])
    assert evaluate_loss(h, D, AbsoluteLoss()) == pytest.approx(0.2)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        evaluate_loss(np.array([1]), [], TolerantZeroOne(0))


def test_loss_ranges(mc_corpus):
    rng = np.random.default_rng(0)
    for H in mc_corpus[:10]:
        D = FiniteDistribution.uniform(H, 0)
        sample = D.draw_sample(rng, 5)
        for r in range(H.num_rows):
            v = evaluate_loss(H.table[r], sample, TolerantZeroOne(1))
            assert 0.0 <= v <= 1.0


def test_draws_are_deterministic_given_seed():
    from tolerantlearn.seeding import trial_rng
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    D = FiniteDistribution.uniform(H, 0)
    a = D.draw_sample(trial_rng(9, "x"), 20)
    b = D.draw_sample(trial_rng(9, "x"), 20)
    assert a == b
