import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tolerantlearn.classes import HypothesisClass, tolerant_loss
from tolerantlearn.dimensions import ldim_value
from tolerantlearn.generators import complete_binary, threshold_class
from tolerantlearn.online import (ConstantLearner, MajorityLearner, SoaLearner,
                                  _argmax_label, adversary_force,
                                  predictor_table, soa_final_predictor, soa_run)


def realizable_sequences(H, length):
    """Every sequence (xs, ys) of the given length labeled by some hypothesis."""
    for h in range(H.num_rows):
        for xs in itertools.product(range(H.domain_size), repeat=length):
            yield np.array(xs, dtype=np.int64), H.table[h, list(xs)]


# --- the optimal learner -------------------------------------------------------

def test_singleton_never_errs():
    H = HypothesisClass(3, [[2, 3]])
    t = soa_run(H, 0, [0, 1, 0, 1], [2, 3, 2, 3])
    assert t.mistakes == 0
    assert t.final_predictor == (2, 3)


def test_threshold_class_mistake_bound_exhaustive(threshold4):
    bound = ldim_value(threshold4, 0)
    assert bound == 2
    for xs, ys in realizable_sequences(threshold4, 4):
        assert soa_run(threshold4, 0, xs, ys).mistakes <= bound


def test_four_constants_tolerant_bound():
    H = HypothesisClass(4, [[1], [2], [3], [4]])
    for xs, ys in realizable_sequences(H, 4):
        assert soa_run(H, 2, xs, ys).mistakes <= 1


def test_mistake_bound_random_corpus(mc_corpus):
    for H in mc_corpus[:12]:
        for tau in (0, 1):
            bound = ldim_value(H, tau)
            for xs, ys in realizable_sequences(H, 3):
                assert soa_run(H, tau, xs, ys).mistakes <= bound


def test_version_space_keeps_target(mc_corpus):
    for H in mc_corpus[:8]:
        for h in range(H.num_rows):
            t = soa_run(H, 0, np.arange(H.domain_size), H.table[h])
            assert t.break_round is None
            assert all(s >= 1 for s in t.vs_sizes)
            # sizes never increase while the prefix stays realizable
            assert all(a >= b for a, b in zip(t.vs_sizes, t.vs_sizes[1:]))


def test_transcript_mistake_flags_match_loss(threshold4):
    t = soa_run(threshold4, 0, [0, 3, 1, 2], [1, 2, 2, 1])
    for r in t.rounds:
        assert r.mistake == (tolerant_loss(r.y_hat, r.y, 0) == 1)


def test_extension_agrees_with_last_labels():
    H = HypothesisClass(2, [[1, 1], [2, 2]])
    xs, ys = [0, 0, 1, 0, 1], [1, 2, 2, 1, 1]
    t = soa_run(H, 0, xs, ys)
    assert t.break_round == 1
    # the final predictor matches the last observed label everywhere
    assert t.final_predictor == (1, 1)
    assert t.vs_sizes[t.break_round:] == [0] * (len(xs) - t.break_round)


def test_extension_consistent_with_realizable_tail(threshold4):
    # garbage prefix, then a tail drawn from a true hypothesis: the final
    # predictor must match the tail at every instance it visits
    target = 3
    tail_ys = threshold4.table[target]
    out = soa_final_predictor(threshold4, [0, 0, 0, 0, 1, 2, 3],
                              np.r_[[2, 1, 2], tail_ys])
    for x in range(4):
        assert out[x] == tail_ys[x]


def random_label_sequences(H, length, count, rs):
    """Sequences with uniformly random instances and labels (mostly unrealizable)."""
    for _ in range(count):
        yield (rs.integers(0, H.domain_size, size=length),
               rs.integers(1, H.K + 1, size=length))


def test_fast_path_matches_transcript(mc_corpus):
    # the transcript's per-round argmax and the cached predictor tables must
    # agree, before and after the prefix stops being realizable
    rs = np.random.default_rng(89)
    broke = 0
    for H in mc_corpus[:10]:
        sequences = (list(realizable_sequences(H, 3))
                     + list(random_label_sequences(H, 6, 20, rs)))
        for tau in (0, 1):
            for xs, ys in sequences:
                t = soa_run(H, tau, xs, ys)
                assert soa_final_predictor(H, xs, ys, tau) == t.final_predictor
                for i, r in enumerate(t.rounds):
                    assert r.y_hat == soa_final_predictor(H, xs[:i], ys[:i],
                                                          tau)[r.x]
                broke += t.break_round is not None
    assert broke > 0


def argmax_label_over_all_labels(H, tau, mask, x):
    """SOA's label at x as defined: every label 1..K scored by Ldim_tau of
    its restriction (-1 when empty), ties toward the smallest."""
    col = H.col_masks()[x]
    best_k, best_v = 1, None
    for k in range(1, H.K + 1):
        sub = mask & col.get(k, 0)
        v = ldim_value(H, tau, sub) if sub else -1
        if best_v is None or v > best_v:
            best_k, best_v = k, v
    return best_k


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.integers(1, 5), st.data(),
       st.sampled_from([0, 1]))
def test_argmax_label_scores_only_the_labels_in_use(K, rows, dom, data, tau):
    # labels missing from a column are skipped; masks include 0, where no
    # label is inhabited and label 1 stands
    labels = st.lists(st.integers(1, K), min_size=dom, max_size=dom)
    H = HypothesisClass(K, data.draw(st.lists(labels, min_size=rows,
                                              max_size=rows)))
    mask = data.draw(st.integers(0, H.full_mask))
    for x in range(H.domain_size):
        assert (_argmax_label(H, tau, mask, x)
                == argmax_label_over_all_labels(H, tau, mask, x))


def test_predictor_table_cost_follows_the_labels_in_use():
    # K = 2**64 leaves two labels in use; scoring all of 1..K never ends
    small = HypothesisClass(2, [[1, 2], [2, 1]])
    huge = HypothesisClass(2 ** 64, [[1, 2], [2, 1]])
    for mask in range(4):
        assert predictor_table(huge, 0, mask) == predictor_table(small, 0, mask)


def test_invalid_example_rejected(threshold4):
    with pytest.raises(ValueError):
        soa_run(threshold4, 0, [9], [1])
    with pytest.raises(ValueError):
        soa_run(threshold4, 0, [0], [5])


@pytest.mark.parametrize("example", [(0, 1.5), (0.5, 1), (0, "1"), (0, float("nan"))])
def test_non_integer_examples_rejected(example):
    # inside 1..K but not a label: must not be truncated or carried along
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    xs, ys = [example[0]], [example[1]]
    with pytest.raises(ValueError, match="not a pair of integers"):
        soa_run(H, 0, xs, ys)
    with pytest.raises(ValueError, match="not a pair of integers"):
        soa_final_predictor(H, xs, ys)


def test_whole_float_examples_fold_as_ints():
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    xs, ys = [1.0, 1], [1.0, 2.0]
    t = soa_run(H, 0, xs, ys)
    assert [(r.x, r.y) for r in t.rounds] == [(1, 1), (1, 2)]
    final = soa_final_predictor(H, xs, ys)
    assert final == t.final_predictor
    assert all(type(v) is int for v in final + t.final_predictor)


def test_final_predictor_rejects_examples_outside_class():
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        soa_final_predictor(H, [0], [7])
    with pytest.raises(ValueError):
        soa_final_predictor(H, [-1], [1])


# --- the adversary -------------------------------------------------------------

def test_adversary_complete_binary_exact():
    H = complete_binary(3)
    t = adversary_force(H, 0, SoaLearner(H, 0))
    assert t.mistakes == 3


def test_adversary_threshold_vs_constant(threshold4):
    t = adversary_force(threshold4, 0, ConstantLearner(1))
    assert t.mistakes >= 2


def test_adversary_singleton_trivial():
    H = HypothesisClass(2, [[1, 2]])
    t = adversary_force(H, 0, ConstantLearner(1))
    assert t.mistakes == 0
    assert t.rounds == []


def test_adversary_beats_learner_zoo(mc_corpus):
    for H in mc_corpus[:12]:
        for tau in (0, 1):
            bound = ldim_value(H, 2 * tau)
            learners = [SoaLearner(H, tau), ConstantLearner(1),
                        ConstantLearner(H.K), MajorityLearner(H)]
            for learner in learners:
                t = adversary_force(H, tau, learner)
                assert t.mistakes >= bound
                for r in t.rounds:
                    assert tolerant_loss(r.y_hat, r.y, tau) == 1


def test_adversary_passes_history_as_int_arrays(threshold4):
    seen = []

    class Recorder(ConstantLearner):
        def predict(self, x, xs, ys):
            seen.append((xs.dtype, ys.dtype, xs.tolist(), ys.tolist()))
            return super().predict(x, xs, ys)

    t = adversary_force(threshold4, 0, Recorder(1))
    assert len(seen) == len(t.rounds) == 2
    for i, (xd, yd, xs, ys) in enumerate(seen):
        assert xd == yd == np.int64
        assert xs == [r.x for r in t.rounds[:i]]
        assert ys == [r.y for r in t.rounds[:i]]


def test_adversary_sequence_is_realizable(mc_corpus):
    # the adversary walks a shattered tree, so its sequence has a consistent
    # hypothesis and the tolerant-SOA bound applies to it as well
    for H in mc_corpus[:8]:
        t = adversary_force(H, 0, MajorityLearner(H))
        replay = soa_run(H, 0, [r.x for r in t.rounds], [r.y for r in t.rounds])
        assert replay.break_round is None
