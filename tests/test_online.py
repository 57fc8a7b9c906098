import itertools

import numpy as np
import pytest

from tolerantlearn.classes import HypothesisClass, LabeledExample, make_sample, tolerant_loss
from tolerantlearn.dimensions import ldim_value
from tolerantlearn.generators import complete_binary, threshold_class
from tolerantlearn.online import (ConstantLearner, MajorityLearner, SoaLearner,
                                  adversary_force, soa_final_predictor, soa_run)


def realizable_sequences(H, length):
    """Every sequence of the given length labeled by some hypothesis."""
    for h in range(H.num_rows):
        for xs in itertools.product(range(H.domain_size), repeat=length):
            yield [LabeledExample(x, int(H.table[h, x])) for x in xs]


# --- the optimal learner -------------------------------------------------------

def test_singleton_never_errs():
    H = HypothesisClass(3, [[2, 3]])
    t = soa_run(H, 0, make_sample([(0, 2), (1, 3), (0, 2), (1, 3)]))
    assert t.mistakes == 0
    assert t.final_predictor == (2, 3)


def test_threshold_class_mistake_bound_exhaustive(threshold4):
    bound = ldim_value(threshold4, 0)
    assert bound == 2
    for seq in realizable_sequences(threshold4, 4):
        assert soa_run(threshold4, 0, seq).mistakes <= bound


def test_four_constants_tolerant_bound():
    H = HypothesisClass(4, [[1], [2], [3], [4]])
    for seq in realizable_sequences(H, 4):
        assert soa_run(H, 2, seq).mistakes <= 1


def test_mistake_bound_random_corpus(mc_corpus):
    for H in mc_corpus[:12]:
        for tau in (0, 1):
            bound = ldim_value(H, tau)
            for seq in realizable_sequences(H, 3):
                assert soa_run(H, tau, seq).mistakes <= bound


def test_version_space_keeps_target(mc_corpus):
    for H in mc_corpus[:8]:
        for h in range(H.num_rows):
            seq = [LabeledExample(x, int(H.table[h, x]))
                   for x in range(H.domain_size)]
            t = soa_run(H, 0, seq)
            assert t.break_round is None
            assert all(s >= 1 for s in t.vs_sizes)
            # sizes never increase while the prefix stays realizable
            assert all(a >= b for a, b in zip(t.vs_sizes, t.vs_sizes[1:]))


def test_transcript_mistake_flags_match_loss(threshold4):
    seq = make_sample([(0, 1), (3, 2), (1, 2), (2, 1)])
    t = soa_run(threshold4, 0, seq)
    for r in t.rounds:
        assert r.mistake == (tolerant_loss(r.y_hat, r.y, 0) == 1)


def test_extension_agrees_with_last_labels():
    H = HypothesisClass(2, [[1, 1], [2, 2]])
    seq = make_sample([(0, 1), (0, 2), (1, 2), (0, 1), (1, 1)])
    t = soa_run(H, 0, seq)
    assert t.break_round == 1
    # the final predictor matches the last observed label everywhere
    assert t.final_predictor == (1, 1)
    assert t.vs_sizes[t.break_round:] == [0] * (len(seq) - t.break_round)


def test_extension_consistent_with_realizable_tail(threshold4):
    # garbage prefix, then a tail drawn from a true hypothesis: the final
    # predictor must match the tail at every instance it visits
    prefix = make_sample([(0, 2), (0, 1), (0, 2)])
    target = 3
    tail = [LabeledExample(x, int(threshold4.table[target, x])) for x in range(4)]
    out = soa_final_predictor(threshold4, prefix + tail)
    for ex in tail:
        assert out[ex.x] == ex.y


def random_label_sequences(H, length, count, rs):
    """Sequences with uniformly random instances and labels (mostly unrealizable)."""
    for _ in range(count):
        xs = rs.integers(0, H.domain_size, size=length).tolist()
        ys = rs.integers(1, H.K + 1, size=length).tolist()
        yield make_sample(zip(xs, ys))


def test_fast_path_matches_transcript(mc_corpus):
    # the transcript's per-round argmax and the cached predictor tables must
    # agree, before and after the prefix stops being realizable
    rs = np.random.default_rng(89)
    broke = 0
    for H in mc_corpus[:10]:
        sequences = (list(realizable_sequences(H, 3))
                     + list(random_label_sequences(H, 6, 20, rs)))
        for tau in (0, 1):
            for seq in sequences:
                t = soa_run(H, tau, seq)
                assert soa_final_predictor(H, seq, tau) == t.final_predictor
                for i, r in enumerate(t.rounds):
                    assert r.y_hat == soa_final_predictor(H, seq[:i], tau)[r.x]
                broke += t.break_round is not None
    assert broke > 0


def test_invalid_example_rejected(threshold4):
    with pytest.raises(ValueError):
        soa_run(threshold4, 0, make_sample([(9, 1)]))
    with pytest.raises(ValueError):
        soa_run(threshold4, 0, make_sample([(0, 5)]))


@pytest.mark.parametrize("example", [(0, 1.5), (0.5, 1), (0, "1"), (0, float("nan"))])
def test_non_integer_examples_rejected(example):
    # inside 1..K but not a label: must not be truncated or carried along
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    seq = [LabeledExample(*example)]
    with pytest.raises(ValueError, match="not a pair of integers"):
        soa_run(H, 0, seq)
    with pytest.raises(ValueError, match="not a pair of integers"):
        soa_final_predictor(H, seq)


def test_whole_float_examples_fold_as_ints():
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    seq = [LabeledExample(1.0, 1.0), LabeledExample(1, 2.0)]
    t = soa_run(H, 0, seq)
    assert [(r.x, r.y) for r in t.rounds] == [(1, 1), (1, 2)]
    final = soa_final_predictor(H, seq)
    assert final == t.final_predictor
    assert all(type(v) is int for v in final + t.final_predictor)


def test_final_predictor_rejects_examples_outside_class():
    H = HypothesisClass(2, [[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        soa_final_predictor(H, [LabeledExample(0, 7)])
    with pytest.raises(ValueError):
        soa_final_predictor(H, [LabeledExample(-1, 1)])


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


def test_adversary_sequence_is_realizable(mc_corpus):
    # the adversary walks a shattered tree, so its sequence has a consistent
    # hypothesis and the tolerant-SOA bound applies to it as well
    for H in mc_corpus[:8]:
        t = adversary_force(H, 0, MajorityLearner(H))
        replay = soa_run(H, 0, [LabeledExample(r.x, r.y) for r in t.rounds])
        assert replay.break_round is None
