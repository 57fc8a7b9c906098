"""The tolerant Standard Optimal Algorithm and its forcing adversary.

SOA_tau predicts, at each instance, the label whose version-space
restriction has the largest tolerant Littlestone dimension.  Once the
observed prefix stops being realizable the run switches to pointwise
patching of the running predictor, which may leave the class (the learner
becomes improper).  `SoaState` is that one state machine; every SOA
caller, the tournament sampler included, folds examples through it, given
as a pair (xs, ys) of int arrays.  The adversary walks a tolerance-2*tau
certificate tree and answers every prediction with an edge label that
costs the learner a mistake.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classes import HypothesisClass, integer_sample, tolerant_loss
from .dimensions import ldim_tau, ldim_value
from .trees import check_mc_tree, child


@dataclass(frozen=True)
class Round:
    x: int
    y_hat: int
    y: int
    mistake: bool


@dataclass
class OnlineTranscript:
    """Per-round record of one online run."""

    tau: int
    rounds: list = field(default_factory=list)
    vs_sizes: list = field(default_factory=list)
    final_predictor: Optional[tuple] = None
    break_round: Optional[int] = None  # first round whose prefix is unrealizable

    @property
    def mistakes(self) -> int:
        return sum(1 for r in self.rounds if r.mistake)


def _argmax_label(H: HypothesisClass, tau: int, mask: int, x: int) -> int:
    """Label maximizing Ldim_tau of the restriction; ties toward smallest.

    Only a label some row of `mask` carries at x has a nonempty
    restriction, and an empty one scores -1, so the labels in the column
    are scored in increasing order and label 1 stands when none is
    inhabited.  The cost follows the labels the class uses at x, not K.
    """
    best_k, best_v = 1, -1
    for k, col in H.col_masks()[x].items():
        sub = mask & col
        if sub:
            v = ldim_value(H, tau, sub)
            if v > best_v:
                best_k, best_v = k, v
    return best_k


def predictor_table(H: HypothesisClass, tau: int, mask: int) -> tuple:
    """Total prediction table of SOA_tau's running hypothesis at state `mask`."""
    key = (tau, mask)
    hit = H._predictor_cache.get(key)
    if hit is None:
        hit = tuple(_argmax_label(H, tau, mask, x)
                    for x in range(H.domain_size))
        H._predictor_cache[key] = hit
    return hit


class SoaState:
    """SOA_tau's running state, folded one labeled example at a time.

    While the observed prefix is realizable the state is the version space,
    the row bitmask `mask` (all rows unless given).  The example that
    empties it freezes the running predictor into `base`; every later
    example is recorded in `patches`, which overrides `base` pointwise.
    """

    __slots__ = ("H", "tau", "_cols", "mask", "base", "patches")

    def __init__(self, H: HypothesisClass, tau: int = 0, mask: Optional[int] = None):
        if tau < 0:
            raise ValueError("tau must be >= 0")
        self.H = H
        self.tau = tau
        self._cols = H.col_masks()
        self.mask = H.full_mask if mask is None else mask
        self.base = None      # predictor frozen when realizability breaks
        self.patches = {}

    def predict(self, x: int) -> int:
        """SOA_tau's label at x after the examples observed so far."""
        if not 0 <= x < self.H.domain_size:
            raise ValueError(f"instance {x} outside the class domain")
        if self.base is None:
            return _argmax_label(self.H, self.tau, self.mask, x)
        return self.patches.get(x, self.base[x])

    def observe(self, x: int, y: int) -> None:
        """Fold the labeled example (x, y) into the state."""
        H = self.H
        if not (0 <= x < H.domain_size and 1 <= y <= H.K):
            raise ValueError(f"example ({x}, {y}) outside the class domain")
        if self.base is None:
            mask = self.mask & self._cols[x].get(y, 0)
            if mask:
                self.mask = mask
                return
            # prefix no longer realizable: freeze h_t, patch pointwise
            self.base = predictor_table(H, self.tau, self.mask)
        self.patches[x] = y

    def predictor(self) -> tuple:
        """Total prediction table of the running hypothesis."""
        if self.base is None:
            return predictor_table(self.H, self.tau, self.mask)
        return tuple(self.patches.get(x, self.base[x])
                     for x in range(self.H.domain_size))


def soa_run(H: HypothesisClass, tau: int, xs, ys) -> OnlineTranscript:
    """Run SOA_tau over the labeled sequence (xs, ys), with a full transcript."""
    xs, ys = integer_sample(xs, ys)
    state = SoaState(H, tau)
    t = OnlineTranscript(tau=tau)
    for x, y in zip(xs.tolist(), ys.tolist()):
        y_hat = state.predict(x)
        t.rounds.append(Round(x, y_hat, y, tolerant_loss(y_hat, y, tau) == 1))
        state.observe(x, y)
        t.vs_sizes.append(state.mask.bit_count() if state.base is None else 0)
    if 0 in t.vs_sizes:  # sizes are >= 1 while the prefix is realizable
        t.break_round = t.vs_sizes.index(0)
    t.final_predictor = state.predictor()
    return t


def soa_final_predictor(H: HypothesisClass, xs, ys, tau: int = 0) -> tuple:
    """Final predictor of SOA_tau without transcript bookkeeping (hot path)."""
    xs, ys = integer_sample(xs, ys)
    state = SoaState(H, tau)
    for x, y in zip(xs.tolist(), ys.tolist()):
        state.observe(x, y)
    return state.predictor()


# ---------------------------------------------------------------------------
# learners for the adversary game: predict(x, xs, ys) after history (xs, ys)
# ---------------------------------------------------------------------------

class SoaLearner:
    """SOA_tau packaged as a deterministic prediction callback."""

    def __init__(self, H: HypothesisClass, tau: int):
        self.H = H
        self.tau = tau

    def predict(self, x: int, xs, ys) -> int:
        return soa_final_predictor(self.H, xs, ys, self.tau)[x]


class ConstantLearner:
    """Always predicts a fixed label."""

    def __init__(self, k: int):
        self.k = int(k)

    def predict(self, x: int, xs, ys) -> int:
        return self.k


class MajorityLearner:
    """Predicts the most common label of the class at each instance."""

    def __init__(self, H: HypothesisClass):
        # argmax picks the first maximum, so ties go to the smallest label
        self.table = tuple(int(np.bincount(H.table[:, x]).argmax())
                           for x in range(H.domain_size))

    def predict(self, x: int, xs, ys) -> int:
        return self.table[x]


def adversary_force(H: HypothesisClass, tau: int, learner) -> OnlineTranscript:
    """Force Ldim_2tau(H) tolerant mistakes out of a deterministic learner.

    Walks a tolerance-2*tau certificate tree; at each node at least one edge
    label is further than tau from the prediction because the two edge
    labels are more than 2*tau apart.  Prefers the left edge when both
    qualify.  The `adversary` verdict, not this walk, checks the count.
    """
    report = ldim_tau(H, 2 * tau)
    tree = report.certificate
    ok, msg = check_mc_tree(H, tree, 2 * tau)
    if not ok:
        raise AssertionError(f"internal certificate rejected: {msg}")
    t = OnlineTranscript(tau=tau)
    at = 0                                  # heap id of the current node
    while at < len(tree.x):
        x = int(tree.x[at])
        xs = np.array([r.x for r in t.rounds], dtype=np.int64)
        ys = np.array([r.y for r in t.rounds], dtype=np.int64)
        y_hat = int(learner.predict(x, xs, ys))
        went_right = tolerant_loss(y_hat, int(tree.left_label[at]), tau) == 0
        y = int((tree.right_label if went_right else tree.left_label)[at])
        at = child(at, went_right)
        mistake = tolerant_loss(y_hat, y, tau) == 1
        t.rounds.append(Round(x, y_hat, y, mistake))
    return t
