"""Deterministic stream splitting: every random run hashes one named seed.

The per-trial rule is fixed and documented.  `trial_rng(seed, *path)`
takes the SHA-256 digest of the text "seed/path0/path1/..." and reads it as
four little-endian 64-bit words w0..w3, which seed a PCG64 generator as
they are, with no `SeedSequence` re-hashing them:

    initstate = w0 << 64 | w1,   initseq = w2 << 64 | w3,
    state = 0;  inc = initseq << 1 | 1;  step;  state += initstate;  step

where `step` is PCG's 128-bit LCG step `state = state * mult + inc`.  That
is PCG's own set-seq seeding (O'Neill, HMC-CS-2014-0905); the digest is
already uniformly mixed, so it needs no further hashing.  No ambient
entropy is used anywhere in the package: nothing builds a seed sequence
without a seed.

The package's stream paths, after the seed:

    "g" / "batch" [, i]       `stability.stable_tables` for `gs` / `dp-learn`:
                              without i the coins, every run's k in one
                              draw, then the tournament labels in run
                              order, LABEL_BLOCK at a time, which gives
                              the labels of one draw each; with i run
                              i's examples
    "hist"                    the stable histogram's noise
    "sprime"                  the selection sample
    "select"                  the exponential selection's draw
    "random-mc", rows, points, K
    "random-real", rows, points
                              the random class generators
    (none)                    `as_generator(seed)`, a seed given directly

A stream of examples is made on its first read, so a run that reads none
makes no stream.

`numpy.random` is imported on the first draw, not with the package, so the
commands that never draw do not load it.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


@functools.cache
def _digest_seed():
    """The seed-sequence class that hands PCG64 a digest's words unchanged."""
    from numpy.random.bit_generator import ISeedSequence

    class DigestSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly the 256 bits the digest has
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a digest seeds only PCG64's four uint64 words")
            return self.words

    return DigestSeed


def trial_rng(seed: int, *path) -> np.random.Generator:
    """Independent generator for (seed, trial-path); reproducible everywhere."""
    text = "/".join([str(int(seed))] + [str(p) for p in path])
    words = np.frombuffer(hashlib.sha256(text.encode("ascii")).digest(), "<u8")
    seed_seq = _digest_seed()(words.astype(np.uint64, copy=False))
    return np.random.Generator(np.random.PCG64(seed_seq))


def as_generator(seed) -> np.random.Generator:
    """Accept either a seed integer or an existing generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return trial_rng(int(seed))
