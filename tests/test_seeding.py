"""The stream derivation rule, recomputed without numpy's seeding code."""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tolerantlearn
from tolerantlearn.seeding import as_generator, trial_rng

PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1


def reference_state(seed, *path):
    """PCG64 set-seq seeding from the SHA-256 words, in Python ints."""
    text = "/".join([str(seed)] + [str(p) for p in path])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    w0, w1, w2, w3 = (int.from_bytes(digest[i:i + 8], "little")
                      for i in range(0, 32, 8))
    initstate, initseq = w0 << 64 | w1, w2 << 64 | w3
    inc = (initseq << 1 | 1) & MASK128
    state = inc                                   # step from state 0
    state = (state + initstate) & MASK128
    state = (state * PCG_MULT + inc) & MASK128    # step
    return {"state": state, "inc": inc}


@pytest.mark.parametrize("args", [(7, "batch", 3), (0,), (12, "g", 0),
                                  (2 ** 40, "random-real", 20, 6)])
def test_state_follows_the_documented_rule(args):
    state = trial_rng(*args).bit_generator.state
    assert state["bit_generator"] == "PCG64"
    assert state["state"] == reference_state(*args)


def test_distinct_paths_give_distinct_states():
    paths = [(s,) for s in range(4)] + [
        (s, label, i) for s, label, i in
        itertools.product(range(3), ("batch", "g", "hist"), range(4))]
    paths += [(1, "batch"), (1, "batch", 0, 0), (10, "batch", 0)]
    states = {tuple(trial_rng(*p).bit_generator.state["state"].values())
              for p in paths}
    assert len(states) == len(paths)


def test_as_generator_of_an_int_is_the_root_stream():
    assert (as_generator(5).integers(0, 2 ** 62, 8).tolist()
            == trial_rng(5).integers(0, 2 ** 62, 8).tolist())
    rng = trial_rng(5)
    assert as_generator(rng) is rng


def test_cli_import_does_not_load_numpy_random():
    """`numpy.random` is loaded on the first draw, not by the package.

    dim-real and thresholds-cb16 never draw; building the seed-sequence
    class at import time (which loads `numpy.random`) raised dim-real's
    bench peak RSS from 36.4 MB to 38.7 MB, about 2.3 MB, in 3 of 3 runs.
    """
    src = str(Path(tolerantlearn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, tolerantlearn.cli; "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
