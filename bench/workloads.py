"""The four benchmark workloads: inputs from a seed, CLI calls, re-checks.

Each workload writes its inputs into the working directory
(`write_inputs`, run in a separate process by `make_inputs.py`) and names a
pool of operations on those files that the closed loop cycles through
(`ops`).  The program sees only the generated files and argv.  Every re-check is independent of the
code path that produced the output: dimension certificates go through the
definitional tree checkers, threshold families are reloaded and verified
from their definition, and population losses are recomputed with numpy
from the class file.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from tolerantlearn import classfile, generators
from tolerantlearn.classes import HypothesisClass
from tolerantlearn.dimensions import check_sign_tree
from tolerantlearn.thresholds import verify_thresholds
from tolerantlearn.trees import check_real_tree, complete_binary_certificate

from harness import Op

POOL = 64          # distinct operations generated per run


def derived_seed(*parts) -> int:
    """A 31-bit seed derived from the workload seed and a path."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def _population_loss_error(class_path, target, table, reported):
    """None when `reported` equals the uniform-weight zero-one loss of `table`."""
    if table is None:
        return None if reported is None else f"loss {reported} for no output"
    rows = np.array(_read_json(class_path)["rows"])
    loss = float(np.mean(np.array(table) != rows[target]))
    if reported is None or abs(loss - reported) > 1e-12:
        return f"population loss {reported}, recomputed {loss}"
    return None


# ---------------------------------------------------------------------------
# dp-mc: the composed private learner on constants
# ---------------------------------------------------------------------------

class DpMc:
    name = "dp-mc"
    min_ops = 4

    def write_inputs(self, seed: int):
        classfile.save_class(generators.constants_class(3, 3), "consts.json")

    def ops(self, seed: int) -> list:
        def check(stdout):
            agg = _read_json("dp.json")["aggregates"]
            return _population_loss_error("consts.json", 0, agg["output"],
                                          agg["population_loss"])

        ops = []
        for i in range(POOL):
            s = derived_seed(self.name, seed, i)
            ops.append(Op(f"dp-learn seed={s}", [
                "dp-learn", "--input", "consts.json", "--target", "0",
                "--epsilon", "0.5", "--delta", "0.01", "--alpha", "0.2",
                "--beta", "0.2", "--seed", str(s), "--out", "dp.json"],
                ("dp.json",), check))
        return ops


# ---------------------------------------------------------------------------
# gs-threshold: the stable learner where tournaments succeed
# ---------------------------------------------------------------------------

class GsThreshold:
    name = "gs-threshold"
    min_ops = 2
    points = 7
    target = 4
    trials = 40

    def write_inputs(self, seed: int):
        classfile.save_class(generators.threshold_class(self.points), "thr.json")

    def ops(self, seed: int) -> list:
        def check(stdout):
            doc = _read_json("gs.json")
            agg = doc["aggregates"]
            tallied = sum(r["count"] for r in doc["records"]) + agg["fail_count"]
            if tallied != self.trials:
                return f"{tallied} outcomes tallied for {self.trials} trials"
            return _population_loss_error("thr.json", self.target,
                                          agg["modal_table"],
                                          agg["population_loss"])

        ops = []
        for i in range(POOL):
            s = derived_seed(self.name, seed, i)
            ops.append(Op(f"gs seed={s}", [
                "gs", "--input", "thr.json", "--target", str(self.target),
                "--alpha", "0.1", "--trials", str(self.trials),
                "--seed", str(s), "--out", "gs.json"], ("gs.json",), check))
        return ops


# ---------------------------------------------------------------------------
# dim-real: fat-shattering and Pollard dimensions with certificates
# ---------------------------------------------------------------------------

class DimReal:
    name = "dim-real"
    min_ops = 4
    fat_rows = 20
    pdim_rows = 13
    points = 6
    grid = 0.25
    gamma = 0.25

    def _classes(self, seed: int):
        for i in range(POOL // 2):
            s = derived_seed(self.name, seed, i)
            for kind, rows in (("fat", self.fat_rows), ("pdim", self.pdim_rows)):
                yield kind, rows, s, f"{kind}-{i}.json"

    def write_inputs(self, seed: int):
        for kind, rows, s, path in self._classes(seed):
            classfile.save_class(
                generators.random_real(rows, self.points, self.grid, s), path)

    def ops(self, seed: int) -> list:
        ops = []
        for kind, rows, s, path in self._classes(seed):
            gamma = ["--gamma", str(self.gamma)] if kind == "fat" else []
            argv = ["dim", "--input", path, "--kind", kind, *gamma,
                    "--certificate-out", "cert.json", "--out", "dim.json"]
            ops.append(Op(f"dim {kind} class-seed={s}", argv,
                          ("cert.json", "dim.json"), self._checker(kind, path)))
        return ops

    def _checker(self, kind, path):
        def check(stdout):
            F = classfile.load_class(path)
            tree = classfile.load_certificate("cert.json")
            value = _read_json("dim.json")["aggregates"]["value"]
            if tree.height != value:
                return f"certificate height {tree.height} != value {value}"
            if kind == "fat":
                ok, msg = check_real_tree(F, tree, self.gamma)
            else:
                ok, msg = check_sign_tree(F, tree)
            return None if ok else f"{kind} certificate rejected: {msg}"
        return check


# ---------------------------------------------------------------------------
# thresholds-cb16: threshold extraction at depth 16
# ---------------------------------------------------------------------------

class ThresholdsCb16:
    name = "thresholds-cb16"
    min_ops = 2
    depth = 16

    def write_inputs(self, seed: int):
        base = generators.complete_binary(self.depth).table
        perm = np.random.default_rng(derived_seed(self.name, seed)).permutation(
            base.shape[0])
        classfile.save_class(HypothesisClass(2, base[perm]), "cb.json")
        classfile.save_certificate(complete_binary_certificate(self.depth),
                                   "cb-cert.json")

    def ops(self, seed: int) -> list:
        # loaded once a run, kept as 1 byte a value so that it adds little
        # to the process's peak memory, which the benchmark reports
        @functools.cache
        def rows():
            return np.asarray(classfile.load_class("cb.json").table, dtype=np.int8)

        def check(stdout):
            fam = classfile.load_family("family.json")
            res = verify_thresholds(fam)
            if not res.ok:
                return f"family rejected: {res.message}"
            if f"family_size: {len(fam)}" not in stdout.splitlines():
                return "reported family size does not match the family file"
            for f in fam.functions:
                if not (rows() == np.asarray(f, dtype=np.int8)).all(axis=1).any():
                    return "family function is not a row of the class"
            return None

        return [Op("thresholds", [
            "thresholds", "--input", "cb.json", "--tolerance", "0",
            "--certificate", "cb-cert.json", "--out", "family.json"],
            ("family.json",), check)]


WORKLOADS = {w.name: w
             for w in (DpMc(), GsThreshold(), DimReal(), ThresholdsCb16())}
