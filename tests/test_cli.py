import hashlib
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tolerantlearn import classfile
from tolerantlearn.classes import HypothesisClass, RealFunctionClass
from tolerantlearn.cli import main
from tolerantlearn.generators import (complete_binary, constants_class,
                                      random_multiclass, random_real,
                                      threshold_class)
from tolerantlearn.thresholds import verify_thresholds
from tolerantlearn.trees import (MistakeTree, threshold_class_certificate,
                                 tree_to_dict)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def thr_file(tmp_path):
    path = tmp_path / "thr.json"
    classfile.save_class(threshold_class(4), path)
    return path


# --- file formats ------------------------------------------------------------

def test_class_file_round_trip(tmp_path):
    for cls in (threshold_class(3), constants_class(3, 2),
                random_real(4, 3, 0.25, 7)):
        path = tmp_path / "c.json"
        classfile.save_class(cls, path)
        back = classfile.load_class(path)
        assert type(back) is type(cls)
        assert (back.table == cls.table).all()


def test_class_file_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "nope/9"}))
    with pytest.raises(ValueError):
        classfile.load_class(path)


def test_real_file_grid_validation(tmp_path):
    path = tmp_path / "r.json"
    doc = {"format": "classfile/1", "kind": "real", "grid": 0.5,
           "domain_size": 1, "rows": [[0.3]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        classfile.load_class(path)


def test_sequence_round_trip(tmp_path):
    path = tmp_path / "s.json"
    classfile.save_sequence([0, 2], [1, 2], path)
    xs, ys = classfile.load_sequence(path)
    assert (xs.tolist(), ys.tolist()) == ([0, 2], [1, 2])


int64s = st.integers(-2**63, 2**63 - 1)
no_fixture_check = settings(max_examples=100, deadline=None,
                            suppress_health_check=[HealthCheck.function_scoped_fixture])


@no_fixture_check
@given(st.lists(st.tuples(int64s, int64s), max_size=20))
def test_sequence_round_trip_property(tmp_path, pairs):
    xs = np.array([x for x, _ in pairs], dtype=np.int64)
    ys = np.array([y for _, y in pairs], dtype=np.int64)
    path = tmp_path / "s.json"
    classfile.save_sequence(xs, ys, path)
    back_xs, back_ys = classfile.load_sequence(path)
    assert back_xs.dtype == back_ys.dtype == np.int64
    assert (back_xs.tolist(), back_ys.tolist()) == (xs.tolist(), ys.tolist())


@no_fixture_check
@given(st.lists(st.tuples(int64s, int64s), min_size=1, max_size=8), st.data(),
       st.one_of(st.floats().filter(lambda v: not float(v).is_integer()),
                 st.text(), st.none()))
def test_non_integral_sequence_entries_rejected(tmp_path, pairs, data, bad):
    i = data.draw(st.integers(0, len(pairs) - 1))
    col = data.draw(st.integers(0, 1))
    rows = [list(p) for p in pairs]
    rows[i][col] = bad
    xs, ys = [r[0] for r in rows], [r[1] for r in rows]
    with pytest.raises(ValueError, match="not a pair of integers"):
        classfile.save_sequence(xs, ys, tmp_path / "never.json")
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"format": classfile.SEQ_FORMAT,
                                "examples": rows}))
    with pytest.raises(ValueError, match="not a pair of integers"):
        classfile.load_sequence(path)


def test_certificate_round_trip(tmp_path):
    cert = threshold_class_certificate(4)
    path = tmp_path / "cert.json"
    classfile.save_certificate(cert, path, params={"tau": 0})
    back = classfile.load_certificate(path)
    assert back.height == cert.height
    assert tree_to_dict(back) == tree_to_dict(cert)


@st.composite
def heap_trees(draw):
    n = 2 ** draw(st.integers(0, 6)) - 1
    x = draw(st.lists(int64s, min_size=n, max_size=n))
    if draw(st.booleans()):
        return MistakeTree(x, witness=draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n)))
    labels = st.lists(int64s, min_size=n, max_size=n)
    return MistakeTree(x, draw(labels), draw(labels))


@no_fixture_check
@given(heap_trees(), st.dictionaries(st.sampled_from(["tau", "gamma"]),
                                     st.integers(0, 9)))
def test_certificate_round_trip_property(tmp_path, tree, params):
    path = tmp_path / "cert.json"
    classfile.save_certificate(tree, path, params=params)
    back = classfile.load_certificate(path)
    assert back.kind == tree.kind and back.height == tree.height
    for f in tree.fields:
        assert getattr(back, f).dtype == getattr(tree, f).dtype
        assert np.array_equal(getattr(back, f), getattr(tree, f))
    assert json.loads(path.read_text())["params"] == params


def test_generated_class_files_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("generate", "--family", "random-real", "--functions", 4,
            "--points", 3, "--grid", 0.25, "--seed", 7, "--out", a)
    run_cli("generate", "--family", "random-real", "--functions", 4,
            "--points", 3, "--grid", 0.25, "--seed", 7, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_requires_seed_for_random(tmp_path, capsys):
    code = run_cli("generate", "--family", "random-real", "--points", 3,
                   "--out", tmp_path / "x.json")
    assert code == 2
    assert ("error: generate: --seed is mandatory for randomized generators"
            in capsys.readouterr().err)


def test_generate_rejects_oversize(tmp_path, capsys):
    code = run_cli("generate", "--family", "complete", "--points", 30,
                   "--out", tmp_path / "x.json")
    assert code == 2
    assert "capped" in capsys.readouterr().err


# --- subcommands ---------------------------------------------------------------

def test_dim_subcommand(thr_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("dim", "--input", thr_file, "--kind", "ldim",
                   "--tolerance", 0, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["aggregates"]["value"] == 2
    assert doc["aggregates"]["log_star_of_value"] == 1


def test_dim_writes_certificate(thr_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli("dim", "--input", thr_file, "--certificate-out", cert_path)
    assert classfile.load_certificate(cert_path).height == 2


def test_soa_subcommand(thr_file, tmp_path):
    seq = tmp_path / "seq.json"
    classfile.save_sequence([0, 1, 2, 3], [1, 1, 2, 2], seq)
    out = tmp_path / "r.json"
    code = run_cli("soa", "--input", thr_file, "--tolerance", 0,
                   "--sequence", seq, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["aggregates"]["mistakes"] <= 2
    assert doc["verdicts"][0]["passed"]


def test_adversary_subcommand(thr_file, tmp_path):
    out = tmp_path / "r.json"
    curve = tmp_path / "curve.csv"
    code = run_cli("adversary", "--input", thr_file, "--learner", "const:1",
                   "--plot-data", curve, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["aggregates"]["mistakes"] >= 2
    lines = curve.read_text().strip().splitlines()
    assert lines[0].startswith("round,")
    assert len(lines) == doc["aggregates"]["mistakes"] + 1


def test_thresholds_subcommand_round_trips(thr_file, tmp_path):
    fam_path = tmp_path / "fam.json"
    code = run_cli("thresholds", "--input", thr_file, "--tolerance", 0,
                   "--out", fam_path)
    assert code == 0
    fam = classfile.load_family(fam_path)
    assert verify_thresholds(fam).ok


def test_gs_subcommand(tmp_path):
    cls = tmp_path / "c.json"
    classfile.save_class(constants_class(3, 3), cls)
    out = tmp_path / "r.json"
    code = run_cli("gs", "--input", cls, "--target", 0, "--alpha", 0.1,
                   "--trials", 200, "--seed", 7, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(v["passed"] for v in doc["verdicts"])


def test_dp_learn_subcommand(tmp_path):
    cls = tmp_path / "c.json"
    classfile.save_class(constants_class(3, 3), cls)
    out = tmp_path / "r.json"
    code = run_cli("dp-learn", "--input", cls, "--target", 0,
                   "--epsilon", 0.5, "--delta", 0.01, "--alpha", 0.2,
                   "--beta", 0.2, "--seed", 4, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    names = {v["name"]: v["passed"] for v in doc["verdicts"]}
    assert names["dp-budget"] and names["dp-list-size"]


def test_sampler_runs_past_64_rows(tmp_path, point_class):
    cls = tmp_path / "points64.json"
    classfile.save_class(point_class(64), cls)   # 65 rows
    common = ["--input", cls, "--target", 1, "--seed", 1]
    for command, argv in [
            ("gs", ["--trials", 20, "--alpha", 0.2]),
            ("dp-learn", ["--epsilon", 0.9, "--delta", 0.1, "--beta", 0.5,
                          "--alpha", 0.9])]:
        out = tmp_path / f"{command}.json"
        assert run_cli(command, *common, *argv, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"] and all(v["passed"] for v in doc["verdicts"])
        if command == "gs":
            assert doc["aggregates"]["fail_count"] < 20


@pytest.mark.parametrize("past_end", [False, True])
def test_target_row_outside_class_exits_2(tmp_path, capsys, past_end):
    # row -1 must not wrap to the last row, nor row `rows` crash as IndexError
    mc = tmp_path / "thr.json"
    classfile.save_class(threshold_class(3), mc)          # 4 rows
    real = tmp_path / "real.json"
    classfile.save_class(RealFunctionClass([[0.0, 0.5], [1.0, 0.25]]), real)
    dp = ["--epsilon", 0.5, "--delta", 0.01, "--beta", 0.2]
    common = ["--alpha", 0.2, "--seed", 1, "--out", tmp_path / "r.json"]
    for argv, rows in [(["gs", "--input", mc, "--trials", 5], 4),
                       (["dp-learn", "--input", mc, *dp], 4),
                       (["dp-learn", "--input", real, "--gamma", 0.5, *dp], 2)]:
        target = rows if past_end else -1
        assert run_cli(*argv, "--target", target, *common) == 2
        assert "target row" in capsys.readouterr().err


def test_float_labels_in_class_file_exit_2(tmp_path, capsys):
    cls = tmp_path / "frac.json"
    cls.write_text(json.dumps({"format": classfile.CLASS_FORMAT,
                               "kind": "multiclass", "K": 2,
                               "domain_size": 2, "rows": [[1.7, 2.2]]}))
    assert run_cli("dim", "--input", cls) == 2
    assert "labels must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("example", [[0, 1.5], [0.5, 1]])
def test_fractional_sequence_exits_2(tmp_path, capsys, example):
    cls = tmp_path / "c.json"
    classfile.save_class(HypothesisClass(2, [[1, 2], [2, 1]]), cls)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"format": classfile.SEQ_FORMAT,
                               "examples": [[1, 2], example]}))
    with pytest.raises(ValueError):
        classfile.load_sequence(seq)
    assert run_cli("soa", "--input", cls, "--sequence", seq,
                   "--out", tmp_path / "r.json") == 2
    assert "not a pair of integers" in capsys.readouterr().err


SEQ = classfile.SEQ_FORMAT
CLASS = classfile.CLASS_FORMAT
CERT = classfile.CERT_FORMAT


@pytest.mark.parametrize("command, doc, key", [
    ("soa", {"format": SEQ, "examples": 5}, "'examples' must be a list"),
    ("soa", {"format": SEQ}, "'examples' must be a list, found no such key"),
    ("soa", {"format": SEQ, "examples": [[0, 1], [2]]}, "[x, y] pairs"),
    ("dim", {"format": CLASS, "kind": "multiclass", "K": 2,
             "domain_size": 2}, "'rows' must be a list, found no such key"),
    ("dim", {"format": CLASS, "kind": "multiclass", "K": 2, "domain_size": 2,
             "rows": 5}, "'rows' must be a list"),
    ("dim", {"format": CLASS, "kind": "multiclass", "K": 2, "domain_size": 2,
             "rows": [5]}, "'rows' must list rows"),
    ("dim", {"format": CLASS, "kind": "multiclass", "K": 2, "domain_size": 2,
             "rows": [[True, 1], [2, 1]]}, "'rows' must list numbers"),
    ("dim", {"format": CLASS, "kind": "real", "domain_size": 2,
             "rows": [[0.5, 1e-05], [False, 0.25]]}, "'rows' must list numbers"),
    ("dim", [1, 2], "expected a JSON object"),
    ("experiment", [1, 2], "expected a JSON object"),
    ("experiment", {"command": "dim", "params": 5}, "'params' must be a JSON"),
    ("soa", {"format": SEQ, "examples": [[True, 1], [0, True]]},
     "example (True, 1) is not a pair of integers"),
    ("thresholds", {"format": CERT, "params": {}, "kind": "multiclass",
                    "left_label": [1], "right_label": [2]},
     "'x' must be a list, found no such key"),
    *(("thresholds", {"format": CERT, "params": {}, "kind": "multiclass", **lists},
       key) for lists, key in [
        ({"x": [0, 1], "left_label": [1, 1], "right_label": [2, 2]},
         "2 nodes do not make a complete tree"),
        ({"x": [0, 1, 1], "left_label": [1, 1, 1], "right_label": [2, 2]},
         "arrays must be 1-D of one length"),
        ({"x": [0, 1, 1], "left_label": [1, True, 1], "right_label": [2, 2, 2]},
         "'left_label' must list numbers of type int"),
        ({"x": [False], "left_label": [1], "right_label": [2]},
         "'x' must list numbers of type int"),
        ({"x": [0, 1, 2**64], "left_label": [1, 1, 1], "right_label": [2, 2, 2]},
         "does not fit in 64 bits"),
        ({"x": [0], "left_label": [2**64], "right_label": [2]},
         "does not fit in 64 bits")]),
    ("thresholds", {"format": "certfile/1", "params": {}, "kind": "multiclass",
                    "height": 1, "root": {"x": 0, "left_label": 1,
                                          "right_label": 2, "left": None,
                                          "right": None}},
     "expected format 'certfile/2', found 'certfile/1'"),
    *((command, b'{"format": "\xff"}', "can't decode byte 0xff")
      for command in ("dim", "soa", "experiment")),
    ("dim", b'{"format": "classfile/1"', "Expecting ',' delimiter"),
], ids=["examples-int", "no-examples", "examples-not-pairs", "no-rows",
        "rows-int", "row-int", "rows-bool", "real-rows-bool", "class-list", "config-list", "params-int",
        "examples-bool", "certificate-no-x", "certificate-length-2",
        "certificate-unequal-lengths", "certificate-bool-label",
        "certificate-bool-x", "certificate-x-2**64",
        "certificate-label-2**64", "certificate-version-1", "class-not-utf8",
        "sequence-not-utf8", "config-not-utf8", "class-not-json"])
def test_malformed_documents_exit_2(thr_file, tmp_path, capsys, command, doc,
                                    key):
    bad = tmp_path / "bad.json"
    if isinstance(doc, bytes):
        bad.write_bytes(doc)
    else:
        bad.write_text(json.dumps(doc))
    argv = {"soa": ["--input", thr_file, "--sequence", bad],
            "dim": ["--input", bad],
            "experiment": ["--config", bad],
            "thresholds": ["--input", thr_file, "--certificate", bad]}[command]
    assert run_cli(command, *argv, "--out", tmp_path / "r.json") == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and key in err


@pytest.mark.parametrize("argv, message", [
    (["dim", "--kind", "fat", "--gamma", "nan"],
     "gamma must be positive, got nan"),
    (["thresholds", "--gamma", "nan"], "gamma must be positive, got nan"),
    (["dp-learn", "--gamma", "nan", "--target", 0, "--epsilon", 0.5,
      "--delta", 0.01, "--alpha", 0.2, "--beta", 0.2, "--seed", 1],
     "gamma must lie in (0, 2], got nan"),
    (["check", "--scales=-0.5"], "radius must be >= 0, got -0.5"),
    (["check", "--scales=0.5,nan"], "radius must be >= 0, got nan"),
    (["dim", "--kind", "fat", "--gamma", "inf"], "gamma must be finite, got inf"),
    (["dim", "--kind", "fat", "--gamma", "1e-10"],
     "gamma must exceed the two-sided witness slack"),
    (["thresholds", "--gamma", 150], "gamma must lie in (0, 100], got 150.0"),
], ids=["dim-fat", "thresholds", "dp-learn", "check-negative", "check-nan",
        "dim-fat-inf", "dim-fat-slack", "thresholds-above-100"])
def test_nan_or_negative_scale_exits_2(tmp_path, capsys, argv, message):
    real = tmp_path / "real.json"
    classfile.save_class(RealFunctionClass([[0.0, 0.5], [1.0, 0.25]]), real)
    assert run_cli(argv[0], "--input", real, *argv[1:],
                   "--out", tmp_path / "r.json") == 2
    assert message in capsys.readouterr().err


def test_unbalanced_class_past_recursion_limit_exits_0(tmp_path, unbalanced_pairs):
    # the dimension search descends past this lowered limit on its own stack
    cls, out = tmp_path / "pairs.json", tmp_path / "r.json"
    classfile.save_class(unbalanced_pairs, cls)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        code = run_cli("dim", "--input", cls, "--out", out)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert json.loads(out.read_text())["aggregates"]["value"] == 2


def test_deep_certificate_exits_2(thr_file, tmp_path, capsys):
    # a list nested 3,000 deep: the JSON decoder recurses once per level, so
    # the load fails at any depth past the limit
    cert = tmp_path / "deep.json"
    cert.write_text(f'{{"format": "{classfile.CERT_FORMAT}", "params": {{}}, '
                    '"kind": "multiclass", "left_label": [1], "right_label": [2], '
                    '"x": ' + "[" * 3000 + "0" + "]" * 3000 + "}")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        code = run_cli("thresholds", "--input", thr_file, "--certificate", cert,
                       "--tolerance", 0, "--out", tmp_path / "fam.json")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cert}: " in err and "recursion limit" in err


def test_deep_class_file_exits_2(tmp_path, capsys):
    cls = tmp_path / "deep.json"
    cls.write_text('{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert run_cli("dim", "--input", cls, "--out", tmp_path / "r.json") == 2
    err = capsys.readouterr().err
    assert f"{cls}: " in err and "recursion limit" in err


def test_check_subcommand_exit_code(tmp_path):
    cls = tmp_path / "c.json"
    classfile.save_class(RealFunctionClass([[1.0 if j == i else 0.0
                                             for j in range(3)]
                                            for i in range(3)]), cls)
    assert run_cli("check", "--input", cls, "--scales", "0.5") == 1
    cls2 = tmp_path / "c2.json"
    classfile.save_class(RealFunctionClass([[-1.0], [1.0]]), cls2)
    assert run_cli("check", "--input", cls2, "--scales", "2.0") == 0


def test_experiment_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "gs",
        "class": {"generator": {"family": "constants", "points": 3, "labels": 3}},
        "params": {"target": 0, "alpha": 0.1, "trials": 100},
        "seed": 11,
        "out": str(tmp_path / "rep.json"),
    }))
    assert run_cli("experiment", "--config", cfg) == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["command"] == "gs"


def test_experiment_rejects_unknown_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "bogus"}))
    assert run_cli("experiment", "--config", cfg) == 2
    assert ("error: experiment: config field 'command' is invalid: 'bogus'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, config, message", [
    (["dim", "--kind", "fat", "--gamma", "0.5", "--input", "{mc}"], None,
     "dim: {mc} is not a real-valued class file"),
    (["adversary", "--input", "{mc}", "--learner", "constant"], None,
     "adversary: unknown learner 'constant'"),
    (["dim", "--kind", "fat", "--input", "{real}"], None,
     "dim: --gamma is required for fat"),
    (["experiment"], {"command": "dim",
                      "class": {"generator": {"family": "nope", "points": 3}}},
     "experiment: unknown family 'nope'"),
    (["experiment"], {"command": "dim", "class": {"generator": {
        "family": "threshold", "points": 3, "colour": "red"}}},
     "experiment: unknown generator fields ['colour']"),
    (["experiment"], {"command": "gs", "params": {"bogus": 1}},
     "experiment: invalid parameters for 'gs': the following arguments are "
     "required: --input, --target, --alpha, --trials, --seed "
     "(params {{'bogus': 1}})"),
    (["experiment"], {"command": "gs", "params": {"trials": "many"}},
     "experiment: invalid parameters for 'gs': argument --trials: invalid "
     "int value: 'many'"),
], ids=["class-kind", "learner", "fat-without-gamma", "family",
        "generator-fields", "experiment-parameters", "experiment-trials"])
def test_bad_arguments_exit_2(tmp_path, capsys, argv, config, message):
    paths = {"mc": tmp_path / "thr.json", "real": tmp_path / "real.json"}
    classfile.save_class(threshold_class(3), paths["mc"])
    classfile.save_class(RealFunctionClass([[0.0, 0.5], [1.0, 0.25]]),
                         paths["real"])
    if config is not None:
        paths["cfg"] = tmp_path / "cfg.json"
        paths["cfg"].write_text(json.dumps(config))
        argv = argv + ["--config", "{cfg}"]
    argv = [a.format(**paths) for a in argv]
    assert run_cli(*argv, "--out", tmp_path / "r.json") == 2
    err = capsys.readouterr().err
    # one line: no argparse usage block
    assert err.count("\n") == 1 and f"error: {message.format(**paths)}" in err


def test_reports_deterministic_up_to_wall_clock(tmp_path):
    cls = tmp_path / "c.json"
    classfile.save_class(constants_class(3, 3), cls)
    docs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run_cli("gs", "--input", cls, "--target", 0, "--alpha", 0.1,
                "--trials", 100, "--seed", 3, "--out", out)
        doc = json.loads(out.read_text())
        doc.pop("wall_clock_s")
        docs.append(doc)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("seed, digest", [
    (3, "6e54ed0add7dcc762a5a7215dd12ee2fffaa79870455663fadc712bc71b13ca2"),
    (8, "2975608ba65c7683ac57f58e76fd3c95a2016b358c01831e7361af3a87cf03f0"),
])
def test_gs_report_is_pinned(tmp_path, monkeypatch, seed, digest):
    # threshold_class(7), target 4: tournaments succeed below the top k and
    # fail at it, so the sampler's rejection, acceptance and Fail paths all
    # feed the report; a speedup must leave these bytes alone
    monkeypatch.chdir(tmp_path)
    classfile.save_class(threshold_class(7), "thr.json")
    assert run_cli("gs", "--input", "thr.json", "--target", 4, "--alpha", 0.1,
                   "--trials", 40, "--seed", seed, "--out", "gs.json") == 0
    doc = json.loads((tmp_path / "gs.json").read_text())
    doc.pop("wall_clock_s")
    text = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("cls, flags, digest", [
    (threshold_class(63), ["--kind", "ldim", "--tolerance", 0],
     "d16e44107d378260b9741ee49d262d9302ef869d4d99adacbc0a60014862b371"),
    (random_multiclass(40, 8, 4, 3), ["--kind", "ldim", "--tolerance", 1],
     "f1983522664604d72caf975f07bc85680d827dbec287dd8c67b911db56913d0d"),
    (random_real(20, 6, 0.25, 3), ["--kind", "fat", "--gamma", 0.25],
     "056678a154555ae74d81e74d25800168cb526e890b72dd9fcd3c0e342628b251"),
    (random_real(13, 6, 0.25, 3), ["--kind", "pdim"],
     "51a00253eb01c8337fe0100e0ab4ef7aecc40eeee0dc0518664ac7c66474b945"),
], ids=["ldim-threshold63", "ldim-tau1-random", "fat", "pdim"])
def test_dim_report_and_certificate_are_pinned(tmp_path, monkeypatch, cls,
                                               flags, digest):
    # the certificate's tie-breaks follow split-list order; a change to the
    # dimension engine must leave these bytes alone
    monkeypatch.chdir(tmp_path)
    classfile.save_class(cls, "cls.json")
    assert run_cli("dim", "--input", "cls.json", *flags,
                   "--certificate-out", "cert.json", "--out", "dim.json") == 0
    doc = json.loads((tmp_path / "dim.json").read_text())
    doc.pop("wall_clock_s")
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    h.update((tmp_path / "cert.json").read_bytes())
    assert h.hexdigest() == digest


def test_report_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TOLERANTLEARN_REPORT_DIR", str(tmp_path / "reports"))
    cls = tmp_path / "c.json"
    classfile.save_class(constants_class(2, 2), cls)
    run_cli("dim", "--input", cls)
    written = list((tmp_path / "reports").glob("dim-*.json"))
    assert len(written) == 1


def test_console_entry_point(tmp_path):
    cls = tmp_path / "c.json"
    classfile.save_class(threshold_class(3), cls)
    proc = subprocess.run(
        [sys.executable, "-m", "tolerantlearn", "dim", "--input", str(cls)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "value: 2" in proc.stdout
