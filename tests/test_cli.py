import json
import subprocess
import sys

import pytest

from tolerantlearn import classfile
from tolerantlearn.classes import HypothesisClass, RealFunctionClass, make_sample
from tolerantlearn.cli import main
from tolerantlearn.generators import (complete_binary, constants_class,
                                      random_real, threshold_class)
from tolerantlearn.thresholds import verify_thresholds
from tolerantlearn.trees import threshold_class_certificate


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
    seq = make_sample([(0, 1), (2, 2)])
    path = tmp_path / "s.json"
    classfile.save_sequence(seq, path)
    assert classfile.load_sequence(path) == seq


def test_certificate_round_trip(tmp_path):
    cert = threshold_class_certificate(4)
    path = tmp_path / "cert.json"
    classfile.save_certificate(cert, path, params={"tau": 0})
    back = classfile.load_certificate(path)
    assert back.height == cert.height
    from tolerantlearn.trees import tree_to_dict
    assert tree_to_dict(back) == tree_to_dict(cert)


def test_generated_class_files_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("generate", "--family", "random-real", "--functions", 4,
            "--points", 3, "--grid", 0.25, "--seed", 7, "--out", a)
    run_cli("generate", "--family", "random-real", "--functions", 4,
            "--points", 3, "--grid", 0.25, "--seed", 7, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_requires_seed_for_random(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("generate", "--family", "random-real", "--points", 3,
                "--out", tmp_path / "x.json")


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
    classfile.save_sequence(make_sample([(0, 1), (1, 1), (2, 2), (3, 2)]), seq)
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


def test_sampler_rejects_more_than_64_rows(tmp_path, capsys):
    cls = tmp_path / "thr64.json"
    classfile.save_class(threshold_class(64), cls)   # 65 rows
    common = ["--input", cls, "--target", 0, "--alpha", 0.2, "--seed", 1,
              "--out", tmp_path / "r.json"]
    assert run_cli("gs", "--trials", 5, *common) == 2
    assert "uint64 consistency LUT" in capsys.readouterr().err
    assert run_cli("dp-learn", "--epsilon", 0.5, "--delta", 0.01,
                   "--beta", 0.2, *common) == 2
    assert "uint64 consistency LUT" in capsys.readouterr().err


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


def test_experiment_rejects_unknown_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "bogus"}))
    with pytest.raises(SystemExit, match="command"):
        run_cli("experiment", "--config", cfg)


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
