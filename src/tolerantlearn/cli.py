"""Command-line experiment harness.

Subcommands: dim, soa, adversary, thresholds, gs, dp-learn, check, generate,
experiment.  Every randomized run takes an explicit seed; reports are JSON
documents written to --out (or to $TOLERANTLEARN_REPORT_DIR).  The exit code
is 0 iff every verdict in the run passed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import classfile, generators
from .classes import (AbsoluteLoss, FiniteDistribution, HypothesisClass,
                      RealFunctionClass, TolerantZeroOne, evaluate_loss)
from .dimensions import fat_gamma, ldim_tau, ldim_value, log_star, pdim
from .online import (ConstantLearner, MajorityLearner, SoaLearner,
                     adversary_force, soa_run)
from .privacy import (PrivacyParams, check_conditions, private_learn_mc,
                      private_learn_reg, stability_eta)
from .reports import RunReport, binomial_slack, write_report
from .stability import estimate_stability
from .thresholds import extract_thresholds_mc, extract_thresholds_reg, verify_thresholds
from .trees import tree_to_dict


def _load_class(path, kind=HypothesisClass):
    """The class file at `path`, which must hold a class of type `kind`."""
    cls = classfile.load_class(path)
    if not isinstance(cls, kind):
        what = "multiclass" if kind is HypothesisClass else "real-valued"
        raise ValueError(f"{path} is not a {what} class file")
    return cls


def _make_learner(spec: str, H: HypothesisClass, tau: int):
    if spec == "soa":
        return SoaLearner(H, tau)
    if spec == "majority":
        return MajorityLearner(H)
    if spec.startswith("const:"):
        return ConstantLearner(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown learner {spec!r} "
                     "(use soa, majority, or const:<k>)")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a RunReport
# ---------------------------------------------------------------------------

def cmd_dim(args) -> RunReport:
    report = RunReport("dim", {"input": args.input, "kind": args.kind,
                               "tolerance": args.tolerance, "gamma": args.gamma})
    if args.kind == "ldim":
        H = _load_class(args.input)
        res = ldim_tau(H, args.tolerance)
    elif args.kind == "fat":
        if args.gamma is None:
            raise ValueError("--gamma is required for fat")
        res = fat_gamma(_load_class(args.input, RealFunctionClass), args.gamma)
    else:
        res = pdim(_load_class(args.input, RealFunctionClass))
    report.aggregates = {
        "value": res.value,
        "params": res.params,
        "log_star_of_value": log_star(res.value),
        "private_sample_lower_bound": f"Omega(log* d) = Omega({log_star(res.value)})",
    }
    report.records = [tree_to_dict(res.certificate)]
    if args.certificate_out:
        classfile.save_certificate(res.certificate, args.certificate_out,
                                   params=res.params)
    return report


def cmd_soa(args) -> RunReport:
    H = _load_class(args.input)
    xs, ys = classfile.load_sequence(args.sequence)
    t = soa_run(H, args.tolerance, xs, ys)
    report = RunReport("soa", {"input": args.input, "tolerance": args.tolerance,
                               "sequence": args.sequence})
    report.records = [{"x": r.x, "y_hat": r.y_hat, "y": r.y,
                       "mistake": r.mistake} for r in t.rounds]
    bound = ldim_value(H, args.tolerance)
    report.aggregates = {
        "mistakes": t.mistakes,
        "ldim_tau": bound,
        "vs_sizes": t.vs_sizes,
        "final_predictor": list(t.final_predictor),
        "realizable": t.break_round is None,
        "break_round": t.break_round,
    }
    if t.break_round is None:
        report.add_verdict("soa-mistake-bound",
                           f"mistakes <= Ldim_tau = {bound}",
                           t.mistakes, t.mistakes <= bound)
    if args.plot_data:
        _mistake_curve(t, args.plot_data)
    return report


def cmd_adversary(args) -> RunReport:
    H = _load_class(args.input)
    learner = _make_learner(args.learner, H, args.tolerance)
    t = adversary_force(H, args.tolerance, learner)
    bound = ldim_value(H, 2 * args.tolerance)
    report = RunReport("adversary", {"input": args.input,
                                     "tolerance": args.tolerance,
                                     "learner": args.learner})
    report.records = [{"x": r.x, "y_hat": r.y_hat, "y": r.y,
                       "mistake": r.mistake} for r in t.rounds]
    report.aggregates = {"mistakes": t.mistakes, "ldim_2tau": bound}
    report.add_verdict("adversary-forcing",
                       f"mistakes >= Ldim_2tau = {bound}",
                       t.mistakes, t.mistakes >= bound)
    if args.plot_data:
        _mistake_curve(t, args.plot_data)
    return report


def cmd_thresholds(args) -> RunReport:
    report = RunReport("thresholds", {"input": args.input,
                                      "tolerance": args.tolerance,
                                      "gamma": args.gamma, "out": args.out})
    if args.gamma is not None:
        F = _load_class(args.input, RealFunctionClass)
        fam, trace = extract_thresholds_reg(F, args.gamma)
    else:
        H = _load_class(args.input)
        tree = (classfile.load_certificate(args.certificate)
                if args.certificate else None)
        fam, trace = extract_thresholds_mc(H, args.tolerance, tree=tree)
    check = verify_thresholds(fam)
    report.aggregates = {
        "family_size": len(fam),
        "kind": fam.kind,
        "labels_or_bounds": fam.labels or fam.bounds,
        "steps": trace.pairs,
        "step_heights": trace.heights,
    }
    report.add_verdict("family-verifier", "definitional two-block pattern",
                       check.message, check.ok)
    if args.out:
        classfile.save_family(fam, args.out)
        args.out = None  # --out is the family file, not the report
    return report


def cmd_gs(args) -> RunReport:
    H = _load_class(args.input)
    D = FiniteDistribution.uniform(H, args.target)
    est = estimate_stability(H, D, args.alpha, args.trials, args.seed)
    d = ldim_value(H, 0)
    eta = stability_eta(H.K, d)
    slack = binomial_slack(eta, args.trials)
    report = RunReport("gs", {"input": args.input, "target": args.target,
                              "alpha": args.alpha, "trials": args.trials,
                              "seed": args.seed})
    report.records = [{"table": list(t), "count": c}
                      for t, c in sorted(est.counts.items())]
    report.aggregates = {
        "modal_table": list(est.modal_table) if est.modal_table else None,
        "modal_frequency": est.frequency,
        "population_loss": est.population_loss,
        "fail_count": est.fail_count,
        "fail_rate": est.fail_rate,
        "eta": eta,
        "slack_3sigma": slack,
    }
    report.add_verdict("gs-frequency",
                       f"modal frequency >= eta - slack = {eta - slack:.6f}",
                       est.frequency, est.frequency >= eta - slack)
    report.add_verdict("gs-loss", f"population loss <= alpha = {args.alpha}",
                       est.population_loss,
                       est.population_loss is not None
                       and est.population_loss <= args.alpha)
    if args.plot_data:
        _frequency_histogram(est, args.plot_data)
    return report


def cmd_dp_learn(args) -> RunReport:
    priv = PrivacyParams(args.epsilon, args.delta)
    report = RunReport("dp-learn", {
        "input": args.input, "target": args.target, "epsilon": args.epsilon,
        "delta": args.delta, "alpha": args.alpha, "beta": args.beta,
        "gamma": args.gamma, "seed": args.seed})
    if args.gamma is not None:
        F = _load_class(args.input, RealFunctionClass)
        D = FiniteDistribution.from_target_row(F, args.target,
                                               np.full(F.domain_size,
                                                       1.0 / F.domain_size))
        reg = private_learn_reg(F, D, args.gamma, priv, args.alpha,
                                args.beta, args.seed)
        res = reg.pipeline
        loss = (None if reg.values is None else
                evaluate_loss(reg.values, D, AbsoluteLoss()))
        output = list(reg.values) if reg.values else None
        loss_bound = args.alpha + args.gamma / 2.0
    else:
        H = _load_class(args.input)
        D = FiniteDistribution.uniform(H, args.target)
        res = private_learn_mc(H, D, priv, args.alpha, args.beta, args.seed)
        loss = (None if res.table is None else
                evaluate_loss(np.array(res.table), D, TolerantZeroOne(0)))
        output = list(res.table) if res.table else None
        loss_bound = args.alpha
    report.aggregates = {
        "output": output,
        "population_loss": loss,
        "eta": res.eta,
        "num_batches": res.num_batches,
        "fail_batches": res.fail_batches,
        "pruned_list_size": res.pruned_list_size,
        "select_sample_size": res.select_sample_size,
        "ledger": res.ledger.entries,
        "diagnostics": {k: v for k, v in res.diagnostics.items()
                        if k != "released_estimates"},
    }
    report.add_verdict("dp-loss", f"population loss <= {loss_bound}",
                       loss, loss is not None and loss <= loss_bound)
    report.add_verdict("dp-list-size",
                       f"pruned list <= 2/eta = {2.0 / res.eta:.1f}",
                       res.pruned_list_size,
                       res.pruned_list_size <= 2.0 / res.eta)
    report.add_verdict("dp-budget",
                       f"ledger totals ({priv.eps}, {priv.delta})",
                       (res.ledger.total_eps, res.ledger.total_delta),
                       res.ledger.matches(priv))
    return report


def cmd_check(args) -> RunReport:
    F = _load_class(args.input, RealFunctionClass)
    scales = [float(s) for s in args.scales.split(",")]
    rep = check_conditions(F, scales)
    report = RunReport("check", {"input": args.input, "scales": scales})
    report.aggregates = {
        "class_size": rep.class_size,
        "domain_size": rep.domain_size,
        "range_values": rep.range_values,
        "covers": [{"radius": c.radius, "covering_number": c.covering_number,
                    "centers": c.centers, "compresses": c.compresses}
                   for c in rep.cover_scales],
        "pdim": rep.pdim_report.value,
    }
    report.add_verdict("condition-1", "class and domain finite",
                       (rep.class_size, rep.domain_size), rep.cond1_holds)
    report.add_verdict("condition-2", "finite range",
                       len(rep.range_values), rep.cond2_holds)
    report.add_verdict("condition-3",
                       "cover smaller than the class at every scale",
                       [c.covering_number for c in rep.cover_scales],
                       rep.cond3_holds)
    report.add_verdict("condition-4", "finite Pollard pseudo-dimension",
                       rep.pdim_report.value, rep.cond4_holds)
    return report


def cmd_generate(args) -> RunReport:
    fam = args.family
    if fam == "complete":
        cls = generators.complete_binary(args.points)
    elif fam == "threshold":
        cls = generators.threshold_class(args.points)
    elif fam == "constants":
        cls = generators.constants_class(args.labels, args.points)
    elif fam == "random-mc":
        _need_seed(args)
        cls = generators.random_multiclass(args.functions, args.points,
                                           args.labels, args.seed)
    elif fam == "random-real":
        _need_seed(args)
        cls = generators.random_real(args.functions, args.points,
                                     args.grid, args.seed)
    else:
        raise ValueError(f"unknown family {fam!r}")
    classfile.save_class(cls, args.out)
    report = RunReport("generate", {"family": fam, "out": args.out})
    report.aggregates = {"rows": getattr(cls, "num_rows"),
                         "domain_size": cls.domain_size}
    args.out = None  # --out is the class file, not the report
    return report


def _need_seed(args):
    if args.seed is None:
        raise ValueError("--seed is mandatory for randomized generators")


def cmd_experiment(args) -> RunReport:
    cfg = classfile.read_json_object(args.config)
    command = cfg.get("command")
    handler = HANDLERS.get(command)
    if handler is None:
        raise ValueError(f"config field 'command' is invalid: {command!r}")
    source = _config_object(args.config, cfg, "class")
    params = dict(_config_object(args.config, cfg, "params"))
    if "generator" in source:
        gen = dict(_config_object(args.config, source, "generator"))
        class_path = str(Path(args.config).with_suffix(".class.json"))
        gen_args = argparse.Namespace(
            family=gen.pop("family", None), points=gen.pop("points", None),
            labels=gen.pop("labels", None), functions=gen.pop("functions", None),
            grid=gen.pop("grid", None), seed=gen.pop("seed", cfg.get("seed")),
            out=class_path)
        if gen:
            raise ValueError(f"unknown generator fields {sorted(gen)}")
        cmd_generate(gen_args)
        params["input"] = class_path
    elif "file" in source:
        params["input"] = source["file"]
    if "seed" in cfg:
        params.setdefault("seed", cfg["seed"])
    params.setdefault("out", cfg.get("out"))
    params.setdefault("plot_data", cfg.get("plot_data"))
    ns = _namespace_for(command, params)
    report = handler(ns)
    report.config = {"config_file": args.config, **cfg}
    if getattr(args, "out", None) is None:
        args.out = params.get("out")
    return report


def _config_object(path, doc: dict, key: str) -> dict:
    """doc[key], {} when absent; ValueError unless it is a JSON object."""
    val = doc.get(key, {})
    if not isinstance(val, dict):
        raise ValueError(f"{path}: key {key!r} must be a JSON object, "
                         f"found {type(val).__name__}")
    return val


def _namespace_for(command: str, params: dict) -> argparse.Namespace:
    argv = [command]
    for key, val in params.items():
        if val is None or key == "out":
            continue
        argv.append(f"--{key.replace('_', '-')}")
        if not isinstance(val, bool):
            argv.append(str(val))
    try:
        ns = _shared_parser().parse_args(argv)
    except SystemExit:
        raise ValueError(f"invalid parameters for {command!r}: {params}") from None
    ns.out = params.get("out")
    return ns


# ---------------------------------------------------------------------------
# plot-data sidecars
# ---------------------------------------------------------------------------

def _mistake_curve(transcript, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "x", "y_hat", "y", "mistake", "cumulative_mistakes"])
        total = 0
        for i, r in enumerate(transcript.rounds):
            total += int(r.mistake)
            w.writerow([i, r.x, r.y_hat, r.y, int(r.mistake), total])


def _frequency_histogram(est, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["table", "count", "frequency"])
        for t, c in sorted(est.counts.items()):
            w.writerow(["|".join(map(str, t)), c, c / est.trials])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

HANDLERS = {
    "dim": cmd_dim, "soa": cmd_soa, "adversary": cmd_adversary,
    "thresholds": cmd_thresholds, "gs": cmd_gs, "dp-learn": cmd_dp_learn,
    "check": cmd_check, "generate": cmd_generate, "experiment": cmd_experiment,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tolerantlearn",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dim", help="dimension of a class, with certificate")
    d.add_argument("--input", required=True)
    d.add_argument("--kind", choices=["ldim", "fat", "pdim"], default="ldim")
    d.add_argument("--tolerance", type=int, default=0)
    d.add_argument("--gamma", type=float)
    d.add_argument("--certificate-out")
    d.add_argument("--out")

    s = sub.add_parser("soa", help="run the tolerant optimal learner")
    s.add_argument("--input", required=True)
    s.add_argument("--tolerance", type=int, default=0)
    s.add_argument("--sequence", required=True)
    s.add_argument("--plot-data")
    s.add_argument("--out")

    a = sub.add_parser("adversary", help="force mistakes from a learner")
    a.add_argument("--input", required=True)
    a.add_argument("--tolerance", type=int, default=0)
    a.add_argument("--learner", default="soa")
    a.add_argument("--plot-data")
    a.add_argument("--out")

    t = sub.add_parser("thresholds", help="extract a threshold family")
    t.add_argument("--input", required=True)
    t.add_argument("--tolerance", type=int, default=0)
    t.add_argument("--gamma", type=float)
    t.add_argument("--certificate")
    t.add_argument("--out")

    g = sub.add_parser("gs", help="estimate the stable-learner guarantee")
    g.add_argument("--input", required=True)
    g.add_argument("--target", type=int, required=True)
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--trials", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--plot-data")
    g.add_argument("--out")

    dp = sub.add_parser("dp-learn", help="run the private learner")
    dp.add_argument("--input", required=True)
    dp.add_argument("--target", type=int, required=True)
    dp.add_argument("--epsilon", type=float, required=True)
    dp.add_argument("--delta", type=float, required=True)
    dp.add_argument("--alpha", type=float, required=True)
    dp.add_argument("--beta", type=float, required=True)
    dp.add_argument("--gamma", type=float)
    dp.add_argument("--seed", type=int, required=True)
    dp.add_argument("--out")

    c = sub.add_parser("check", help="sufficient conditions for a real class")
    c.add_argument("--input", required=True)
    c.add_argument("--scales", default="0.1,0.25,0.5")
    c.add_argument("--out")

    ge = sub.add_parser("generate", help="write a class file")
    ge.add_argument("--family", required=True,
                    choices=["complete", "threshold", "constants",
                             "random-mc", "random-real"])
    ge.add_argument("--points", type=int, required=True)
    ge.add_argument("--labels", type=int, default=2)
    ge.add_argument("--functions", type=int, default=4)
    ge.add_argument("--grid", type=float, default=0.25)
    ge.add_argument("--seed", type=int)
    ge.add_argument("--out", required=True)

    e = sub.add_parser("experiment", help="run a config-file experiment")
    e.add_argument("--config", required=True)
    e.add_argument("--out")

    return p


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    # argparse parsers are reference cycles; building one per call leaves
    # garbage for the cyclic collector that in-process callers pile up
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    handler = HANDLERS[args.command]
    start = time.monotonic()
    try:
        report = handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    report.wall_clock_s = time.monotonic() - start
    print(report.render())
    path = write_report(report, getattr(args, "out", None))
    if path:
        print(f"report written to {path}")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
