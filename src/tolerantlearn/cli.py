"""Command-line experiment harness.

Subcommands: dim, soa, adversary, thresholds, gs, dp-learn, check, generate,
experiment.  The parser is the one description of each subcommand: a
report's config is the parsed namespace less its output paths, whose dests
end in `out`, and an experiment config runs through the same parser.  Every
randomized run takes an explicit seed; reports are JSON documents written
to --out (or to $TOLERANTLEARN_REPORT_DIR), except that the --out of
thresholds is the family file and that of generate the class file.  The
exit code is 0 iff every verdict in the run passed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
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
                      private_learn_reg)
from .reports import RunReport, binomial_slack, write_report
from .stability import estimate_stability, stability_eta
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
        digits = spec[len("const:"):]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"--learner const:<k> needs k in decimal digits, "
                             f"got {digits!r}")
        k = int(digits)
        if not 1 <= k <= H.K:
            raise ValueError(f"const:<k> needs a label k in 1..{H.K}, got {k}")
        return ConstantLearner(k)
    raise ValueError(f"unknown learner {spec!r} "
                     "(use soa, majority, or const:<k>)")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a RunReport
# ---------------------------------------------------------------------------

def _report(args) -> RunReport:
    """An empty report whose config is every input option of the run: the
    parsed namespace less `command` and the output paths, whose dests all
    end in `out`."""
    return RunReport(args.command, {k: v for k, v in vars(args).items()
                                    if k != "command" and not k.endswith("out")})


def cmd_dim(args) -> RunReport:
    if args.gamma is not None and args.kind != "fat":
        raise ValueError(f"--gamma is read only by --kind fat, not {args.kind}")
    if args.tolerance and args.kind != "ldim":
        raise ValueError(f"--tolerance is read only by --kind ldim, not {args.kind}")
    report = _report(args)
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
    report = _report(args)
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
    if args.plot_out:
        _mistake_curve(t, args.plot_out)
    return report


def cmd_adversary(args) -> RunReport:
    H = _load_class(args.input)
    learner = _make_learner(args.learner, H, args.tolerance)
    t = adversary_force(H, args.tolerance, learner)
    bound = ldim_value(H, 2 * args.tolerance)
    report = _report(args)
    report.records = [{"x": r.x, "y_hat": r.y_hat, "y": r.y,
                       "mistake": r.mistake} for r in t.rounds]
    report.aggregates = {"mistakes": t.mistakes, "ldim_2tau": bound}
    report.add_verdict("adversary-forcing",
                       f"mistakes >= Ldim_2tau = {bound}",
                       t.mistakes, t.mistakes >= bound)
    if args.plot_out:
        _mistake_curve(t, args.plot_out)
    return report


def cmd_thresholds(args) -> RunReport:
    report = _report(args)
    if args.gamma is not None:
        if args.certificate:
            raise ValueError("--certificate is read only without --gamma")
        if args.tolerance:
            raise ValueError("--tolerance is read only without --gamma")
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
    if args.family_out:
        classfile.save_family(fam, args.family_out)
    return report


def cmd_gs(args) -> RunReport:
    H = _load_class(args.input)
    D = FiniteDistribution.uniform(H, args.target)
    est = estimate_stability(H, D, args.alpha, args.trials, args.seed)
    eta = stability_eta(H.K, est.d)
    slack = binomial_slack(eta, args.trials)
    report = _report(args)
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
    # no frequency fails unless eta - slack > 0, i.e. trials > 9 (1 - eta) / eta
    if eta > slack:
        report.add_verdict("gs-frequency",
                           f"modal frequency >= eta - slack = {eta - slack:.6f}",
                           est.frequency, est.frequency >= eta - slack)
    report.add_verdict("gs-loss", f"population loss <= alpha = {args.alpha}",
                       est.population_loss,
                       est.population_loss is not None
                       and est.population_loss <= args.alpha)
    if args.plot_out:
        _frequency_histogram(est, args.plot_out)
    return report


def cmd_dp_learn(args) -> RunReport:
    priv = PrivacyParams(args.epsilon, args.delta)
    report = _report(args)
    if args.gamma is not None:
        F = _load_class(args.input, RealFunctionClass)
        D = FiniteDistribution.uniform(F, args.target)
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
        "ledger": res.ledger,
        "diagnostics": res.diagnostics,
    }
    report.add_verdict("dp-loss", f"population loss <= {loss_bound}",
                       loss, loss is not None and loss <= loss_bound)
    report.add_verdict("dp-list-size",
                       f"pruned list <= 2/eta = {2.0 / res.eta:.1f}, exceeded "
                       f"only if noise lifts more than 2/eta distinct outputs "
                       f"above 0.75 eta",
                       res.pruned_list_size,
                       res.pruned_list_size <= 2.0 / res.eta)
    return report


def cmd_check(args) -> RunReport:
    F = _load_class(args.input, RealFunctionClass)
    rep = check_conditions(F, args.scales)
    report = _report(args)
    report.aggregates = {
        "class_size": F.num_rows,
        "domain_size": F.domain_size,
        "range_values": rep.range_values,
        "covers": [dataclasses.asdict(c) for c in rep.cover_scales],
        "pdim": rep.pdim_report.value,
    }
    report.add_verdict("condition-3", "one row, or least sup-distance between "
                       f"rows <= min scale = {rep.cover_scales[0].radius}",
                       rep.min_distance, rep.cond3_holds)
    return report


GENERATORS = {
    "complete": lambda a: generators.complete_binary(a.points),
    "threshold": lambda a: generators.threshold_class(a.points),
    "constants": lambda a: generators.constants_class(a.labels, a.points),
    "random-mc": lambda a: generators.random_multiclass(a.functions, a.points,
                                                        a.labels, a.seed),
    "random-real": lambda a: generators.random_real(a.functions, a.points,
                                                    a.grid, a.seed),
}


def cmd_generate(args) -> RunReport:
    if args.family.startswith("random-") and args.seed is None:
        raise ValueError("--seed is mandatory for randomized generators")
    cls = GENERATORS[args.family](args)
    classfile.save_class(cls, args.class_out)
    report = _report(args)
    report.aggregates = {"rows": cls.num_rows, "domain_size": cls.domain_size}
    return report


def cmd_experiment(args) -> RunReport:
    cfg = classfile.read_json_object(args.config)
    command = cfg.get("command")
    # an experiment config naming itself would recurse without end
    handler = HANDLERS.get(command) if command != "experiment" else None
    if handler is None:
        raise ValueError(f"config field 'command' is invalid: {command!r}")
    source = _config_object(args.config, cfg, "class")
    params = {**{k: cfg[k] for k in ("seed", "out", "plot_data")
                 if k in cfg and _takes(command, k)},
              **_config_object(args.config, cfg, "params")}
    class_path = str(Path(args.config).with_suffix(".class.json"))
    if "generator" in source:
        params["input"] = class_path
    elif "file" in source:
        params["input"] = source["file"]
    ns = _namespace_for(command, params)    # before the class file is written
    if "generator" in source:
        gen = _config_object(args.config, source, "generator")
        cmd_generate(_namespace_for("generate", {"seed": cfg.get("seed"), **gen,
                                                 "out": class_path}))
    report = handler(ns)
    report.config = {"config_file": args.config, **cfg}
    if args.out is None:
        args.out = getattr(ns, "out", None)
    return report


def _config_object(path, doc: dict, key: str) -> dict:
    """doc[key], {} when absent; ValueError unless it is a JSON object."""
    val = doc.get(key, {})
    if not isinstance(val, dict):
        raise ValueError(f"{path}: key {key!r} must be a JSON object, "
                         f"found {type(val).__name__}")
    return val


def _takes(command: str, key: str) -> bool:
    """Whether the parser of `command` defines the option --key."""
    sub = next(a for a in _shared_parser()._actions if a.dest == "command")
    options = sub.choices[command]._option_string_actions
    return f"--{key.replace('_', '-')}" in options


def _namespace_for(command: str, params: dict) -> argparse.Namespace:
    """What the parser makes of `command --key=value ...` for the non-null
    params, `_` in a key read as `-`.  In the `=` form a value is never
    taken for an option, and an option that takes no value, such as
    --help, is an error rather than an action that prints and exits 0."""
    argv = [command] + [f"--{key.replace('_', '-')}={val}"
                        for key, val in params.items() if val is not None]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return _shared_parser().parse_args(argv)
    except SystemExit:
        reason = err.getvalue().partition(": error: ")[2].strip()
        raise ValueError(f"invalid parameters for {command!r}: {reason} "
                         f"(params {params})") from None


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


def float_list(text: str) -> list:
    return [float(s) for s in text.split(",")]


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
    s.add_argument("--plot-data", dest="plot_out")
    s.add_argument("--out")

    a = sub.add_parser("adversary", help="force mistakes from a learner")
    a.add_argument("--input", required=True)
    a.add_argument("--tolerance", type=int, default=0)
    a.add_argument("--learner", default="soa")
    a.add_argument("--plot-data", dest="plot_out")
    a.add_argument("--out")

    t = sub.add_parser("thresholds", help="extract a threshold family")
    t.add_argument("--input", required=True)
    t.add_argument("--tolerance", type=int, default=0)
    t.add_argument("--gamma", type=float)
    t.add_argument("--certificate")
    t.add_argument("--out", dest="family_out")

    g = sub.add_parser("gs", help="estimate the stable-learner guarantee")
    g.add_argument("--input", required=True)
    g.add_argument("--target", type=int, required=True)
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--trials", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--plot-data", dest="plot_out")
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

    c = sub.add_parser("check", help="sufficient condition 3 (sup-norm covers)")
    c.add_argument("--input", required=True)
    c.add_argument("--scales", type=float_list, default="0.1,0.25,0.5")
    c.add_argument("--out")

    ge = sub.add_parser("generate", help="write a class file")
    ge.add_argument("--family", required=True, choices=GENERATORS)
    ge.add_argument("--points", type=int, required=True)
    ge.add_argument("--labels", type=int, default=2)
    ge.add_argument("--functions", type=int, default=4)
    ge.add_argument("--grid", type=float, default=0.25)
    ge.add_argument("--seed", type=int)
    ge.add_argument("--out", dest="class_out", required=True)

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
        report.wall_clock_s = time.monotonic() - start
        print(report.render())
        path = write_report(report, getattr(args, "out", None))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    if path:
        print(f"report written to {path}")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
