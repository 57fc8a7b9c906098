"""Layer spans for tolerantlearn, recorded from outside the program.

Each public function on a CLI route is wrapped under the name its caller
uses: `tolerantlearn.stability.soa_final_predictor` is the name stability
calls, so the recursion of `ldim_value` inside `dimensions` stays unwrapped
and one dimension query is one span.  A function is wrapped in its own
module only where that module calls it and it never calls itself under
that name (`predictor_table`, `sample_dk_mc`, `run_g`, the histogram and
selection steps, the threshold steps).

A span is `[name, start, end, parent, op]`.  Spans stay in memory for the
whole run.  A span's self time is its duration minus its children's
durations, so the self times of one operation's spans sum to the duration
of its root `cli.main` span.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

import numpy as np

from harness import call, finish, median

# (module whose attribute is replaced, attribute, layer, time metric,
#  call-count metric or None)
TARGETS = [
    ("tolerantlearn.cli", "main", "cli", "cli.self_s", None),
    ("tolerantlearn.classfile", "load_class", "classfile", "classfile.load_s", None),
    ("tolerantlearn.classfile", "load_certificate", "classfile", "classfile.load_s", None),
    ("tolerantlearn.classfile", "save_certificate", "classfile", "classfile.save_s", None),
    ("tolerantlearn.classfile", "save_family", "classfile", "classfile.save_s", None),
    ("tolerantlearn.cli", "write_report", "reports", "reports.write_s", None),
    ("tolerantlearn.cli", "evaluate_loss", "classes", "classes.loss_s", None),
    ("tolerantlearn.stability", "evaluate_loss", "classes", "classes.loss_s", None),
    ("tolerantlearn.privacy", "evaluate_loss", "classes", "classes.loss_s", None),
    ("tolerantlearn.stability", "trial_rng", "seeding", "seeding.self_s", "seeding.streams"),
    ("tolerantlearn.privacy", "trial_rng", "seeding", "seeding.self_s", "seeding.streams"),
    ("tolerantlearn.stability", "as_generator", "seeding", "seeding.self_s", None),
    ("tolerantlearn.privacy", "as_generator", "seeding", "seeding.self_s", None),
    ("tolerantlearn.cli", "ldim_value", "dimensions", "dimensions.self_s", "dimensions.calls"),
    ("tolerantlearn.online", "ldim_value", "dimensions", "dimensions.self_s", "dimensions.calls"),
    ("tolerantlearn.stability", "ldim_value", "dimensions", "dimensions.self_s", "dimensions.calls"),
    ("tolerantlearn.privacy", "ldim_value", "dimensions", "dimensions.self_s", "dimensions.calls"),
    ("tolerantlearn.cli", "ldim_tau", "dimensions", "dimensions.self_s", "dimensions.calls"),
    ("tolerantlearn.online", "ldim_tau", "dimensions", "dimensions.self_s", "dimensions.calls"),
    ("tolerantlearn.thresholds", "ldim_tau", "dimensions", "dimensions.self_s", "dimensions.calls"),
    ("tolerantlearn.cli", "fat_gamma", "dimensions", "dimensions.self_s", "dimensions.calls"),
    ("tolerantlearn.cli", "pdim", "dimensions", "dimensions.self_s", "dimensions.calls"),
    ("tolerantlearn.privacy", "pdim", "dimensions", "dimensions.self_s", "dimensions.calls"),
    ("tolerantlearn.thresholds", "check_mc_tree", "trees", "trees.check_s", "trees.check_calls"),
    ("tolerantlearn.online", "check_mc_tree", "trees", "trees.check_s", "trees.check_calls"),
    ("tolerantlearn.stability", "soa_final_predictor", "online", "online.fold_s", "online.fold_calls"),
    ("tolerantlearn.stability", "predictor_table", "online", "online.predictor_s", "online.predictor_calls"),
    ("tolerantlearn.online", "predictor_table", "online", "online.predictor_s", "online.predictor_calls"),
    ("tolerantlearn.cli", "estimate_stability", "stability", "stability.self_s", None),
    ("tolerantlearn.stability", "run_g", "stability", "stability.self_s", None),
    ("tolerantlearn.privacy", "run_g", "stability", "stability.self_s", None),
    ("tolerantlearn.stability", "sample_dk_mc", "stability", "stability.self_s", "stability.samples"),
    ("tolerantlearn.cli", "private_learn_mc", "privacy", "privacy.self_s", None),
    ("tolerantlearn.privacy", "stable_histogram", "privacy", "privacy.hist_s", None),
    ("tolerantlearn.privacy", "generic_private_learner", "privacy", "privacy.select_s", None),
    ("tolerantlearn.cli", "extract_thresholds_mc", "thresholds", "thresholds.self_s", None),
    ("tolerantlearn.cli", "verify_thresholds", "thresholds", "thresholds.verify_s", None),
    ("tolerantlearn.thresholds", "color_and_choose", "thresholds", "thresholds.choose_s", None),
    ("tolerantlearn.thresholds", "max_mono_subtree", "thresholds", "thresholds.mono_s", None),
]

# Per-layer metrics: (name, unit, better, end-to-end metric it should move,
# workloads where the layer does most / least work).
LAYER_METRICS = [
    ("cli.self_s", "s", "lower", "op_s_p50", "all / all (small)"),
    ("cli.error_frac", "frac", "lower", "error_frac", "all / all"),
    ("cli.verdict_fail_frac", "frac", "lower", "verdict_fail_frac", "dp-mc, gs-threshold / dim-real, thresholds-cb16"),
    ("classfile.load_s", "s", "lower", "op_s_p50", "thresholds-cb16 / dp-mc"),
    ("classfile.load_mb", "MB", "lower", "peak_rss_mb", "thresholds-cb16 / dp-mc"),
    ("classfile.save_s", "s", "lower", "op_s_p50", "thresholds-cb16 / dp-mc"),
    ("reports.write_s", "s", "lower", "op_s_p50", "dim-real / thresholds-cb16"),
    ("classes.loss_s", "s", "lower", "op_s_p50", "dp-mc / dim-real"),
    ("seeding.streams", "count", "lower", "op_s_p50", "dp-mc / thresholds-cb16"),
    ("seeding.self_s", "s", "lower", "op_s_p50", "dp-mc / thresholds-cb16"),
    ("dimensions.calls", "count", "lower", "op_s_p50", "dim-real / dp-mc"),
    ("dimensions.self_s", "s", "lower", "op_s_p50", "dim-real / dp-mc"),
    ("dimensions.cert_nodes", "count", "lower", "peak_rss_mb", "dim-real / dp-mc"),
    ("trees.check_calls", "count", "lower", "op_s_p50", "thresholds-cb16 / dp-mc"),
    ("trees.check_s", "s", "lower", "op_s_p50", "thresholds-cb16 / dp-mc"),
    ("online.fold_calls", "count", "lower", "op_s_p50", "gs-threshold / dp-mc"),
    ("online.fold_s", "s", "lower", "op_s_p50", "gs-threshold / dp-mc"),
    ("online.predictor_calls", "count", "lower", "op_s_p50", "gs-threshold / dp-mc"),
    ("online.predictor_s", "s", "lower", "op_s_p50", "gs-threshold / dp-mc"),
    ("stability.samples", "count", "lower", "ops_per_s", "dp-mc, gs-threshold / dim-real"),
    ("stability.self_s", "s", "lower", "op_s_p50", "dp-mc, gs-threshold / dim-real"),
    ("stability.draws", "count", "lower", "op_s_p50", "dp-mc, gs-threshold / dim-real"),
    ("stability.draws_per_success", "count", "lower", "ops_per_s", "dp-mc, gs-threshold / dim-real"),
    ("stability.fail_frac.k1", "frac", "lower", "ops_per_s", "dp-mc, gs-threshold / dim-real"),
    ("stability.fail_frac.k2", "frac", "lower", "ops_per_s", "gs-threshold / dim-real"),
    ("stability.fail_frac.k3", "frac", "lower", "ops_per_s", "gs-threshold / dim-real"),
    ("privacy.batches", "count", "lower", "op_s_p50", "dp-mc / all others"),
    ("privacy.fail_batches", "count", "lower", "verdict_fail_frac", "dp-mc / all others"),
    ("privacy.released", "count", "higher", "verdict_fail_frac", "dp-mc / all others"),
    ("privacy.select_n", "count", "lower", "op_s_p50", "dp-mc / all others"),
    ("privacy.self_s", "s", "lower", "op_s_p50", "dp-mc / all others"),
    ("privacy.hist_s", "s", "lower", "op_s_p50", "dp-mc / all others"),
    ("privacy.select_s", "s", "lower", "op_s_p50", "dp-mc / all others"),
    ("thresholds.steps", "count", "higher", "op_s_p50", "thresholds-cb16 / all others"),
    ("thresholds.family_size", "count", "higher", "op_s_p50", "thresholds-cb16 / all others"),
    ("thresholds.self_s", "s", "lower", "op_s_p50", "thresholds-cb16 / all others"),
    ("thresholds.choose_s", "s", "lower", "op_s_p50", "thresholds-cb16 / all others"),
    ("thresholds.mono_s", "s", "lower", "op_s_p50", "thresholds-cb16 / all others"),
    ("thresholds.verify_s", "s", "lower", "op_s_p50", "thresholds-cb16 / all others"),
    ("trace.overhead_frac", "frac", "lower", "none", "all / all"),
]

TIME_METRICS = sorted({t[3] for t in TARGETS})
# The largest tournament size any workload draws: Ldim of threshold_class(7).
MAX_K = 3


def _tree_nodes(node) -> int:
    if node is None:
        return 0
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _count_certificate(counts, args, result):
    counts["dimensions.cert_nodes"] += _tree_nodes(result.certificate.root)


def _count_sample(counts, args, result):
    k = args[0]
    counts["stability.draws"] += result.draw_count
    counts[f"samples.k{k}"] += 1
    counts[f"fails.k{k}" if result.failed else "successes"] += 1


def _count_pipeline(counts, args, result):
    counts["privacy.batches"] += result.num_batches
    counts["privacy.fail_batches"] += result.fail_batches
    counts["privacy.released"] += result.raw_list_size
    counts["privacy.select_n"] += result.select_sample_size


def _count_thresholds(counts, args, result):
    fam, trace = result
    counts["thresholds.steps"] += len(trace.pairs)
    counts["thresholds.family_size"] += len(fam)


def _count_load(counts, args, result):
    counts["classfile.load_bytes"] += os.path.getsize(args[0])


def _count_generator(counts, args, result):
    if not isinstance(args[0], np.random.Generator):
        counts["seeding.streams"] += 1


# Counts taken from public return values, by wrapped attribute.
HOOKS = {
    "ldim_tau": _count_certificate,
    "fat_gamma": _count_certificate,
    "pdim": _count_certificate,
    "sample_dk_mc": _count_sample,
    "private_learn_mc": _count_pipeline,
    "extract_thresholds_mc": _count_thresholds,
    "load_class": _count_load,
    "load_certificate": _count_load,
    "as_generator": _count_generator,
}


class Tracer:
    """Installs span-recording wrappers around one traced operation."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.counts = {}          # op id -> Counter
        self._stack = []
        self._op = None

    def wrap(self, name, fn, call_metric=None, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            counts = self.counts[self._op]
            if call_metric:
                counts[call_metric] += 1
            if hook:
                hook(counts, args, result)
            return result

        return traced

    def run(self, op_id, op):
        """Execute `op` traced.

        The first target, the entry point, is called with every target
        wrapped.  The wrappers are put in place before the operation's clock
        starts and taken away after it stops, so its measured duration is
        that of its root span, and its re-check runs unwrapped.
        """
        self.counts[op_id] = Counter()
        saved = []
        self._op = op_id
        try:
            for module, attr, layer, _, call_metric in self.targets:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(f"{layer}.{attr}", fn,
                                             call_metric, HOOKS.get(attr)))
            root_mod, root_attr = saved[0][:2]
            timed = call(op, getattr(root_mod, root_attr))
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self._op = None
        return finish(op, *timed)


def span_metric_map(targets=TARGETS) -> dict:
    return {f"{layer}.{attr}": metric for _, attr, layer, metric, _ in targets}


def self_times(spans, span_metric) -> tuple:
    """Per-op self time by time metric, and per-op root duration.

    Returns ({op: {metric: seconds}}, {op: root seconds}).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    by_op, roots = {}, {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        acc = by_op.setdefault(op, {})
        metric = span_metric[name]
        acc[metric] = acc.get(metric, 0.0) + (end - start - child[i])
        if parent < 0:
            roots[op] = roots.get(op, 0.0) + (end - start)
    return by_op, roots


def layer_metrics(tracer: Tracer, traced_s, untraced_s, count_ops) -> dict:
    """Per-layer metrics of a traced run.

    Times are mean self seconds per traced operation.  Counts are means per
    operation over the first `count_ops` operations, which every run
    completes, so they repeat exactly for a given seed.  The overhead pairs
    each traced operation with its untraced run just before it.
    """
    by_op, _ = self_times(tracer.spans, span_metric_map(tracer.targets))
    out = {metric: sum(t.get(metric, 0.0) for t in by_op.values()) / len(by_op)
           for metric in TIME_METRICS}
    counted = Counter()
    for o in range(count_ops):
        counted.update(tracer.counts[o])
    for name, unit, *_ in LAYER_METRICS:
        if unit == "count":
            out[name] = counted[name] / count_ops
    out["classfile.load_mb"] = counted["classfile.load_bytes"] / count_ops / 1e6
    succ = counted["successes"]
    out["stability.draws_per_success"] = (counted["stability.draws"] / succ
                                          if succ else 0.0)
    for k in range(1, MAX_K + 1):
        tried = counted[f"samples.k{k}"]
        out[f"stability.fail_frac.k{k}"] = (counted[f"fails.k{k}"] / tried
                                            if tried else 0.0)
    out["trace.overhead_frac"] = median(
        [t / u for t, u in zip(traced_s, untraced_s)]) - 1.0
    return out
