"""Closed-loop operation runner, output digests, statistics and fingerprint.

One client issues one `tolerantlearn.cli.main(argv)` call at a time and
starts the next only after the previous returned.  Every call is timed from
argv to written output; the independent re-check and the digest of its
outputs run after the clock stops.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# Fields of a report that are not a function of (config, seed).
VOLATILE_FIELDS = ("wall_clock_s",)

REFERENCE_ITERATIONS = 200_000

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Op:
    """One CLI call: argv, the files it writes and an independent re-check.

    `key` names the call; two calls with the same key must produce the same
    digest.  `check(stdout)` returns None when the outputs are right and a
    message otherwise.
    """

    key: str
    argv: list
    outputs: tuple = ()
    check: Optional[Callable[[str], Optional[str]]] = None


@dataclass
class OpResult:
    key: str
    seconds: float
    rc: Optional[int]          # None when the call raised
    digest: Optional[str]
    error: Optional[str]       # None unless the call counts as an error

    @property
    def verdict_failed(self) -> bool:
        return self.error is None and self.rc == 1


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def _drop_volatile(doc):
    if isinstance(doc, dict):
        return {k: _drop_volatile(v) for k, v in doc.items()
                if k not in VOLATILE_FIELDS}
    if isinstance(doc, list):
        return [_drop_volatile(v) for v in doc]
    return doc


def normalise(text: str) -> str:
    """Text of an output with the wall-clock fields removed.

    JSON documents lose every `wall_clock_s` key at any depth and are
    re-encoded with sorted keys; other text loses lines naming the field.
    """
    try:
        doc = json.loads(text)
    except ValueError:
        return "\n".join(line for line in text.splitlines()
                         if not line.lstrip().startswith(VOLATILE_FIELDS))
    return json.dumps(_drop_volatile(doc), sort_keys=True)


def digest(stdout: str, paths=()) -> str:
    """SHA-256 over the normalised stdout and output files, in order."""
    h = hashlib.sha256()
    for name, text in [("<stdout>", stdout)] + [
            (str(p), Path(p).read_text()) for p in paths]:
        h.update(name.encode())
        h.update(b"\0")
        h.update(normalise(text).encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def execute(op: Op, main) -> OpResult:
    """Run one operation; an exception or exit code 2 is an error, not fatal."""
    return finish(op, *call(op, main))


def call(op: Op, main) -> tuple:
    """The timed part of `execute`: (seconds, rc, stdout, error)."""
    for path in op.outputs:
        Path(path).unlink(missing_ok=True)
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = main(op.argv)
    except SystemExit as exc:     # argparse and the CLI's usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:      # the run must go on; the op is recorded
        rc = None
        error = "raised " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
    return time.perf_counter() - start, rc, buf.getvalue(), error


def finish(op: Op, seconds, rc, stdout, error) -> OpResult:
    """The untimed part of `execute`: exit code, outputs, digest, re-check."""
    if error is None and rc not in (0, 1):
        error = f"exit code {rc}"
    dig = None
    if error is None:
        missing = [str(p) for p in op.outputs if not Path(p).is_file()]
        if missing:
            error = f"missing outputs {missing}"
        else:
            dig = digest(stdout, op.outputs)
            if op.check is not None:
                error = op.check(stdout)
    return OpResult(op.key, seconds, rc, dig, error)


@dataclass
class RunLog:
    """Results of one closed-loop run, with the repeat-digest check."""

    results: list = field(default_factory=list)   # timed, untraced
    traced: list = field(default_factory=list)
    repeats: list = field(default_factory=list)   # untimed repeat checks
    refs: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def record(self, res: OpResult, bucket: list) -> OpResult:
        if res.digest is not None:
            first = self.digests.setdefault(res.key, res.digest)
            if first != res.digest and res.error is None:
                res.error = "output differs from an earlier repeat"
        bucket.append(res)
        return res

    @property
    def all_results(self) -> list:
        return self.results + self.traced + self.repeats

    @property
    def verdict_failed(self) -> int:
        return sum(1 for r in self.all_results if r.verdict_failed)

    @property
    def attempted(self) -> int:
        return len(self.all_results)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.all_results if r.error is not None)


def run_loop(ops, main, seconds: float, min_ops: int, tracer=None) -> RunLog:
    """Issue operations in a closed loop for `seconds`, at least `min_ops`.

    A reference-loop sample is taken before every operation and after the
    last, so each operation has a machine-pace sample on both sides.  With a
    tracer, every operation runs untraced and then traced, and the two
    digests must agree.  Without one, the first operation is repeated after
    the timed loop unless the pool already wrapped, so every run checks a
    repeat.
    """
    log = RunLog()
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        log.refs.append(reference_loop())
        log.record(execute(op, main), log.results)
        if tracer is not None:
            log.record(tracer.run(i, op), log.traced)
        i += 1
    log.refs.append(reference_loop())
    if tracer is None and i <= len(ops):
        log.record(execute(ops[0], main), log.repeats)
    return log


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quartiles(values) -> tuple:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    vals = list(values)
    if not vals:
        raise ValueError("quartiles of no values")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def median(values) -> float:
    return quartiles(values)[1]


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Seconds for a fixed pure-Python dict/LCG loop: the machine's pace."""
    start = time.perf_counter()
    table = {}
    x = 1
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = i
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# environment fingerprint
# ---------------------------------------------------------------------------

def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git(root: Path, *args) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(root: Path, reference_s: float) -> dict:
    import numpy
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "reference_loop_s": reference_s,
        "threads_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
