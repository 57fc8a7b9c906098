"""Run workloads one at a time and print every metric with its unit.

    python3 bench/summary.py                      # every workload, seed 1
    python3 bench/summary.py --seeds 1,2,3,4,5 --trace 1

Every workload of BENCHMARK.json runs for its `run_seconds`.  Each run is
a separate `bench/run.py` process, started only after the previous one
exited, so the load never exceeds one busy core.  With several seeds, each
metric is shown as the median over seeds and the spread between its
quartiles as a share of that median, the figure the end-to-end bounds in
BENCHMARK.json are checked against.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["metrics"] = record["metrics"]
    for key in ("error_frac", "verdict_fail_frac"):
        result["metrics"][key] = {"value": record[key], "unit": "frac"}
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            res = run_once(workload, seed, seconds, args.trace)
            ok = ok and res["correct"] and res["failed"] == 0
            runs.append(res)
            print(f"# {workload} seed={seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
        print(f"{workload}  ({len(seeds)} seeds, {seconds} s each)")
        print(f"  {'metric':30s} {'median':>12s} {'spread':>8s}  unit")
        for name, m in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = harness.median(vals)
            spr = f"{harness.spread(vals):8.4f}" if med else f"{'-':>8s}"
            print(f"  {name:30s} {med:12.6g} {spr}  {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
