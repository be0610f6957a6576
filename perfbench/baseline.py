"""Run every workload over several seeds and summarise each metric as its
median and quartile spread, the way runs of two commits are compared.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads prover,semantics]
                                  [--seconds 20] [--trace-seed 1]

Each run is a fresh process of run.py.  The end-to-end table uses untraced
runs only; with --trace-seed, one traced run per workload adds the per-layer
split and the busy time traced minus untraced for that seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit("%s seed %d failed (exit %d): %s" % (workload, seed, done.returncode, done.stderr))
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--workloads", default="prover,semantics,monadicity,set-fmla")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace-seed", type=int)
    args = p.parse_args()
    summary = {}
    for workload in args.workloads.split(","):
        values, busy = {}, {}
        for seed in args.seeds:
            detail, result = run(workload, seed, args.seconds, 0)
            busy[seed] = detail["busy_s"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(m["value"], 4) for k, m in result["metrics"].items()},
                  detail["errors"], flush=True)
        entry = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            entry[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        summary[workload] = {"end_to_end": entry}
        if args.trace_seed is not None:
            detail, result = run(workload, args.trace_seed, args.seconds, 1)
            untraced = busy.get(args.trace_seed)
            summary[workload]["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            if untraced is not None:
                summary[workload]["traced_minus_untraced_busy_s"] = detail["busy_s"] - untraced
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
