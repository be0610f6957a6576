"""Benchmark of certified answers from mvlogic.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload prover --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): prover, semantics, monadicity, set-fmla.  The
benchmark imports the package from ./src, generates text inputs from the
seed, times each operation (query plus certificate check), corrects the
times for the machine's speed drift (clock.py), checks every answer against
the brute-force reference in oracle.py, untimed, and prints one JSON object
as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
spans are recorded around calls into each module and the metrics are the
per-layer ones, written with every span to perfbench/out/.  A verdict that
disagrees with the reference exits 1; a missing ./src exits 2.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh interpreters timing ``import mvlogic``, which builds the registry,
# corrected by the speed of the kernel timed just before (clock.py imports
# only builtin modules and bisect)
SETUP_SAMPLES = 9
SETUP_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import clock; "
    "scale = clock.scale_here(); "
    "t = time.perf_counter(); import mvlogic; print((time.perf_counter() - t) * scale)"
)
# stop starting operations after this much wall time, so that a run always
# ends well inside its time limit even if the program gets much slower
WALL_CAP_S = 120.0
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 85.0, 75.0, 50.0)

MODULES = ("formula", "registry", "calculus", "semantics", "axiomatizer", "algebra", "interpolation")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_hash_seed():
    """Re-execute with PYTHONHASHSEED=0 unless the caller fixed it: set
    iteration order steers proof search, so only the inputs may differ
    between seeds."""
    if "PYTHONHASHSEED" not in os.environ:
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def import_package():
    """Import mvlogic from ./src and return (modules, seconds taken)."""
    if not (SRC / "mvlogic" / "__init__.py").is_file():
        print("perfbench: no mvlogic package under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import mvlogic  # noqa: F401  (builds the registry)

    import_s = time.perf_counter() - start
    if Path(mvlogic.__file__).resolve().parent != SRC / "mvlogic":
        print("perfbench: imported mvlogic from %s, not %s" % (mvlogic.__file__, SRC), file=sys.stderr)
        sys.exit(2)
    import importlib

    mv = argparse.Namespace(
        **{name: importlib.import_module("mvlogic." + name) for name in MODULES}
    )
    return mv, import_s


def measure_setup():
    """Median over fresh interpreters of the corrected time to import
    mvlogic."""
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def reference_models(mv):
    """Matrices the plans consult: r-b's model and the six-valued classes."""
    return {
        "r-b": mv.registry.lookup("calculus", "r-b").payload.models,
        "pp6h-order": mv.registry.resolve_models(["pp6h-order"]),
        "pp6h-up": mv.registry.resolve_models(["pp6h-up"]),
    }


def tail(latencies):
    """Highest listed percentile with at least ten samples beyond it
    (nearest rank), as (percentile, value, samples beyond); the maximum,
    as percentile 100, when there are too few samples for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10:
            return q, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def install_tracer(mv):
    """Spans around the public functions of each module and, by attribute,
    around the prover's private phases; counts taken from their results."""
    from spans import Tracer

    tracer = Tracer()
    calc, sem, ax = mv.calculus, mv.semantics, mv.axiomatizer

    def grounded(t, args, out, outermost):
        universe = args[2]
        t.counts["calculus.universe_size"] += 0 if universe is None else len(universe)
        t.counts["calculus.instances"] += len(out)

    def proved(t, args, out, outermost):
        if not outermost:
            return
        if isinstance(out, calc.Proved):
            stack, nodes = [out.tree], 0
            while stack:
                node = stack.pop()
                nodes += 1
                stack.extend(node.children)
            t.counts["calculus.proof_nodes"] += nodes
        elif isinstance(out, calc.Refuted):
            t.counts["calculus.saturated_size"] += len(out.partition.omega)
        elif isinstance(out, calc.OutOfBudget):
            t.counts["calculus.out_of_budget"] += 1

    def solved(t, args, out, outermost):
        t.counts["semantics.solve_calls"] += 1

    def discriminated(t, args, out, outermost):
        t.counts["axiomatizer.explored"] += getattr(out, "explored", 0)

    def cloned(t, args, out, outermost):
        t.counts["algebra.clone_size"] += len(out)

    wraps = [
        (mv.formula, "parse_formula_set", "formula.parse", None),
        (mv.formula, "parse_formula", "formula.parse", None),
        (calc, "prove", "calculus.prove", proved),
        (calc, "_build_instances", "calculus.ground", grounded),
        (calc, "_model_truths", "calculus.steer", None),
        (getattr(calc, "_Searcher", None), "run", "calculus.search", None),
        (calc, "_prove_by_simulation", "calculus.replay", None),
        (calc, "validate_tree", "calculus.validate", None),
        (calc, "tree_to_json", "calculus.export", None),
        (calc, "tree_to_dot", "calculus.export", None),
        (calc, "countermodel_from_partition", "calculus.countermodel", None),
        (sem, "check_consequence", "semantics.check", None),
        (sem, "check_rule_soundness", "semantics.soundness", None),
        (sem, "solve_valuations", "semantics.solve", solved),
        (ax, "find_discriminator", "axiomatizer.discriminator", discriminated),
        (ax, "generate_refinement_rules", "axiomatizer.generate", None),
        (ax, "subsume_simplify", "axiomatizer.simplify", None),
        (mv.algebra, "unary_term_functions", "algebra.clone", cloned),
        (mv.interpolation, "cip_failure_certificate", "interpolation.cip", None),
    ]
    for owner, attr, name, after in wraps:
        tracer.wrap(owner, attr, name, after)
    return tracer


# per-layer metric -> span whose time it reports; "self" marks self time
# (replay excludes the nested prove of the source calculus, which the
# ground/steer/search spans already report)
LAYER_TIMES = {
    "formula.parse_s": "formula.parse",
    "calculus.prove_s": "calculus.prove",
    "calculus.ground_s": "calculus.ground",
    "calculus.steer_s": "calculus.steer",
    "calculus.search_s": "calculus.search",
    "calculus.replay_s": ("self", "calculus.replay"),
    "calculus.validate_s": "calculus.validate",
    "calculus.export_s": "calculus.export",
    "calculus.countermodel_s": "calculus.countermodel",
    "semantics.check_s": "semantics.check",
    "semantics.soundness_s": "semantics.soundness",
    "semantics.solve_s": "semantics.solve",
    "axiomatizer.discriminator_s": "axiomatizer.discriminator",
    "axiomatizer.generate_s": "axiomatizer.generate",
    "axiomatizer.simplify_s": "axiomatizer.simplify",
    "algebra.clone_s": "algebra.clone",
    "interpolation.cip_s": "interpolation.cip",
}
LAYER_COUNTS = (
    "calculus.universe_size",
    "calculus.instances",
    "calculus.proof_nodes",
    "calculus.saturated_size",
    "calculus.out_of_budget",
    "semantics.solve_calls",
    "axiomatizer.explored",
    "algebra.clone_size",
)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))
    pin_hash_seed()
    mv, import_s = import_package()
    import oracle
    from clock import Clock

    setup_s = None if args.trace else measure_setup()
    ops = workloads.plan(args.workload, args.seed, args.seconds, reference_models(mv))
    tracer = install_tracer(mv) if args.trace else None
    per_span_s = tracer.per_span_overhead() if tracer else 0.0
    table = mv.formula.Formula._table
    interned_before = len(table)

    timings, errors, outcomes = [], Counter(), Counter()
    earlier = {}
    decided = 0
    mismatch = None
    wall_start = time.perf_counter()
    with Clock() as clock:
        for i, op in enumerate(ops):
            if time.perf_counter() - wall_start > WALL_CAP_S:
                break
            if tracer:
                tracer.op = i
            stolen = clock.stolen
            start = time.perf_counter()
            try:
                out = workloads.execute(mv, op, earlier)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            end = time.perf_counter()
            timings.append((start, end, end - start - (clock.stolen - stolen)))
            if isinstance(out, Exception):
                errors[type(out).__name__] += 1
                continue
            earlier[(op.kind, op.target)] = out
            try:
                ok = workloads.verify(mv, op, out)
            except oracle.Mismatch as exc:
                mismatch = "operation %d (%s %s): %s" % (i, op.kind, op.target, exc)
                break
            decided += ok
            outcomes[workloads.outcome(op, out)] += 1
    interned = len(table) - interned_before

    raw = [t for _, _, t in timings]
    latencies = [t * clock.scale(start, end) for start, end, t in timings]
    attempted = len(latencies)
    failed = sum(errors.values())
    busy = sum(latencies)
    q, tail_value, beyond = tail(latencies)
    detail = {
        "workload": args.workload,
        "environment": environment(args),
        "planned": len(ops),
        "attempted": attempted,
        "decided": decided,
        "errors": dict(errors),
        "outcomes": dict(outcomes),
        "busy_s": busy,
        "raw_busy_s": sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1000,
        "machine_speed": clock.speed(),
        "kernel_samples": len(clock.durations),
        "latency_tail": {"percentile": q, "samples": attempted, "beyond": beyond},
    }
    if args.trace:
        inclusive, self_time, count = tracer.totals()
        metrics = {"registry.import_s": (import_s, "s")}
        for metric, span in LAYER_TIMES.items():
            if isinstance(span, tuple):
                metrics[metric] = (self_time.get(span[1], 0.0), "s")
            else:
                metrics[metric] = (inclusive.get(span, 0.0), "s")
        metrics["formula.interned"] = (interned, "count")
        for name in LAYER_COUNTS:
            metrics[name] = (tracer.counts.get(name, 0), "count")
        metrics["error_ratio"] = (failed / attempted, "ratio")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        metrics["trace.overhead_s"] = (per_span_s * len(tracer.spans) + tracer.bookkeeping_s, "s")
        detail["absent_spans"] = tracer.absent
        detail["self_s"] = dict(self_time)
        OUT.mkdir(exist_ok=True)
        path = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump(
                {
                    "detail": detail,
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": tracer.spans,
                    "inclusive_s": inclusive,
                    "self_s": self_time,
                    "count": count,
                },
                fh,
            )
        detail["spans_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (attempted / busy, "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "latency_tail_ms": (tail_value * 1000, "ms"),
            "decided_ratio": (decided / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    if mismatch:
        print("perfbench: wrong answer: " + mismatch, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": mismatch is None,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
