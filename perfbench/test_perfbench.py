"""Tiny self-check of the benchmark: the reference oracle, the harness
helpers, and a cheap slice of every workload.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import clock as clock_module  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402
from spans import Tracer  # noqa: E402

MV = Namespace(**{m: importlib.import_module("mvlogic." + m) for m in run.MODULES})


def _matrix(name):
    return MV.registry.lookup("matrix", name).payload


def _terms(text):
    return [oracle.term_of(f) for f in MV.formula.parse_formula_set(text)]


def test_oracle_brute_force_verdicts():
    dm4 = [_matrix("dm4-bt")]
    assert not oracle.holds(dm4, [], _terms("p | ~p"))
    assert oracle.holds(dm4, _terms("~(p & q)"), _terms("~p | ~q"))
    a1 = [_matrix("pp6a1-ub")]  # non-deterministic: searched, not tabled
    assert oracle.holds(a1, [], _terms("p | (p => bot)"))
    assert not oracle.holds(a1, [], _terms("@(p | (p => bot))"))
    assert oracle.holds(a1, [], _terms("@top"))


def test_oracle_clone_size_is_the_papers():
    alg = MV.registry.lookup("algebra", "pp6h").payload
    assert oracle.clone_size(alg) == oracle.CIP_CLONE_SIZE


def test_oracle_rejects_a_forged_countermodel():
    m = _matrix("pp6h-ub")
    p = MV.formula.parse_formula("p")
    notp = MV.formula.parse_formula("~p")
    oracle.check_valuation(m, {p: "f", notp: "t"}, [notp], [p])
    with pytest.raises(oracle.Mismatch):
        oracle.check_valuation(m, {p: "f", notp: "f"}, [notp], [p])


def test_text_inputs_parse_to_the_generated_terms():
    rng = workloads.random.Random(7)
    for _ in range(200):
        t = workloads.random_term(rng, workloads.SIG_PP_IMP, ["p", "q"], 3)
        (f,) = MV.formula.parse_formula_set(workloads.text(t))
        assert oracle.term_of(f) == t
    prem, conc = workloads.ladder(["p1", "p2", "p3"])
    assert MV.formula.parse_formula_set(workloads.set_text(prem)) == (
        MV.formula.parse_formula_set("~(p1 & p2 & p3)")
    )
    assert MV.formula.parse_formula_set(workloads.set_text(conc)) == (
        MV.formula.parse_formula_set("~p1 | ~p2 | ~p3")
    )


def test_plans_repeat_for_a_seed():
    models = run.reference_models(MV)
    for name in workloads.WORKLOADS:
        a = workloads.plan(name, 3, 1, models)
        b = workloads.plan(name, 3, 1, models)
        assert [(o.kind, o.target, o.text, o.budget) for o in a] == [
            (o.kind, o.target, o.text, o.budget) for o in b
        ]
    assert workloads.plan("prover", 3, 1, models)[4].text != workloads.plan("prover", 4, 1, models)[4].text


# operations cheap enough for a self-check: the long fixed inputs of each
# workload (hard slice, k >= 4 ladders, m-leq, the large r-leq Set-Fmla
# proof) are left to the benchmark itself
def _cheap(op):
    if op.kind == "prove":
        return op.budget == workloads.RANDOM_BUDGET
    if op.kind == "check":
        return len(workloads.oracle.term_vars(op.prem + op.conc)) <= 4
    if op.kind == "discriminator":
        return op.target != "m-leq"
    if op.kind == "set-fmla" and op.target == "r-leq":
        return op.prem != workloads.R_LEQ_SET_FMLA_FACTS[0][0]
    if op.kind == "set-fmla":
        return len(workloads.set_text(op.prem)) < 12
    return True


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_slice_verifies(name):
    ops = [op for op in workloads.plan(name, 1, 0.4, run.reference_models(MV)) if _cheap(op)]
    assert ops
    decided = 0
    earlier = {}
    for op in ops:
        try:
            out = workloads.execute(MV, op, earlier)
        except RecursionError:
            # the recursive tree exporters fail on long Set-Fmla chains;
            # the benchmark counts this as a failed operation
            assert name == "set-fmla"
            continue
        earlier[(op.kind, op.target)] = out
        decided += workloads.verify(MV, op, out)
    assert decided > 0


def test_verify_catches_a_wrong_verdict():
    op = workloads.Op("check", "pp6h-order", [], [("or", "p", ("neg", "p"))])
    models, prem, conc, _ = workloads.execute(MV, op, {})
    with pytest.raises(oracle.Mismatch):
        workloads.verify(MV, op, (models, prem, conc, MV.semantics.Holds()))


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0, 10)
    assert run.tail([float(i) for i in range(1, 68)]) == (85.0, 57.0, 10)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0, 0)


def test_clock_samples_while_active_and_counts_its_time():
    with Clock() as clock:
        stolen = clock.stolen
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            sum(range(1000))
    assert len(clock.durations) >= 4  # on entry, three ticks, on exit
    assert clock.stolen > stolen


def test_clock_scale_uses_the_samples_near_an_operation():
    clock = Clock()
    clock.starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    clock.durations = [0.001, 0.002, 0.002, 0.004, 0.004]
    ref = clock_module.REFERENCE_KERNEL_S
    assert clock.scale(1.5, 1.6) == ref / 0.002
    assert clock.scale(5.2, 5.3) == ref / 0.004
    assert clock.scale(3.4, 3.4) == ref / 0.002  # none within the window: nearest
    assert clock_module.median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_tracer_self_time_and_nesting():
    class Box:
        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

        @staticmethod
        def inner():
            return 1

    tracer = Tracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner")
    tracer.wrap(Box, "missing", "gone")
    assert Box.outer() == 2
    inclusive, self_time, count = tracer.totals()
    assert count == {"outer": 1, "inner": 2}
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert self_time["outer"] == pytest.approx(inclusive["outer"] - inclusive["inner"])
    assert tracer.absent == ["gone"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable] + cmd[1:] + ["--workload", "prover", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
