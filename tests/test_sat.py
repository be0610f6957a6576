"""The CDCL solver against brute force: models satisfy, cores are
unsatisfiable, minimized cores are minimal, runs repeat, and the budget
bounds the assignments.  Core minimization with model rotation against
deletion alone."""

import random
from itertools import product
from unittest import mock

from hypothesis import given, settings, strategies as st

from mvlogic import sat
from mvlogic.sat import Outcome, minimize, solve


def satisfies(bits, clauses):
    return all(any(bits[q >> 1] != bool(q & 1) for q in c) for c in clauses)


def brute_sat(nvars, clauses):
    return any(
        satisfies(bits, clauses)
        for bits in product((False, True), repeat=nvars)
    )


@st.composite
def cnfs(draw):
    nvars = draw(st.integers(1, 7))
    clause = st.lists(
        st.tuples(st.integers(0, nvars - 1), st.booleans()),
        max_size=4, unique_by=lambda t: t[0],
    ).map(lambda lits: sorted(2 * v + neg for v, neg in lits))
    return nvars, draw(st.lists(clause, max_size=30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cnfs())
def test_solve_matches_brute_force(cnf):
    nvars, clauses = cnf
    out = solve(nvars, clauses, 10**6)
    assert out == solve(nvars, clauses, 10**6)
    if brute_sat(nvars, clauses):
        assert out.core is None and satisfies(out.model, clauses)
        return
    assert out.model is None
    core = [clauses[i] for i in out.core]
    assert out.core == sorted(set(out.core)) and not brute_sat(nvars, core)
    # clauses from index `fixed` on are never dropped
    fixed = len(clauses) // 2
    least = minimize(clauses, out.core, fixed, 10**6)
    assert set(least.core) <= set(out.core)
    assert set(out.core) - set(range(fixed)) <= set(least.core)
    assert not brute_sat(nvars, [clauses[i] for i in least.core])
    for i in least.core:
        if i < fixed:
            rest = [clauses[j] for j in least.core if j != i]
            assert brute_sat(nvars, rest)


def test_budget_bounds_the_assignments():
    # a chain of implications x0 -> x1 -> ... with x0 true and x9 false
    clauses = [[2 * v + 1, 2 * v + 2] for v in range(9)] + [[0], [19]]
    out = solve(10, clauses, 10**6)
    assert out.core == list(range(11)) and out.conflicts == 1
    for budget in range(out.assignments):
        cut = solve(10, clauses, budget)
        assert cut.model is None and cut.core is None
        assert cut.assignments > budget
    least = minimize(clauses, out.core, 9, 3)
    assert least.core is None and least.assignments > 3


def test_empty_clause_is_its_own_core():
    assert solve(2, [[0, 2], [], [1]], 10).core == [1]


def deletion_only(clauses, core, droppable, budget):
    """Core minimization by deletion alone, without model rotation."""
    i = used = conflicts = 0
    while i < len(core):
        if core[i] >= droppable:
            break
        trial = core[:i] + core[i + 1:]
        names = sorted({q >> 1 for ci in trial for q in clauses[ci]})
        new = {v: k for k, v in enumerate(names)}
        out = solve(
            len(names),
            [[2 * new[q >> 1] | q & 1 for q in clauses[ci]] for ci in trial],
            budget - used,
        )
        used += out.assignments
        conflicts += out.conflicts
        if out.core is not None:
            core = [trial[k] for k in out.core]
        elif out.model is not None:
            i += 1
        else:
            return Outcome(None, None, used, conflicts)
    return Outcome(None, core, used, conflicts)


def check_rotation(nvars, clauses, fixed):
    """minimize finds deletion's core with no more work, and each clause
    its rotation marks as needed leaves that core satisfiable when it is
    removed.  The number of marks."""
    out = solve(nvars, clauses, 10**6)
    if out.core is None:
        return 0
    marks = []
    rotate = sat._rotate

    def spy(clauses_, occurs, model, start, droppable, needed):
        before = set(needed)
        rotate(clauses_, occurs, model, start, droppable, needed)
        core = sorted({ci for cis in occurs.values() for ci in cis})
        marks.append((core, needed - before - {start}))

    with mock.patch.object(sat, "_rotate", spy):
        got = minimize(clauses, out.core, fixed, 10**6)
    want = deletion_only(clauses, out.core, fixed, 10**6)
    assert got.core == want.core
    assert got.assignments <= want.assignments
    assert got.conflicts <= want.conflicts
    for core, marked in marks:
        for ci in marked:
            assert ci < fixed
            rest = [clauses[j] for j in core if j != ci]
            assert brute_sat(nvars, rest)
    return sum(len(marked) for _, marked in marks)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cnfs(), st.booleans())
def test_rotation_keeps_the_deletion_core(cnf, all_droppable):
    nvars, clauses = cnf
    check_rotation(nvars, clauses, len(clauses) // (1 if all_droppable else 2))


def test_rotation_on_dense_random_3cnfs():
    # 40 random 3-clauses over 6 variables are nearly always unsatisfiable,
    # with cores where a flipped model often falsifies two clauses at once
    marks = 0
    for seed in range(30):
        rng = random.Random(seed)
        clauses = [
            sorted(2 * v + rng.randrange(2) for v in rng.sample(range(6), 3))
            for _ in range(40)
        ]
        marks += check_rotation(6, clauses, len(clauses))
    assert marks > 100


def test_rotation_spares_the_solves_of_a_chain():
    # every clause of the chain is needed: one trial's model rotates
    # through all the others, so the rest need no solve
    clauses = [[2 * v + 1, 2 * v + 2] for v in range(9)] + [[0], [19]]
    core = solve(10, clauses, 10**6).core
    first = solve(10, clauses[1:], 10**6)
    least = minimize(clauses, core, len(clauses), 10**6)
    assert least.core == core
    assert (least.assignments, least.conflicts) == (
        first.assignments, first.conflicts
    )


def test_activity_rescale_keeps_the_verdicts(monkeypatch):
    # activities are scaled down once one passes 1e100, which takes some
    # 4,500 conflicts from an increment of 1; started near 1e100, every
    # run with two conflicts rescales, and its heap is rebuilt mid-search
    solvers = []
    init = sat._Solver.__init__

    def start_high(self, nvars, clauses):
        init(self, nvars, clauses)
        self.inc = 1e100
        solvers.append(self)

    monkeypatch.setattr(sat._Solver, "__init__", start_high)
    rescaled = 0
    for seed in range(40):
        rng = random.Random(seed)
        nvars = rng.randrange(4, 9)
        clauses = [
            sorted(2 * v + rng.randrange(2) for v in rng.sample(range(nvars), 3))
            for _ in range(rng.randrange(10, 50))
        ]
        solvers.clear()
        out = solve(nvars, clauses, 10**6)
        rescaled += solvers[0].inc < 1e50
        if brute_sat(nvars, clauses):
            assert out.core is None and satisfies(out.model, clauses)
        else:
            assert out.model is None
            assert not brute_sat(nvars, [clauses[i] for i in out.core])
    assert rescaled > 20
