"""The CDCL solver against brute force: models satisfy, cores are
unsatisfiable, minimized cores are minimal, runs repeat, and the budget
bounds the assignments."""

from itertools import product

from hypothesis import given, settings, strategies as st

from mvlogic.sat import minimize, solve


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
