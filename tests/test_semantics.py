"""Multialgebras, valuation search, consequence and total components."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import formulas, make_rng, random_sequent
from mvlogic.errors import (
    ArityError,
    FrameworkMismatch,
    MvlError,
    RepeatedValue,
    SignatureMismatch,
    UnknownConnective,
    ValueAbsent,
)
from mvlogic.formula import (
    app,
    canon_key,
    parse_formula,
    parse_formula_set,
    subformulas,
    var,
)
from mvlogic.registry import (
    ALG_PP6,
    ALG_PP6A1,
    ALG_PP6H,
    MAT_M_UP,
    MAT_PP6A1_UB,
    MAT_PP6H,
    MAT_PP6_UB,
    ORDER_CLASS,
)
from mvlogic.semantics import (
    ConsequenceProblem,
    Fails,
    Holds,
    MultiAlgebra,
    SET_FMLA,
    Sound,
    Unsound,
    check_consequence,
    check_rule_soundness,
    eval_multiop,
    refine_matrix,
    solve_valuations,
    total_components,
)
from mvlogic.calculus import Rule


def test_eval_multiop_examples():
    assert eval_multiop(ALG_PP6, "and", ("b", "n")) == {"f"}
    assert eval_multiop(ALG_PP6H, "imp", ("b", "f")) == {"n"}
    assert eval_multiop(ALG_PP6A1, "imp", ("ht", "f")) == {"hf", "f", "n"}


def test_eval_multiop_errors():
    with pytest.raises(UnknownConnective):
        eval_multiop(ALG_PP6, "imp", ("b", "f"))
    with pytest.raises(ArityError):
        eval_multiop(ALG_PP6, "and", ("b",))


def test_solve_valuations_unconstrained_count():
    f = parse_formula("p & q")
    domain = subformulas(f)
    found = solve_valuations(MAT_PP6_UB, domain, {})
    # deterministic total matrix: one valuation per variable assignment
    assert len(found) == 36
    pairs = {(w[var("p")], w[var("q")]) for w in found}
    assert len(pairs) == 36


def test_solve_valuations_constrained():
    f = parse_formula("p & ~p")
    domain = subformulas(f)
    found = solve_valuations(
        MAT_PP6_UB, domain, {f: MAT_PP6_UB.designated}
    )
    assert found
    assert any(w[var("p")] == "b" for w in found)
    for w in found:
        assert w[f] in MAT_PP6_UB.designated


def test_solve_valuations_bot_unsatisfiable():
    bot = app("bot")
    found = solve_valuations(MAT_PP6_UB, {bot}, {bot: frozenset({"t"})})
    assert found == []


def test_solve_valuations_partial_entry_kills():
    p, q = var("p"), var("q")
    pq = app("and", p, q)
    found = solve_valuations(
        MAT_M_UP,
        {p, q, pq},
        {p: frozenset({"bm"}), q: frozenset({"bp"})},
    )
    assert found == []


def reference_solve_valuations(m, domain, constraints, limit=None):
    """solve_valuations as first written: one recursive call per domain
    formula, in canonical order, values in carrier order."""
    alg = m.algebra
    order = sorted(domain, key=canon_key)
    results = []
    assign = {}

    def allowed(f):
        if f.is_var:
            opts = alg.carrier
        else:
            opts = alg.sort_values(
                eval_multiop(alg, f.head, tuple(assign[a] for a in f.args))
            )
        cons = constraints.get(f)
        return list(opts) if cons is None else [v for v in opts if v in cons]

    def rec(i):
        if limit is not None and len(results) >= limit:
            return
        if i == len(order):
            results.append(dict(assign))
            return
        f = order[i]
        for v in allowed(f):
            assign[f] = v
            rec(i + 1)
            if limit is not None and len(results) >= limit:
                return
        assign.pop(f, None)

    rec(0)
    return results


SEARCHED = [MAT_PP6A1_UB, MAT_M_UP, MAT_PP6_UB, MAT_PP6H["b"]]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_solve_valuations_matches_recursive_reference(data):
    m = data.draw(st.sampled_from(SEARCHED), label="matrix")
    side = formulas(m.algebra.connectives, ["p", "q"], max_leaves=4)
    domain = subformulas(data.draw(st.lists(side, min_size=1, max_size=2)))
    values = st.frozensets(st.sampled_from(m.carrier), min_size=1)
    cons = {
        f: data.draw(values)
        for f in sorted(domain, key=canon_key)
        if data.draw(st.booleans())
    }
    limit = data.draw(st.sampled_from([None, 0, 1, 3]))
    got = solve_valuations(m, domain, cons, limit)
    want = reference_solve_valuations(m, domain, cons, limit)
    assert [list(w.items()) for w in got] == [list(w.items()) for w in want]


def test_check_consequence_reflexivity():
    p = var("p")
    res = check_consequence(
        ConsequenceProblem([MAT_PP6_UB], frozenset({p}), frozenset({p}))
    )
    assert isinstance(res, Holds)


def test_check_consequence_fails_example():
    conclusions = parse_formula_set("(p | q) => p, q")
    res = check_consequence(
        ConsequenceProblem([MAT_PP6H["b"]], frozenset(), conclusions)
    )
    assert isinstance(res, Fails)
    # the witness really is a countermodel: no conclusion designated
    for f in conclusions:
        assert res.witness[f] not in MAT_PP6H["b"].designated


def test_check_consequence_order_class_holds():
    phi = parse_formula_set("p & ~p & q & ~q & ~@(p => q)")
    psi = parse_formula_set("r | ~r")
    res = check_consequence(
        ConsequenceProblem(ORDER_CLASS, phi, psi, SET_FMLA)
    )
    assert isinstance(res, Holds)


def test_check_consequence_set_fmla_arity():
    # an input error, which mvl reports with exit 2, not a crash
    assert issubclass(FrameworkMismatch, MvlError)
    with pytest.raises(FrameworkMismatch):
        check_consequence(
            ConsequenceProblem(
                [MAT_PP6_UB], frozenset(), parse_formula_set("p, q"), SET_FMLA
            )
        )


def test_check_consequence_signature_checked_before_search():
    # pp6 has no =>; the answer must not depend on whether the search
    # reaches the => node, which it does not when top prunes it first
    prem = parse_formula_set("p => q")
    for conc in ("top", "q"):
        with pytest.raises(SignatureMismatch):
            check_consequence(
                ConsequenceProblem([MAT_PP6_UB], prem, parse_formula_set(conc))
            )
    # the same on a non-deterministic matrix, decided by backtracking
    bad = app("neg", var("p"), var("q"))
    with pytest.raises(SignatureMismatch):
        check_consequence(
            ConsequenceProblem([MAT_PP6A1_UB], frozenset({bad}), frozenset())
        )


def test_check_consequence_reports_the_path():
    for cls in (ORDER_CLASS, [MAT_M_UP]):
        for k in (2, 5):
            names = ["p%d" % i for i in range(1, k + 1)]
            prem = parse_formula_set("~(%s)" % " & ".join(names))
            conc = parse_formula_set(" | ".join("~" + n for n in names))
            res = check_consequence(ConsequenceProblem(cls, prem, conc))
            assert isinstance(res, Holds)
            assert res.stats.path == "bitset"
            assert res.stats.components == sum(
                len(total_components(m)) for m in cls
            )
    res = check_consequence(ConsequenceProblem(
        [MAT_PP6A1_UB], frozenset(), parse_formula_set("p => q")
    ))
    assert res.stats.path == "backtrack"
    # the record is not part of the answer
    assert res == Fails(res.matrix_index, res.witness)


def test_class_consequence_is_conjunction():
    rng = make_rng(23)
    conns = dict(ALG_PP6H.connectives)
    shuffled = list(reversed(ORDER_CLASS))
    for _ in range(40):
        prem, conc = random_sequent(rng, conns, ["p", "q"], depth=2)
        a = check_consequence(ConsequenceProblem(ORDER_CLASS, prem, conc))
        b = check_consequence(ConsequenceProblem(shuffled, prem, conc))
        per = [
            check_consequence(ConsequenceProblem([m], prem, conc))
            for m in ORDER_CLASS
        ]
        assert isinstance(a, Holds) == isinstance(b, Holds)
        assert isinstance(a, Holds) == all(isinstance(r, Holds) for r in per)


def test_dilution_monotonicity():
    rng = make_rng(29)
    conns = dict(ALG_PP6.connectives)
    for _ in range(40):
        prem, conc = random_sequent(rng, conns, ["p", "q"], depth=2)
        res = check_consequence(ConsequenceProblem([MAT_PP6_UB], prem, conc))
        if not isinstance(res, Holds):
            continue
        extra_p, extra_c = random_sequent(rng, conns, ["p", "q", "r"], depth=1)
        bigger = check_consequence(
            ConsequenceProblem([MAT_PP6_UB], prem | extra_p, conc | extra_c)
        )
        assert isinstance(bigger, Holds)


def test_check_rule_soundness_trivial():
    p = var("p")
    rule = Rule("id", frozenset({p}), frozenset({p}))
    assert isinstance(check_rule_soundness(rule, [MAT_PP6_UB]), Sound)
    bad = Rule("bad", frozenset(), frozenset({p}))
    res = check_rule_soundness(bad, [MAT_PP6_UB])
    assert isinstance(res, Unsound)
    assert res.witness[p] not in MAT_PP6_UB.designated


def test_total_components_deterministic_total():
    comps = total_components(MAT_PP6_UB)
    assert comps == [tuple(ALG_PP6.carrier)]


def test_total_components_maximality():
    comps = total_components(MAT_M_UP)
    alg = MAT_M_UP.algebra
    from itertools import product
    for comp in comps:
        cset = frozenset(comp)
        # every restricted entry non-empty
        for conn, table in alg.interp.items():
            k = alg.arity(conn)
            for key in product(comp, repeat=k):
                assert table[key] & cset
        # adding any value breaks totality
        for extra in set(alg.carrier) - cset:
            bigger = cset | {extra}
            ok = True
            for conn, table in alg.interp.items():
                k = alg.arity(conn)
                for key in product(sorted(bigger), repeat=k):
                    if not (table[key] & bigger):
                        ok = False
                        break
                if not ok:
                    break
            assert not ok


def test_refine_matrix():
    refined = refine_matrix(MAT_PP6A1_UB, [("imp", ("b", "hf"), "n")])
    assert eval_multiop(refined.algebra, "imp", ("b", "hf")) == {"hf", "f"}
    # original unchanged
    assert eval_multiop(ALG_PP6A1, "imp", ("b", "hf")) == {"hf", "f", "n"}
    same = refine_matrix(MAT_PP6A1_UB, [])
    assert same.algebra.interp == MAT_PP6A1_UB.algebra.interp
    with pytest.raises(ValueAbsent):
        refine_matrix(MAT_PP6A1_UB, [("imp", ("b", "hf"), "ht")])


def test_carrier_value_listed_twice_is_rejected():
    # the kernel numbers values by their place in the carrier
    with pytest.raises(RepeatedValue, match="^value 't' is listed twice in the carrier$"):
        MultiAlgebra("repeats", ["f", "t", "t"], {"neg": {("f",): {"t"}, ("t",): {"f"}}})
