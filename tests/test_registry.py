"""Built-in algebras, matrices, calculi and the JSON exchange formats."""

import json

import pytest

from mvlogic.calculus import Calculus, Inconclusive, Refuted, prove
from mvlogic.errors import NotFound
from mvlogic.formula import parse_formula, parse_formula_set, render_formula
from mvlogic.registry import (
    ALG_PP6H,
    G10,
    KIND_ALGEBRA,
    KIND_CALCULUS,
    KIND_MATRIX,
    KIND_MATRIX_CLASS,
    MAT_M_LEQ,
    MAT_M_UP,
    R_LEQ_RULES,
    R_UP_RULES,
    RULE_D_NEQ_UT,
    THETA,
    V6,
    XI_MONADIC,
    build_ten_valued,
    calculus_from_json,
    calculus_to_json,
    leq6,
    lookup,
    matrix_from_json,
    matrix_to_json,
    names,
    resolve_models,
)
from mvlogic.semantics import eval_multiop, total_components


def test_lookup_matrix():
    m = lookup(KIND_MATRIX, "pp6-ub").payload
    assert m.designated == {"b", "t", "ht"}
    assert m.carrier == V6


def test_lookup_classes():
    order = lookup(KIND_MATRIX_CLASS, "pp6h-order").payload
    assert [m.designated for m in order] == [
        frozenset({"f", "n", "b", "t", "ht"}),
        frozenset({"b", "t", "ht"}),
        frozenset({"ht"}),
    ]
    up = lookup(KIND_MATRIX_CLASS, "pp6h-up").payload
    assert up[:3] == order
    assert up[3].designated == frozenset({"t", "ht"})


def test_lookup_not_found():
    with pytest.raises(NotFound):
        lookup(KIND_CALCULUS, "nonesuch")


def test_names_listing():
    assert "pp6h" in names(KIND_ALGEBRA)
    assert "r-leq" in names(KIND_CALCULUS)


def test_resolve_models():
    flat = resolve_models(["pp6h-order", "dm4-bt"])
    assert len(flat) == 4
    with pytest.raises(NotFound):
        resolve_models(["nonesuch"])


def test_ten_valued_entries():
    alg = MAT_M_UP.algebra
    assert eval_multiop(alg, "and", ("np", "bp")) == {"fp"}
    assert eval_multiop(alg, "and", ("bm", "fp")) == set()
    assert eval_multiop(MAT_M_LEQ.algebra, "or", ("nm", "bm")) == {"tm"}


def test_ten_valued_designated():
    assert MAT_M_UP.designated == {"fp", "np", "bp", "tp", "ht"}
    assert MAT_M_LEQ.designated == MAT_M_UP.designated


def test_ten_valued_entries_from_projection():
    """Every entry is the inc-filtered preimage of the six-valued entry."""
    alg = MAT_M_UP.algebra
    six = ALG_PP6H
    for conn in ("and", "neg", "imp"):
        k = alg.arity(conn)
        for key, out in alg.interp[conn].items():
            image = six.interp[conn][tuple(G10[a] for a in key)]
            assert all(G10[c] in image for c in out)


def test_build_ten_valued_rejects_bad_variant():
    with pytest.raises(ValueError):
        build_ten_valued("sideways")


def test_component_restrictions_isomorphic_via_g():
    """Each total component of M_up is a copy, through G10, of PP6=>H with
    a principal filter of designated values."""
    alg = MAT_M_UP.algebra
    from itertools import product

    for comp in total_components(MAT_M_UP):
        cset = frozenset(comp)
        proj = {c: G10[c] for c in comp}
        assert sorted(proj.values(), key=V6.index) == list(V6)
        for conn, table in alg.interp.items():
            k = alg.arity(conn)
            for key in product(comp, repeat=k):
                got = {G10[c] for c in table[key] & cset}
                want = ALG_PP6H.interp[conn][tuple(G10[a] for a in key)]
                assert got == want
        des = {G10[c] for c in cset & MAT_M_UP.designated}
        gens = [a for a in des if all(leq6(a, b) for b in des)]
        assert len(gens) == 1
        assert des == frozenset(v for v in V6 if leq6(gens[0], v))


def test_r_leq_is_r_up_plus_extra():
    assert R_LEQ_RULES == R_UP_RULES + [RULE_D_NEQ_UT]


def test_analyticity_sets():
    assert set(XI_MONADIC) == {
        parse_formula("p"), parse_formula("~p"), parse_formula("@p")
    }
    assert set(THETA) == {
        parse_formula("p"),
        parse_formula("@p"),
        parse_formula("@(p => q)"),
        parse_formula("@(~p => p)"),
        parse_formula("@(p => ~p)"),
    }


def test_calculi_carry_models():
    for name in names(KIND_CALCULUS):
        calc = lookup(KIND_CALCULUS, name).payload
        assert calc.models


def test_matrix_json_round_trip():
    for name in ("pp6h-ub", "m-up", "dm4-bt"):
        m = lookup(KIND_MATRIX, name).payload
        text = matrix_to_json(m)
        again = matrix_from_json(text)
        assert again.algebra.carrier == m.algebra.carrier
        assert again.designated == m.designated
        assert again.algebra.interp == m.algebra.interp
        assert matrix_to_json(again) == text


def test_calculus_json_round_trip():
    calc = lookup(KIND_CALCULUS, "r-b").payload
    text = calculus_to_json(calc)
    again = calculus_from_json(text)
    assert {r.name for r in again.rules} == {r.name for r in calc.rules}
    by_name = {r.name: r for r in again.rules}
    for rule in calc.rules:
        assert by_name[rule.name].antecedent == rule.antecedent
        assert by_name[rule.name].succedent == rule.succedent
    assert set(again.xi) == set(calc.xi)


def test_every_calculus_export_round_trips():
    # rules, analyticity set, framework and models, for every registered
    # calculus: Set-Fmla ones and those whose models came from a class
    for name in names(KIND_CALCULUS):
        calc = lookup(KIND_CALCULUS, name).payload
        again = calculus_from_json(calculus_to_json(calc))
        assert again.name == calc.name
        assert again.rules == calc.rules
        assert again.xi == calc.xi
        assert again.framework == calc.framework
        assert len(again.models) == len(calc.models)
        assert all(m is n for m, n in zip(again.models, calc.models))
        assert calculus_to_json(again) == calculus_to_json(calc)


def test_calculus_import_defaults_and_rejects():
    text = '{"name": "x", "rules": [{"name": "r", "premises": ["p"], ' \
        '"conclusions": []}]}'
    calc = calculus_from_json(text)
    assert calc.framework == "set-set" and calc.models is None
    with pytest.raises(ValueError):
        calculus_from_json(text[:-1] + ', "framework": "set-bag"}')
    with pytest.raises(NotFound):
        calculus_from_json(text[:-1] + ', "models": ["nonesuch"]}')


def test_empty_analyticity_set_round_trips():
    # with Ξ = () every instance stays inside Λ, so a model of the clause
    # set refutes p |- q; read back as no Ξ it would prove nothing
    rules = lookup(KIND_CALCULUS, "r-b").payload.rules
    calc = Calculus("rb0", rules, (), "set-set")
    text = calculus_to_json(calc)
    assert json.loads(text)["format"] == 2
    again = calculus_from_json(text)
    assert again.xi == ()
    premises, goal = parse_formula_set("p"), parse_formula_set("q")
    for c in (calc, again):
        res = prove(c, premises, goal)
        assert isinstance(res, Refuted) and res.stats.route == "cdcl"
    # no Ξ is null, and reads back as None
    data = json.loads(calculus_to_json(lookup(KIND_CALCULUS, "moisil").payload))
    assert data["xi"] is None
    assert calculus_from_json(json.dumps(data)).xi is None


def test_calculus_export_without_format_reads_as_before():
    # before format 2 an export had no "format" key, and an empty "xi" list
    # meant no analyticity set
    moisil = lookup(KIND_CALCULUS, "moisil").payload
    rules = [
        {"name": r.name, "premises": sorted(map(render_formula, r.antecedent)),
         "conclusions": sorted(map(render_formula, r.succedent))}
        for r in moisil.rules
    ]
    old = {"name": "moisil", "framework": "set-fmla", "models": ["pp6h-uht"],
           "xi": [], "rules": rules}
    calc = calculus_from_json(json.dumps(old))
    assert calc.xi is None and calc.rules == moisil.rules
    res = prove(calc, frozenset(), parse_formula_set("q => q"))
    assert isinstance(res, Inconclusive)
    with pytest.raises(ValueError):
        calculus_from_json(json.dumps(dict(old, format=3)))


def test_pp6h_subalgebra_constants():
    for name in ("pp2h", "pp3h", "pp4h"):
        alg = lookup(KIND_ALGEBRA, name).payload
        assert eval_multiop(alg, "top", ()) == {"ht"}
        assert eval_multiop(alg, "bot", ()) == {"hf"}
