"""Discriminator search and refinement-rule generation."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mvlogic.axiomatizer import (
    Discriminator,
    NotMonadic,
    find_discriminator,
    generate_refinement_rules,
    subsume_simplify,
    unary_profile,
)
from mvlogic.calculus import Rule
from mvlogic.errors import NotARefinement
from mvlogic.formula import (
    parse_formula,
    parse_formula_set,
    subformulas,
    substitute,
    var,
    variables,
)
from mvlogic.registry import (
    MAT_DM4,
    MAT_LETK_UB,
    MAT_PP6A1_UB,
    MAT_PP6_UB,
    lookup,
    names,
)
from mvlogic.semantics import Sound, check_rule_soundness, solve_valuations


def profile_oracle(m, formula, a):
    """Values the formula can take when p is pinned to a, computed through
    the valuation search instead of profile composition."""
    from mvlogic.formula import subformulas

    domain = subformulas(formula)
    cons = {var("p"): frozenset({a})}
    return frozenset(
        w[formula] for w in solve_valuations(m, domain, cons)
    )


def test_unary_profile_matches_valuation_oracle():
    for m in (MAT_PP6_UB, MAT_PP6A1_UB):
        for text in ("p", "~p", "@p", "@(p => p)" if "imp" in
                     m.algebra.interp else "@~p"):
            f = parse_formula(text)
            prof = unary_profile(m, f)
            for i, a in enumerate(m.carrier):
                assert prof[i] == profile_oracle(m, f, a)


def test_dm4_separators():
    d = find_discriminator(MAT_DM4, 1)
    assert isinstance(d, Discriminator)
    used = set()
    for a in MAT_DM4.carrier:
        used |= d.pos.get(a, frozenset()) | d.neg.get(a, frozenset())
    assert used == {parse_formula("p"), parse_formula("~p")}


REFERENCE_TABLE = {
    "hf": ("@p", "p"),
    "f": ("~p", "@p, p"),
    "n": ("", "p, @p, ~p"),
    "b": ("p, ~p", "@p"),
    "t": ("p", "@p, ~p"),
    "ht": ("p, @p", ""),
}


def test_discriminator_search_reports_its_work():
    d = find_discriminator(MAT_PP6_UB, 3)
    assert (d.explored, d.depth) == (5, 1)
    # depth 0 is p, top and bot: no separator yet, and no saturation
    res = find_discriminator(MAT_PP6A1_UB, 0)
    assert res == NotMonadic(("hf", "f"), False, 3, 0)


def test_unbounded_search_ends_at_saturation():
    m = lookup("matrix", "pp6h-ut").payload
    res = find_discriminator(m, None)
    assert res == NotMonadic(("n", "b"), saturated=True, explored=192, depth=5)


@pytest.mark.parametrize("name, depth, candidates", [
    # the walk evaluates exactly these many candidate profiles; starting
    # the last argument of a symmetric connective at the head keeps them
    # this low
    ("m-leq", None, 374_544),
    ("pp6h-ut", None, 74_304),
    ("pp6-ub", 3, 6),
])
def test_clone_walk_candidate_counts(name, depth, candidates):
    res = find_discriminator(lookup("matrix", name).payload, depth)
    assert res.candidates == candidates


def test_pp6_ub_discriminator_table():
    d = find_discriminator(MAT_PP6_UB, 1)
    assert isinstance(d, Discriminator)
    des = MAT_PP6_UB.designated
    undes = frozenset(MAT_PP6_UB.carrier) - des
    for a, (pos_text, neg_text) in REFERENCE_TABLE.items():
        pos = parse_formula_set(pos_text)
        neg = parse_formula_set(neg_text)
        assert d.pos.get(a, frozenset()) == pos
        assert d.neg.get(a, frozenset()) == neg
        i = MAT_PP6_UB.carrier.index(a)
        for f in pos:
            assert unary_profile(MAT_PP6_UB, f)[i] <= des
        for f in neg:
            assert unary_profile(MAT_PP6_UB, f)[i] <= undes


def test_discriminator_isolates_values():
    d = find_discriminator(MAT_PP6_UB, 1)
    carrier = MAT_PP6_UB.carrier
    des = MAT_PP6_UB.designated
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            if a == b:
                continue
            separated = False
            for f in d.formulas(a) | d.formulas(b):
                pa = unary_profile(MAT_PP6_UB, f)[i] <= des
                pb = unary_profile(MAT_PP6_UB, f)[j] <= des
                na = unary_profile(MAT_PP6_UB, f)[i] <= (
                    frozenset(carrier) - des
                )
                nb = unary_profile(MAT_PP6_UB, f)[j] <= (
                    frozenset(carrier) - des
                )
                if (pa and nb) or (na and pb):
                    separated = True
                    break
            assert separated, (a, b)


def test_generate_refinement_rules_shape():
    d = find_discriminator(MAT_PP6A1_UB, 1)
    rules = generate_refinement_rules(MAT_PP6A1_UB, MAT_LETK_UB, d)
    # every imp entry of the A1 matrix has three values, LET_K+ keeps one
    assert len(rules) == 72
    assert all(r.name.startswith("del_imp_") for r in rules)


def test_generate_refinement_rules_example_verbatim():
    d = find_discriminator(MAT_PP6A1_UB, 1)
    rules = generate_refinement_rules(MAT_PP6A1_UB, MAT_LETK_UB, d)
    by_name = {r.name: r for r in rules}
    rule = by_name["del_imp_b_hf_n"]
    assert rule.antecedent == parse_formula_set("p, ~p, @q")
    assert rule.succedent == parse_formula_set(
        "@p, q, p => q, ~(p => q), @(p => q)"
    )


def test_generate_refinement_rules_no_deletions():
    d = find_discriminator(MAT_LETK_UB, 1)
    assert generate_refinement_rules(MAT_LETK_UB, MAT_LETK_UB, d) == []


def test_generate_refinement_rules_errors():
    d = find_discriminator(MAT_PP6A1_UB, 1)
    with pytest.raises(NotARefinement):
        generate_refinement_rules(MAT_DM4, MAT_LETK_UB, d)
    with pytest.raises(NotARefinement):
        # arguments swapped: the A1 matrix is not a refinement of LET_K+
        generate_refinement_rules(MAT_LETK_UB, MAT_PP6A1_UB, d)


def test_refinement_keeps_the_connectives():
    # pp6h-ub shares pp6-ub's carrier and filter but also interprets =>, so
    # neither refines the other, and rules for pp6-ub's connectives alone
    # would say nothing about =>
    pp6h_ub = lookup("matrix", "pp6h-ub").payload
    d = find_discriminator(MAT_PP6A1_UB, 1)
    for base, refined in ((MAT_PP6_UB, pp6h_ub), (pp6h_ub, MAT_PP6_UB)):
        with pytest.raises(NotARefinement, match="^connectives differ: imp$"):
            generate_refinement_rules(base, refined, d)


def test_generated_rules_sound():
    d = find_discriminator(MAT_PP6A1_UB, 1)
    rules = generate_refinement_rules(MAT_PP6A1_UB, MAT_LETK_UB, d)
    for rule in rules:
        assert isinstance(
            check_rule_soundness(rule, [MAT_LETK_UB]), Sound
        ), rule.name


def test_subsume_simplify():
    p, q = var("p"), var("q")
    base = Rule("r2cl", frozenset(), parse_formula_set("p, p => q"))
    diluted = Rule(
        "fat", frozenset({parse_formula("@q")}),
        parse_formula_set("p, p => q, @p"),
    )
    kept = subsume_simplify([base, diluted])
    assert kept == [base]
    # renamed duplicates collapse to the first
    renamed = Rule(
        "copy",
        frozenset(),
        frozenset(
            substitute(f, {"p": q, "q": p}) for f in base.succedent
        ),
    )
    assert subsume_simplify([base, renamed]) == [base]
    # incomparable rules survive
    other = Rule("other", parse_formula_set("q"), parse_formula_set("~q"))
    assert subsume_simplify([base, other]) == [base, other]


def _rule_subsumes(small, big):
    """True when a variable renaming embeds small's antecedent and succedent
    into big's (big is then a dilution of small)."""
    small_vars = sorted(
        {v.head for f in small.antecedent | small.succedent for v in subformulas(f) if v.is_var}
    )
    big_vars = sorted(
        {v.head for f in big.antecedent | big.succedent for v in subformulas(f) if v.is_var}
    )
    if not small_vars:
        return (
            small.antecedent <= big.antecedent
            and small.succedent <= big.succedent
        )
    for target in product(big_vars or ["p"], repeat=len(small_vars)):
        rho = {sv: var(tv) for sv, tv in zip(small_vars, target)}
        ant = {substitute(f, rho) for f in small.antecedent}
        succ = {substitute(f, rho) for f in small.succedent}
        if ant <= big.antecedent and succ <= big.succedent:
            return True
    return False


def reference_subsume_simplify(rules):
    """subsume_simplify as a renaming search on every ordered pair."""
    rules = list(rules)
    keep = []
    for i, r in enumerate(rules):
        dropped = False
        for j, other in enumerate(rules):
            if i == j:
                continue
            if _rule_subsumes(other, r):
                if _rule_subsumes(r, other) and i < j:
                    continue
                dropped = True
                break
        if not dropped:
            keep.append(r)
    return keep


CALCULI = [lookup("calculus", n).payload for n in names("calculus")]


@st.composite
def rule_lists(draw):
    """Rules of one registered calculus, each maybe followed by a renamed
    copy (variables to variables, not always injective) and a dilution
    (formulas of the calculus added on either side), in shuffled order."""
    calc = draw(st.sampled_from(CALCULI))
    pool = sorted({f for r in calc.rules for f in r.antecedent | r.succedent})
    extra = st.frozensets(st.sampled_from(pool), max_size=2)
    picked = draw(st.lists(st.sampled_from(calc.rules), min_size=1, max_size=5))
    rules = []
    for r in picked:
        rules.append(r)
        if draw(st.booleans()):
            targets = st.sampled_from(["p", "q", "r", "s"]).map(var)
            rho = {v: draw(targets) for v in sorted(variables(r.antecedent | r.succedent))}
            r = Rule(
                r.name + "-renamed",
                frozenset(substitute(f, rho) for f in r.antecedent),
                frozenset(substitute(f, rho) for f in r.succedent),
            )
            rules.append(r)
        if draw(st.booleans()):
            rules.append(Rule(
                r.name + "-diluted", r.antecedent | draw(extra), r.succedent | draw(extra)
            ))
    return draw(st.permutations(rules))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rule_lists())
def test_subsume_simplify_matches_pairwise_search(rules):
    got = subsume_simplify(rules)
    want = reference_subsume_simplify(rules)
    assert [id(r) for r in got] == [id(r) for r in want]


def test_subsume_simplify_keeps_generated_rules():
    d = find_discriminator(MAT_PP6_UB, 3)
    rules = generate_refinement_rules(MAT_PP6A1_UB, MAT_LETK_UB, d)
    got = subsume_simplify(rules)
    assert len(got) == 72
    assert all(a is b for a, b in zip(got, rules))
