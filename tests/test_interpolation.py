"""Interpolant constructions and the deduction-detachment checks."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import formulas
from mvlogic.errors import NoSharedVariables, PremiseNotEntailed
from mvlogic.formula import parse_formula, parse_formula_set, subformulas, var, variables
from mvlogic.interpolation import (
    ASSERTIONAL,
    InterpolationInstance,
    ORDER_PRESERVING,
    check_ddt_instance,
    cip_failure_certificate,
    cip_witness,
    eip_interpolant,
    entails,
    maehara_interpolant,
    valuation_family,
)
from mvlogic.registry import ALG_PP6H, ORDER_CLASS
from mvlogic.semantics import (
    ConsequenceProblem,
    Fails,
    Holds,
    check_consequence,
)


def test_entails_basics():
    p = parse_formula("p")
    assert entails(ORDER_PRESERVING, {p}, p)
    assert entails(ASSERTIONAL, {p}, parse_formula("@p"))
    assert not entails(ORDER_PRESERVING, {p}, parse_formula("@p"))


def test_ddt_examples():
    assert check_ddt_instance(
        ORDER_PRESERVING, {parse_formula("p")}, parse_formula("q"),
        parse_formula("p"),
    ) == (True, True)
    assert check_ddt_instance(
        ORDER_PRESERVING, set(), parse_formula("p"), parse_formula("p")
    ) == (True, True)
    assert check_ddt_instance(
        ASSERTIONAL, set(), parse_formula("p"), parse_formula("@p")
    ) == (True, True)


def test_eip_trivial_instance():
    inst = InterpolationInstance(
        parse_formula_set("p"), parse_formula_set("q"), parse_formula("q")
    )
    assert eip_interpolant(inst) == {parse_formula("q => q")}


def test_eip_construction_verified():
    inst = InterpolationInstance(
        parse_formula_set("p & q"), parse_formula_set("r"),
        parse_formula("p & r"),
    )
    pi = eip_interpolant(inst)
    assert pi == {parse_formula("r => (p & r)")}
    (f,) = pi
    assert entails(ORDER_PRESERVING, inst.phi, f)
    assert entails(ORDER_PRESERVING, inst.psi | pi, inst.goal)


def test_eip_not_entailed():
    inst = InterpolationInstance(
        parse_formula_set("p"), frozenset(), parse_formula("q")
    )
    with pytest.raises(PremiseNotEntailed):
        eip_interpolant(inst)


def test_maehara_single_case():
    inst = InterpolationInstance(
        parse_formula_set("p"), frozenset(), parse_formula("p | q"),
    )
    xi = maehara_interpolant(inst)
    assert xi == parse_formula("p & @p")


def test_maehara_vacuous_premises():
    inst = InterpolationInstance(
        parse_formula_set("bot & p"), frozenset(), parse_formula("p"),
    )
    xi = maehara_interpolant(inst)
    assert xi == parse_formula("bot")


def test_maehara_verified_instance():
    inst = InterpolationInstance(
        parse_formula_set("p & @p, q"), parse_formula_set("q => r"),
        parse_formula("r & p"),
    )
    xi = maehara_interpolant(inst)
    shared = variables(inst.phi) & variables(inst.psi | {inst.goal})
    assert variables(xi) <= shared
    assert entails(ASSERTIONAL, inst.phi, xi)
    assert entails(ASSERTIONAL, inst.psi | {xi}, inst.goal)


def test_maehara_cross_conjuncts_for_b_and_n_values():
    # an assignment that gives one shared variable the value b and another
    # n adds ~@(x => y) for x valued b and y valued n
    inst = InterpolationInstance(
        parse_formula_set("r | q & p"), frozenset(),
        parse_formula("(p & q) | r"),
    )
    subs = subformulas(maehara_interpolant(inst))
    assert parse_formula("~@(p => q)") in subs
    assert parse_formula("~@(q => p)") in subs


def test_maehara_needs_shared_variables():
    inst = InterpolationInstance(
        parse_formula_set("p"), frozenset(), parse_formula("q | ~q"),
    )
    with pytest.raises(NoSharedVariables):
        maehara_interpolant(inst)


def test_cip_witness_entailment():
    phi, goal = cip_witness()
    assert entails(ORDER_PRESERVING, {phi}, goal)


def test_cip_certificate_checks_through_the_semantics_module(monkeypatch):
    # a wrapper installed on mvlogic.semantics (as a tracer does) must see
    # the certificate's entailment checks
    import mvlogic.semantics

    class Seen(Exception):
        pass

    def check(problem):
        raise Seen(problem)

    monkeypatch.setattr(mvlogic.semantics, "check_consequence", check)
    with pytest.raises(Seen) as seen:
        cip_failure_certificate()
    phi, goal = cip_witness()
    problem = seen.value.args[0]
    assert (problem.premises, problem.conclusions) == ({phi}, {goal})


def test_heyting_implication_not_classic_like():
    p_or_q = parse_formula_set("p | q")
    res = check_consequence(
        ConsequenceProblem(ORDER_CLASS, p_or_q, parse_formula_set("p, q"))
    )
    assert isinstance(res, Holds)
    res = check_consequence(
        ConsequenceProblem(
            ORDER_CLASS, frozenset(), parse_formula_set("(p | q) => p, q")
        )
    )
    assert isinstance(res, Fails)


def test_cip_certificate_takes_filters_from_the_matrices(monkeypatch):
    from mvlogic import registry
    from mvlogic.semantics import PNMatrix

    want = cip_failure_certificate()
    renamed = [
        PNMatrix("m%d" % i, m.algebra, m.designated) for i, m in enumerate(ORDER_CLASS)
    ]
    monkeypatch.setattr(registry, "ORDER_CLASS", renamed)
    assert cip_failure_certificate() == want


def test_cip_certificate_builds_its_algebra_once(monkeypatch):
    # the lattice laws of PP6=>H are checked when its FiniteAlgebra is
    # built; a second certificate sweeps the clone of the same one
    import mvlogic.algebra

    seen = []
    sweep = mvlogic.algebra.unary_term_functions

    def recorded(alg):
        seen.append(alg)
        return sweep(alg)

    monkeypatch.setattr(mvlogic.algebra, "unary_term_functions", recorded)
    assert cip_failure_certificate() == cip_failure_certificate()
    first, second = seen
    assert first is second


def test_valuation_family_gives_a_shared_variable_outside_phi_every_value():
    # q is not in phi: it takes every value, in carrier order
    assert valuation_family([var("p")], ["q"]) == [(v,) for v in ALG_PP6H.carrier]
    assert valuation_family([var("p")], ["q", "p"]) == [
        (v, "ht") for v in ALG_PP6H.carrier]
    assert valuation_family([], ["q"]) == [(v,) for v in ALG_PP6H.carrier]


def brute_valuation_family(phi, shared):
    """valuation_family by evaluating phi on the pp6h tables under every
    assignment to the variables of phi and the shared ones, by name, in
    lexicographic order of carrier positions."""
    table = ALG_PP6H.interp

    def value(f, at):
        if f.is_var:
            return at[f.head]
        (out,) = table[f.head][tuple(value(a, at) for a in f.args)]
        return out

    names = sorted(variables(phi) | set(shared))
    out = []
    for values in product(ALG_PP6H.carrier, repeat=len(names)):
        at = dict(zip(names, values))
        proj = tuple(at[x] for x in shared)
        if all(value(f, at) == "ht" for f in phi) and proj not in out:
            out.append(proj)
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(formulas(ALG_PP6H.connectives, ["p", "q", "r"], 4), max_size=2),
    st.lists(st.sampled_from(["p", "q", "r", "s"]), max_size=3, unique=True),
)
def test_valuation_family_matches_brute_force(phi, shared):
    assert valuation_family(phi, shared) == brute_valuation_family(phi, shared)
