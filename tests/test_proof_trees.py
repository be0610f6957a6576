"""validate_tree against random proofs and tampered copies of them."""

from hypothesis import given, settings, strategies as st

from conftest import copy_tree, random_formula, random_sequent
from mvlogic.calculus import Proved, prove, validate_tree
from mvlogic.formula import app, canon_key, var
from mvlogic.registry import KIND_CALCULUS, lookup

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

CALCULI = [lookup(KIND_CALCULUS, name).payload for name in ("r-b", "r-pp-leq")]


@st.composite
def proofs(draw):
    """A Proved tree of a random 2-3-variable sequent, or None.  Most
    sequents carry a case split or a De Morgan instance over random
    formulas, so that many proofs branch."""
    calc = draw(st.sampled_from(CALCULI))
    rng = draw(st.randoms(use_true_random=False))
    names = ["p", "q", "r"][: draw(st.integers(2, 3))]
    conns = dict(calc.models[0].algebra.connectives)
    premises, goal = random_sequent(rng, conns, names)
    a, b = (random_formula(rng, conns, names, 2) for _ in range(2))
    shape = draw(st.integers(0, 3))
    if shape == 1:
        premises, goal = {app("or", a, b)}, {a, b}
    elif shape == 2:
        premises = {app("neg", app("and", a, b))}
        goal = {app("or", app("neg", a), app("neg", b))}
    elif shape == 3:
        premises = premises | {app("or", a, b)}
        goal = goal | {a, b}
    res = prove(calc, premises, goal, budget_nodes=10_000)
    if not isinstance(res, Proved):
        return None
    return calc, res.tree, premises, goal


def walk(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


@SETTINGS
@given(proofs(), st.data())
def test_proofs_validate_and_tampering_is_caught(proof, data):
    if proof is None:
        return
    calc, tree, premises, goal = proof
    assert validate_tree(calc, tree, premises, goal) is None

    tampered = copy_tree(tree)
    others = [n for n in walk(tampered) if n is not tampered]
    if others:
        node = data.draw(st.sampled_from(others))
        pool = {f for n in walk(tampered) for f in n.adds} | {var("fresh")}
        pool -= node.adds
        phi = data.draw(st.sampled_from(sorted(pool, key=canon_key)))
        node.adds = frozenset({phi})
        assert validate_tree(calc, tampered, premises, goal) is not None

    pruned = copy_tree(tree)
    branching = [n for n in walk(pruned) if len(n.children) > 1]
    if branching:
        node = data.draw(st.sampled_from(branching))
        node.children.pop(data.draw(st.integers(0, len(node.children) - 1)))
        assert validate_tree(calc, pruned, premises, goal) is not None
