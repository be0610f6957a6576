"""validate_tree against random proofs and tampered copies of them, the
tree search against a brute-force oracle, Set-Fmla replays of random
sequents, and the flat tree exports against the trees."""

import json
import re
from itertools import product

from hypothesis import given, settings, strategies as st

from conftest import copy_tree, random_formula, random_sequent
from mvlogic.calculus import (
    Calculus,
    Proved,
    Rule,
    _Searcher,
    prove,
    to_set_fmla_calculus,
    tree_to_dot,
    tree_to_json,
    validate_tree,
)
from mvlogic.formula import app, big_or, canon_key, render_formula, var
from mvlogic.registry import KIND_CALCULUS, lookup

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

CALCULI = [lookup(KIND_CALCULUS, name).payload for name in ("r-b", "r-pp-leq")]
REPLAYED = [to_set_fmla_calculus(lookup(KIND_CALCULUS, name).payload)
            for name in ("r-b", "r-pp-leq", "r-leq")]


@st.composite
def sequents(draw, calculi, most_variables=3):
    """A calculus and a random sequent over 2 to most_variables variables.
    Most sequents carry a case split or a De Morgan instance over random
    formulas, so that many proofs branch."""
    calc = draw(st.sampled_from(calculi))
    rng = draw(st.randoms(use_true_random=False))
    names = ["p", "q", "r"][: draw(st.integers(2, most_variables))]
    models = (calc.source or calc).models
    conns = dict(models[0].algebra.connectives)
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
    return calc, premises, goal


@st.composite
def proofs(draw):
    """A Proved tree of a random 2-3-variable sequent, or None."""
    calc, premises, goal = draw(sequents(CALCULI))
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


def _search(instances, premises, goal, truths=None):
    """Runs the tree search over ground instances given as (antecedent,
    succedent) pairs; each tree found must validate on the calculus whose
    rules are those instances, and count its nodes."""
    named = [("i%d" % k, {}, frozenset(a), frozenset(s))
             for k, (a, s) in enumerate(instances)]
    searcher = _Searcher(named, frozenset(goal), 1_000_000, truths)
    tree = searcher.run(frozenset(premises))
    if tree is None:
        assert searcher.nodes == 0
    else:
        calc = Calculus("instances", [Rule(n, a, s) for n, _, a, s in named])
        assert validate_tree(calc, tree, premises, goal) is None
        assert searcher.nodes == sum(1 for _ in walk(tree))
    return searcher, tree


@st.composite
def ground_sequents(draw):
    """Up to 6 atoms, premises and goal that do not meet, instances with
    0-2 antecedent and 0-3 succedent atoms, and optional truth rows to
    steer the branching.  An instance is a case split or one that closes
    on at most one goal atom; with arbitrary instances, almost every
    sequent without a model closes before any branching."""
    atoms = [var("a%d" % i) for i in range(draw(st.integers(1, 6)))]
    roles = draw(st.lists(st.sampled_from("pg-"), min_size=len(atoms),
                          max_size=len(atoms)))
    premises = {a for a, r in zip(atoms, roles) if r == "p"}
    goal = {a for a, r in zip(atoms, roles) if r == "g"}
    side = lambda pool, least, most: st.sets(
        st.sampled_from(pool), min_size=min(least, len(pool)), max_size=most)
    split = st.tuples(side(atoms, 0, 1), side(atoms, 2, 3))
    close = st.tuples(side(atoms, 1, 2),
                      side(sorted(goal, key=canon_key) or atoms, 0, 1))
    instances = draw(st.lists(split | close, max_size=10))
    truths = draw(st.none() | st.fixed_dictionaries(
        {a: st.integers(0, 255) for a in atoms}))
    return atoms, instances, premises, goal, truths


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ground_sequents())
def test_search_finds_a_tree_iff_no_model(case):
    atoms, instances, premises, goal, truths = case
    # a model: premises true, goal false, and every instance satisfied
    has_model = any(
        premises <= true and not (true & goal) and all(
            not ant <= true or succ & true for ant, succ in instances
        )
        for true in (
            {a for a, bit in zip(atoms, bits) if bit}
            for bits in product((0, 1), repeat=len(atoms))
        )
    )
    searcher, tree = _search(instances, premises, goal, truths)
    assert (tree is None) == has_model
    assert searcher.saturated == has_model


def test_saturated_branch_ends_the_search():
    a, b, c, d, e = (var(x) for x in "abcde")
    searcher, tree = _search([((), (a, b)), ((), (c, d))], (), {e})
    # root, its first branch and that branch's own branch: the label a, c
    # satisfies both instances, so trying another choice cannot close it
    assert tree is None and searcher.saturated
    assert searcher.steps == 3
    # depth first: the first child's subtree closes in 3 steps before its
    # sibling b saturates
    searcher, tree = _search([((), (a, b)), ((a,), (c,)), ((c,), (e,))],
                             (), {e})
    assert tree is None and searcher.saturated
    assert searcher.steps == 5


def test_long_branching_chain_builds_without_recursion():
    q = [var("q%d" % i) for i in range(3001)]
    g = var("g")
    instances = [((q[i],), (q[i + 1], g)) for i in range(3000)]
    searcher, tree = _search(instances + [((q[3000],), (g,))], {q[0]}, {g})
    assert tree is not None and not searcher.saturated
    assert (searcher.nodes, searcher.steps) == (6002, 3002)


def test_closed_subtree_is_reused():
    a, b, c, d, e, g, p = (var(x) for x in "abcdegp")
    # c's subtree under a needs only c, and d's only d: b's children c and
    # d close by the same steps
    searcher, tree = _search(
        [((p,), (a, b)), ((a,), (c, d)), ((b,), (c, d)), ((c,), (e,)),
         ((e,), (g,)), ((d,), (g,))],
        {p}, {g},
    )
    under_a, under_b = tree.children
    for old, new in zip(under_a.children, under_b.children):
        assert new is not old and new.children is old.children
        assert (new.rule, new.subst) == (old.rule, old.subst)
    assert searcher.reused == 2
    # root, a, c, e, g, d, g, b, then steps for neither of b's children
    assert (searcher.steps, searcher.nodes) == (8, 13)


def test_closed_subtree_is_not_reused_when_its_adds_meet_the_label():
    a, b, c, d, e, g, p = (var(x) for x in "abcdegp")
    # under a, c's subtree adds e; under b, e comes before c does
    searcher, tree = _search(
        [((p,), (a, b)), ((a,), (c, d)), ((b,), (c, d)), ((c,), (e,)),
         ((c, e), (g,)), ((d,), (g,)), ((b,), (e,))],
        {p}, {g},
    )
    under_a, under_b = tree.children
    c_under_b = under_b.children[0].children[0]
    assert c_under_b.adds == {c} and c_under_b.rule == "i4"
    assert c_under_b.children is not under_a.children[0].children
    assert searcher.reused == 1


def test_closed_subtree_is_not_reused_without_its_needed_formulas():
    a, b, c, d, g, p = (var(x) for x in "abcdgp")
    # c's subtree under a needs a, which b's label lacks
    searcher, tree = _search(
        [((p,), (a, b)), ((a,), (c, d)), ((b,), (c, d)), ((a, c), (g,)),
         ((b, c), (g,)), ((d,), (g,))],
        {p}, {g},
    )
    under_a, under_b = tree.children
    assert under_b.children[0].rule == "i4"
    assert under_b.children[1].children is under_a.children[1].children
    assert searcher.reused == 1


def _dot_nodes(dot):
    return sum(1 for line in dot.splitlines() if re.match(r"  n\d+ \[", line))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sequents(REPLAYED, most_variables=2))
def test_replayed_chains_validate_and_export(case):
    # the goal folded into one disjunction, replayed from the source's proof
    rv, premises, goal = case
    goal = {big_or(sorted(goal, key=canon_key))}
    res = prove(rv, premises, goal, budget_nodes=10_000)
    if not isinstance(res, Proved):
        return
    assert res.stats.route in ("replay", "closed")
    assert validate_tree(rv, res.tree, premises, goal) is None
    data = tree_to_json(res.tree)
    assert json.loads(json.dumps(data)) == data
    nodes = sum(1 for _ in walk(res.tree))
    assert len(data["nodes"]) == _dot_nodes(tree_to_dot(res.tree)) == nodes
    assert res.stats.nodes == nodes


@SETTINGS
@given(proofs())
def test_flat_json_export_keeps_every_label(proof):
    if proof is None:
        return
    _, tree, premises, _ = proof
    data = json.loads(json.dumps(tree_to_json(tree)))
    nodes = data["nodes"]
    assert data["label"] == sorted(render_formula(f) for f in premises)
    # each TreeNode's label against its record's: the root's label plus
    # the adds of the records on the path through the children indices
    visited = []
    stack = [(tree, 0, tree.adds, frozenset(data["label"]))]
    while stack:
        node, i, label, rebuilt = stack.pop()
        visited.append(i)
        record = nodes[i]
        assert rebuilt == {render_formula(f) for f in label}
        assert record.get("rule") == node.rule
        assert record.get("closed", False) == node.closed
        assert record.get("star", False) == node.star
        kids = record.get("children", [])
        assert len(kids) == len(node.children)
        for child, k in zip(node.children, kids):
            stack.append(
                (child, k, label | child.adds, rebuilt | set(nodes[k]["adds"]))
            )
    assert sorted(visited) == list(range(len(nodes)))
    assert _dot_nodes(tree_to_dot(tree)) == len(nodes)
