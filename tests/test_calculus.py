"""Proof search, tree validation, countermodels and the disjunction
transform."""

from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_formulas, copy_tree, formulas, materialized
from mvlogic import sat
from mvlogic.calculus import (
    Calculus,
    Inconclusive,
    OutOfBudget,
    ProveStats,
    Proved,
    Refuted,
    Rule,
    SET_SET,
    TreeNode,
    _Searcher,
    _build_instances,
    _decide,
    _model_truths,
    countermodel,
    countermodel_from_partition,
    prove,
    to_set_fmla_calculus,
    tree_to_dot,
    tree_to_json,
    validate_tree,
)
from mvlogic.errors import (
    ClassificationError,
    FrameworkMismatch,
    MissingDisjunction,
    MvlError,
)
from mvlogic.formula import (
    Formula,
    app,
    canon_key,
    generalized_subformulas,
    parse_formula,
    parse_formula_set,
    subformulas,
    substitute,
    var,
    variables,
)
from mvlogic.registry import (
    ALG_PP6H,
    KIND_CALCULUS,
    KIND_MATRIX_CLASS,
    MAT_PP6H,
    lookup,
    names,
)
from mvlogic.semantics import (
    SET_FMLA,
    ConsequenceProblem,
    Fails,
    Holds,
    MultiAlgebra,
    PNMatrix,
    check_consequence,
    solve_valuations,
)


R_B = lookup(KIND_CALCULUS, "r-b").payload
R_LEQ = lookup(KIND_CALCULUS, "r-leq").payload


def test_prove_de_morgan_example():
    premises = parse_formula_set("~(p & q)")
    goal = parse_formula_set("~p | ~q")
    res = prove(R_B, premises, goal)
    assert isinstance(res, Proved)
    assert validate_tree(R_B, res.tree, premises, goal) is None


def test_prove_bot_branch_example():
    premises = parse_formula_set("p | bot")
    goal = parse_formula_set("p, r")
    res = prove(R_B, premises, goal)
    assert isinstance(res, Proved)
    assert validate_tree(R_B, res.tree, premises, goal) is None
    # the variable-free rules r1 (|> top) and r4 (bot |>) are grounded once
    # each, and r1 is dropped when top lies outside the universe
    base = premises | goal
    targets = sorted(subformulas(base), key=canon_key)
    universe = frozenset(generalized_subformulas(base, R_B.xi))
    names = [i[0] for i in _build_instances(R_B, targets, universe)]
    assert names.count("r4") == 1 and "r1" not in names
    names = [i[0] for i in _build_instances(R_B, targets, None)]
    assert names.count("r1") == 1 and names.count("r4") == 1


def test_prove_trivial_closure():
    premises = parse_formula_set("p")
    goal = parse_formula_set("p, q")
    res = prove(R_B, premises, goal)
    assert isinstance(res, Proved)
    assert res.tree.closed and not res.tree.children


def test_premises_meeting_the_goal_close_the_root_without_work(monkeypatch):
    # the root closes before any grounding, on every route, at budget 0
    def no_grounding(calc, targets, universe):
        raise AssertionError("grounded %s" % calc.name)

    monkeypatch.setattr("mvlogic.calculus._build_instances", no_grounding)
    premises = parse_formula_set("p")
    calcs = [lookup(KIND_CALCULUS, name).payload
             for name in ("r-b", "r-leq", "pp-top-rules")]
    for calc, goal_text in [(c, "p, q") for c in calcs] + [
        (to_set_fmla_calculus(R_LEQ), "p")
    ]:
        goal = parse_formula_set(goal_text)
        res = prove(calc, premises, goal, budget_nodes=0)
        assert isinstance(res, Proved), calc.name
        assert res.tree.closed and not res.tree.children
        assert res.stats == ProveStats("closed", None, 0, nodes=1)
        assert validate_tree(calc, res.tree, premises, goal) is None


def test_refuted_partition_invariants():
    goal = parse_formula_set("(p | q) => p, q")
    res = prove(R_LEQ, frozenset(), goal)
    assert isinstance(res, Refuted)
    part = res.partition
    assert part.omega | part.omega_bar == part.universe
    assert not part.omega & part.omega_bar
    assert not part.omega & goal


def test_countermodel_from_refutation():
    goal = parse_formula_set("(p | q) => p, q")
    res = prove(R_LEQ, frozenset(), goal)
    valuation, a = countermodel_from_partition(res.partition, "leq")
    assert a != "t"
    matrix = MAT_PP6H[a]
    for f in goal:
        assert valuation[f] not in matrix.designated
    # the classification is a legal valuation of the matrix
    cons = {f: frozenset({v}) for f, v in valuation.items()}
    assert solve_valuations(matrix, set(valuation), cons, limit=1)


def test_countermodel_reads_tables_without_search(monkeypatch):
    goal = parse_formula_set("(p | q) => p, q")
    res = prove(R_LEQ, frozenset(), goal)
    want = countermodel_from_partition(res.partition, "leq")

    def no_search(*args, **kwargs):
        raise AssertionError("countermodel_from_partition searched valuations")

    monkeypatch.setattr("mvlogic.semantics.solve_valuations", no_search)
    assert countermodel_from_partition(res.partition, "leq") == want


def test_countermodel_rejects_an_unrealizable_partition():
    # p designated forces p | q designated on every filter of the order
    p = var("p")
    base = frozenset({app("or", p, var("q"))})
    part = SimpleNamespace(omega=frozenset({p}), base=base)
    with pytest.raises(ClassificationError, match="no model realizes"):
        countermodel(lookup(KIND_MATRIX_CLASS, "pp6h-order").payload, part)


def test_countermodel_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        countermodel_from_partition(SimpleNamespace(), "down")


def test_validate_tree_rejects_tampering():
    premises = parse_formula_set("~(p & q)")
    goal = parse_formula_set("~p | ~q")
    tree = prove(R_B, premises, goal).tree

    bad_root = copy_tree(tree)
    bad_root.adds = frozenset(parse_formula_set("r"))
    assert validate_tree(R_B, bad_root, premises, goal) is not None

    bad_rule = copy_tree(tree)
    node = bad_rule
    while node.children and node.rule is None:
        node = node.children[0]
    node.rule = "no_such_rule"
    assert validate_tree(R_B, bad_rule, premises, goal) is not None

    pruned = copy_tree(tree)
    node = pruned
    while node.children:
        if len(node.children) > 1:
            node.children.pop()
            break
        node = node.children[0]
    assert validate_tree(R_B, pruned, premises, goal) is not None

    # a star node is legal only as the one child of an empty-succedent step
    p, q = parse_formula_set("p"), parse_formula_set("q")
    star_root = TreeNode(frozenset(p), star=True)
    assert validate_tree(R_B, star_root, p, q) is star_root

    starred = copy_tree(tree)
    branch = next(n for n in _walk(starred) if len(n.children) > 1)
    child = next(c for c in branch.children if not c.closed)
    child.children, child.star = [], True
    assert validate_tree(R_B, starred, premises, goal) is child

    unclosed = copy_tree(tree)
    leaf = next(n for n in _walk(unclosed) if n.closed)
    leaf.closed = False
    assert validate_tree(R_B, unclosed, premises, goal) is leaf

    # the root may hold fewer than the premises, but the first step's
    # antecedent is then missing from the label
    bare = copy_tree(tree)
    bare.adds = frozenset()
    assert validate_tree(R_B, bare, premises, goal) is bare


def _walk(tree):
    """The nodes in validate_tree's order."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def test_validate_tree_checks_a_node_whose_sides_are_kept():
    # nodes of the k=2 ladder tree that apply one instance share its
    # substitution dict: the second such node keeps the sides it
    # substituted and the third reuses them, and both must still check
    # their children
    premises = parse_formula_set("~(p1 & p2)")
    goal = parse_formula_set("~p1 | ~p2")
    tree = prove(R_LEQ, premises, goal).tree
    steps = [node for node in _walk(tree) if node.children]
    uses = {}
    for k, node in enumerate(steps):
        uses.setdefault(id(node.subst), []).append(k)
    _, second, third = next(ks for ks in uses.values() if len(ks) >= 3)[:3]
    for k in (second, third):
        # copy_tree keeps the substitution dicts
        bad = copy_tree(tree)
        node = [node for node in _walk(bad) if node.children][k]
        node.children[0].adds = frozenset({var("r")})
        assert validate_tree(R_LEQ, bad, premises, goal) is node


def _full_search(calc, premises, goal):
    """The tree search over every ground instance, the route of a calculus
    without an analyticity set, run here on an analytic one."""
    base = premises | goal
    targets = sorted(subformulas(base), key=canon_key)
    universe = frozenset(generalized_subformulas(base, calc.xi))
    instances = materialized(_build_instances(calc, targets, universe))
    truths = _model_truths(calc, base, universe)
    return _Searcher(instances, goal, 1_000_000, truths).run(premises)


def _count(tree):
    nodes, stack = 0, [tree]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children)
    return nodes


def test_tree_nodes_store_only_what_they_add():
    import mvlogic.calculus

    assert not hasattr(mvlogic.calculus, "_ChainLabel")
    # the full search needs about 26,000 nodes on the k=2 De Morgan ladder
    # on r-leq, the search over the minimal unsatisfiable core about 1,200
    premises = parse_formula_set("~(p1 & p2)")
    goal = parse_formula_set("~p1 | ~p2")
    for tree, want in ((_full_search(R_LEQ, premises, goal), 25_727),
                       (prove(R_LEQ, premises, goal).tree, 1_166)):
        assert tree.adds == premises
        nodes = stars = total = 0
        stack = list(tree.children)
        while stack:
            node = stack.pop()
            nodes += 1
            if node.star:
                stars += 1
                assert not node.adds
            else:
                assert len(node.adds) == 1
            total += len(node.adds)
            stack.extend(node.children)
        # the exact count pins every branching choice of the steered search
        assert nodes == want
        assert total == nodes - stars
        assert validate_tree(R_LEQ, tree, premises, goal) is None


def test_steered_ladder_node_count():
    # r-up has four models, so the truth rows of the steering span them
    # all; a changed tie-break or weight changes the tree's size
    calc = lookup(KIND_CALCULUS, "r-up").payload
    premises = parse_formula_set("~(p1 & p2)")
    goal = parse_formula_set("~p1 | ~p2")
    tree = _full_search(calc, premises, goal)
    assert _count(tree) == 26_374
    assert validate_tree(calc, tree, premises, goal) is None
    # the core's instances, and so the tree, also depend on the solver's
    # choices and the core it extracts
    res = prove(calc, premises, goal)
    assert _count(res.tree) == res.stats.nodes == 1_217
    assert (res.stats.route, res.stats.core) == ("cdcl", 51)
    assert validate_tree(calc, res.tree, premises, goal) is None


def test_wider_ladder_within_the_benchmark_budget():
    # the k=3 ladder: the solver's assignments and the steps of the search
    # over the minimal core share the 50,000-node budget
    premises = parse_formula_set("~(p1 & p2 & p3)")
    goal = parse_formula_set("~p1 | ~p2 | ~p3")
    res = prove(R_LEQ, premises, goal, budget_nodes=50_000)
    assert isinstance(res, Proved)
    stats = res.stats
    assert (stats.core, stats.nodes) == (73, 17_646)
    # the deletion trials rotate their models, so many solves are spared;
    # 11 of the assignments find the model of Λ's instances first
    assert stats.assignments == 9_860
    assert stats.assignments + stats.steps == 11_423 <= 50_000
    assert validate_tree(R_LEQ, res.tree, premises, goal) is None
    # one node short of assignments + steps, the decided sequent still has
    # no certificate
    res = prove(R_LEQ, premises, goal, budget_nodes=11_422)
    assert isinstance(res, OutOfBudget)


def test_r_up_wider_ladder_within_the_benchmark_budget():
    # the k=3 ladder on r-up needs the largest tree of the prover's
    # workload: it fits only because model rotation keeps the core's
    # minimization to 13,390 assignments, 11 of them Λ's
    calc = lookup(KIND_CALCULUS, "r-up").payload
    premises = parse_formula_set("~(p1 & p2 & p3)")
    goal = parse_formula_set("~p1 | ~p2 | ~p3")
    res = prove(calc, premises, goal, budget_nodes=50_000)
    assert isinstance(res, Proved)
    stats = res.stats
    assert (stats.core, stats.steps, stats.nodes, stats.assignments) == (
        95, 1_769, 32_391, 13_390
    )
    assert stats.assignments + stats.steps <= 50_000
    assert _count(res.tree) == stats.nodes
    assert validate_tree(calc, res.tree, premises, goal) is None


def test_steering_rows_fit_one_kernel_chunk(monkeypatch):
    from mvlogic import kernel

    premises, goal = map(parse_formula_set, _ladder(2))
    base = premises | goal
    rows = sum(len(m.carrier) ** 2 for m in R_LEQ.models)  # 3 models, 108
    monkeypatch.setattr(kernel, "CHUNK", rows)
    truths = _model_truths(R_LEQ, base, subformulas(base))
    # p1 is designated, per model, in 6 rows per designated value
    designated = sum(len(m.designated) for m in R_LEQ.models)
    assert truths[var("p1")].bit_count() == 6 * designated
    assert max(truths.values()).bit_length() <= rows
    monkeypatch.setattr(kernel, "CHUNK", rows - 1)
    assert _model_truths(R_LEQ, base, base) is None


def test_five_variable_ladder_is_steered():
    # 3 models x 6**5 assignments = 23,328 rows, within one kernel chunk
    premises, goal = map(parse_formula_set, _ladder(5))
    base = premises | goal
    truths = _model_truths(R_LEQ, base, base)
    assert truths is not None
    (prem,), (conc,) = premises, goal
    # the premise is designated in some row, and the goal in each of them
    assert truths[prem] and not truths[prem] & ~truths[conc]


def test_budget_spent_in_the_core_minimization(monkeypatch):
    # the r-up k=3 ladder's first solve over the Ξ-universe takes 1,557
    # assignments, after 11 that find a model of Λ's instances: a budget
    # that covers both but not the core's minimization leaves the sequent
    # decided but OutOfBudget, with no core and no search
    calc = lookup(KIND_CALCULUS, "r-up").payload
    premises, goal = (parse_formula_set(t) for t in _ladder(3))
    minimized = []
    minimize = sat.minimize

    def spy(*args):
        minimized.append(minimize(*args))
        return minimized[-1]

    monkeypatch.setattr(sat, "minimize", spy)
    res = prove(calc, premises, goal, budget_nodes=5_000)
    assert isinstance(res, OutOfBudget)
    (least,) = minimized
    assert least.core is None
    stats = res.stats
    assert stats.assignments - least.assignments == 11 + 1_557
    assert stats.assignments > 5_000
    assert (stats.route, stats.core, stats.steps) == ("cdcl", 0, 0)


def test_k4_ladder_reuses_closed_subtrees():
    # the k=4 ladder on r-leq: the search reuses closed subtrees, so the
    # tree's unfolding of about 480,000 nodes costs about 13,000 steps
    premises, goal = (parse_formula_set(t) for t in _ladder(4))
    res = prove(R_LEQ, premises, goal, budget_nodes=200_000)
    assert isinstance(res, Proved)
    assert res.stats.reused > 0
    assert res.stats.assignments + res.stats.steps <= 200_000
    assert _count(res.tree) == res.stats.nodes
    assert validate_tree(R_LEQ, res.tree, premises, goal) is None


def test_condense_shares_the_specs_of_shared_subtrees(monkeypatch):
    # the r-up k=2 tree shares subtrees: condensed once per distinct node,
    # it gives the spec of its unfolded copy
    import mvlogic.calculus as calculus

    calc = lookup(KIND_CALCULUS, "r-up").payload
    premises, goal = (parse_formula_set(t) for t in _ladder(2))
    res = prove(calc, premises, goal)
    assert res.stats.reused > 0
    calls = []

    def counted(f, subst):
        calls.append(f)
        return substitute(f, subst)

    monkeypatch.setattr(calculus, "substitute", counted)
    shared = calculus._condense(calc, res.tree, goal)
    on_shared = len(calls)
    assert shared == calculus._condense(calc, copy_tree(res.tree), goal)
    assert on_shared < len(calls) - on_shared


def test_refutation_needs_interpreted_connectives():
    # r-b's only model, dm4-bt, has neither @ nor =>
    for prem_text, goal_text in (("", "@q"), ("p => q", "q")):
        res = prove(R_B, parse_formula_set(prem_text),
                    parse_formula_set(goal_text))
        assert not isinstance(res, Refuted), (prem_text, goal_text)
    premises = goal = parse_formula_set("@q")
    res = prove(R_B, premises, goal)
    assert isinstance(res, Proved)
    assert validate_tree(R_B, res.tree, premises, goal) is None


def test_duplicate_rule_names_are_rejected():
    from mvlogic.errors import DuplicateRuleName

    p, q = var("p"), var("q")
    twice = [Rule("dup", frozenset({p}), frozenset({q})),
             Rule("dup", frozenset({q}), frozenset({p}))]
    with pytest.raises(DuplicateRuleName, match="two rules named 'dup'") as exc:
        Calculus("twice", twice)
    assert isinstance(exc.value, MvlError)
    with pytest.raises(DuplicateRuleName):
        replace(R_B, rules=R_B.rules + R_B.rules[:1])
    # the transform names an axiom's copy as the source does, and every
    # other rule's copy with the suffix _v
    source = Calculus("clash", [Rule("a", frozenset({p}), frozenset({q})),
                                Rule("a_v", frozenset(), frozenset({p}))])
    with pytest.raises(DuplicateRuleName, match="'a_v'"):
        to_set_fmla_calculus(source)


def test_prove_set_fmla_needs_single_goal():
    rv = to_set_fmla_calculus(R_LEQ)
    with pytest.raises(FrameworkMismatch):
        prove(rv, frozenset(), parse_formula_set("p, q"))


def test_transform_base_rules():
    rv = to_set_fmla_calculus(R_LEQ)
    by_name = {r.name: r for r in rv.rules}
    p, q, r = var("p"), var("q"), var("r")
    assert by_name["or_intro"].antecedent == {p}
    assert by_name["or_intro"].succedent == {app("or", p, q)}
    assert by_name["or_comm"].succedent == {app("or", q, p)}
    assert by_name["or_assoc"].succedent == {
        app("or", app("or", p, q), r)
    }
    assert by_name["or_contr"].antecedent == {app("or", p, p)}
    assert by_name["or_contr"].succedent == {p}


def test_transform_shapes():
    rv = to_set_fmla_calculus(R_LEQ)
    by_name = {r.name: r for r in rv.rules}
    # axiom with empty antecedent and singleton succedent is untouched
    assert by_name["rd_id"].antecedent == frozenset()
    assert by_name["rd_id"].succedent == parse_formula_set("@(p => p)")
    # empty succedent: Phi v s / s
    rs2 = by_name["rs2_v"]
    assert rs2.antecedent == parse_formula_set("@p | a, p | a, ~p | a")
    assert rs2.succedent == parse_formula_set("a")
    # general case: Phi v s / (vee Psi) v s
    rs1 = by_name["rs1_v"]
    assert rs1.antecedent == parse_formula_set("@p | a")
    assert rs1.succedent == parse_formula_set("(p | ~p) | a")


def test_transform_framework_and_source():
    rv = to_set_fmla_calculus(R_LEQ)
    assert rv.framework == "set-fmla"
    assert rv.source is R_LEQ
    assert rv.name == "r-leq-v"


def test_transform_needs_disjunction():
    interp = {c: t for c, t in ALG_PP6H.interp.items() if c != "or"}
    model = PNMatrix("no-or", MultiAlgebra("no-or", ALG_PP6H.carrier, interp), {"ht"})
    with pytest.raises(MissingDisjunction, match="no-or"):
        to_set_fmla_calculus(replace(R_LEQ, models=[model]))


def test_transform_needs_set_set_source():
    with pytest.raises(FrameworkMismatch) as exc:
        to_set_fmla_calculus(lookup(KIND_CALCULUS, "moisil-m12").payload)
    assert isinstance(exc.value, MvlError)


def test_transformed_calculus_only_replays(monkeypatch):
    rv = to_set_fmla_calculus(R_LEQ)
    grounded = []

    def counting(calc, targets, universe):
        grounded.append(calc)
        return _build_instances(calc, targets, universe)

    monkeypatch.setattr("mvlogic.calculus._build_instances", counting)
    for prem_text, goal_text in (("@p, p, ~p", "q"), ("", "@(p => p)"),
                                 ("p", "q")):
        prove(rv, parse_formula_set(prem_text), parse_formula_set(goal_text))
    assert grounded and all(c is not rv for c in grounded)


def test_transformed_proof_is_short_and_exports():
    rv = to_set_fmla_calculus(R_LEQ)
    premises = parse_formula_set("@p, p, ~p")
    goal = parse_formula_set("q")
    res = prove(rv, premises, goal)
    assert isinstance(res, Proved)
    assert validate_tree(rv, res.tree, premises, goal) is None
    assert tree_to_json(res.tree)["label"] == ["@p", "p", "~p"]
    assert tree_to_dot(res.tree).endswith("}")
    # a goal among the premises closes the root
    res = prove(rv, premises, parse_formula_set("p"))
    assert res.tree.closed and not res.tree.children


def _ladder(k):
    names = ["p%d" % i for i in range(1, k + 1)]
    return "~(%s)" % " & ".join(names), " | ".join("~" + n for n in names)


# The previous replay, whose branches derived G | C for every context C,
# took 12,843, 2, 5 and 17,829 steps on the r-leq sequents and 27, 42, 63,
# 85, 108 and 132 on the r-b ladder k=2..7.
REPLAY_CHAIN_NODES = [
    ("r-leq", "~(p & q)", "~p | ~q", 4_942),
    ("r-leq", "", "@(p => p)", 2),
    ("r-leq", "@p, p, ~p", "q", 5),
    ("r-leq", "~p | ~q", "~(p & q)", 6_843),
] + [("r-b",) + _ladder(k) + (n,)
     for k, n in zip(range(2, 8), (17, 29, 45, 62, 80, 99))]


@pytest.mark.parametrize("name, prem_text, goal_text, nodes",
                         REPLAY_CHAIN_NODES)
def test_replay_chain_lengths(name, prem_text, goal_text, nodes):
    rv = to_set_fmla_calculus(lookup(KIND_CALCULUS, name).payload)
    premises = parse_formula_set(prem_text)
    goal = parse_formula_set(goal_text)
    res = prove(rv, premises, goal)
    assert isinstance(res, Proved) and res.stats.route == "replay"
    assert res.stats.nodes == nodes
    assert validate_tree(rv, res.tree, premises, goal) is None


def test_long_replay_chain_exports():
    import json

    rv = to_set_fmla_calculus(R_LEQ)
    premises = parse_formula_set("~(p & q)")
    res = prove(rv, premises, parse_formula_set("~p | ~q"))
    data = json.loads(json.dumps(tree_to_json(res.tree)))
    assert data["label"] == ["~(p & q)"]
    assert len(data["nodes"]) == res.stats.nodes
    assert data["nodes"][-1] == {"adds": ["~p | ~q"], "closed": True}
    dot = tree_to_dot(res.tree)
    assert dot.count(" [label=") == 2 * res.stats.nodes - 1


def test_long_replay_chain_compares_copies_and_prints():
    # TreeNode's equality and repr, and copy_tree, once recursed per level
    rv = to_set_fmla_calculus(R_LEQ)
    premises, goal = parse_formula_set("~(p & q)"), parse_formula_set("~p | ~q")
    res = prove(rv, premises, goal)
    assert res.stats.nodes == 4_942
    assert "TreeNode(" in repr(res)
    assert res == prove(rv, premises, goal)
    copy = copy_tree(res.tree)
    assert copy == res.tree and copy is not res.tree
    # a difference at the foot of the chain
    leaf = copy
    while leaf.children:
        leaf = leaf.children[-1]
    leaf.closed = not leaf.closed
    assert copy != res.tree


def test_transformed_calculus_passes_on_refutation():
    rv = to_set_fmla_calculus(R_LEQ)
    premises = parse_formula_set("p")
    goal = parse_formula_set("q")
    res = prove(rv, premises, goal)
    assert isinstance(res, Refuted)
    assert res.partition.base == premises | goal
    problem = ConsequenceProblem(R_LEQ.models, premises, goal, SET_FMLA)
    assert isinstance(check_consequence(problem), Fails)
    # r-b's only model has no @, so a refutation of |- @q has no
    # countermodel and is not passed on
    res = prove(to_set_fmla_calculus(R_B), [], parse_formula_set("@q"))
    assert not isinstance(res, Refuted)


def test_transformed_non_analytic_calculus_searches_directly():
    source = lookup(KIND_CALCULUS, "pp-top-rules").payload
    assert source.xi is None
    rv = to_set_fmla_calculus(source)
    for prem_text, goal_text in (("p | q", "q | p"), ("p | p", "p")):
        premises = parse_formula_set(prem_text)
        goal = parse_formula_set(goal_text)
        res = prove(rv, premises, goal, budget_nodes=10_000)
        assert isinstance(res, Proved)
        assert validate_tree(rv, res.tree, premises, goal) is None


def test_saturated_search_without_analyticity_is_inconclusive():
    source = lookup(KIND_CALCULUS, "pp-top-rules").payload
    # pp6h-uht, which the calculus is sound for, refutes p |- q outright:
    # no analyticity set is needed
    res = prove(source, parse_formula_set("p"), parse_formula_set("q"))
    assert isinstance(res, Refuted) and res.stats.route == "model"
    assert res.countermodel[0].name == "pp6h-uht"
    # the models do not refute p & q |- p; the clause set has a model,
    # which refutes nothing without an analyticity set, and the solver
    # finds it in 33 assignments.  The answer is Inconclusive only once the
    # models' 36 valuations fit the budget: below that they could refute
    # the sequent for all the budget shows
    premises, goal = parse_formula_set("p & q"), parse_formula_set("p")
    assert isinstance(prove(source, premises, goal), Inconclusive)
    assert isinstance(prove(source, premises, goal, budget_nodes=36),
                      Inconclusive)
    for budget in (32, 33, 35):
        res = prove(source, premises, goal, budget_nodes=budget)
        assert isinstance(res, OutOfBudget) and res.stats.valuations == 0
    # neither the transformed rules nor the replay prove it
    rv = to_set_fmla_calculus(source)
    assert isinstance(prove(rv, premises, goal), Inconclusive)
    assert isinstance(prove(rv, premises, goal, budget_nodes=1), OutOfBudget)
    # the source's refutation of p |- q is passed on
    res = prove(rv, parse_formula_set("p"), parse_formula_set("q"))
    assert isinstance(res, Refuted) and res.stats.route == "replay"


def test_set_fmla_attempts_share_one_budget(monkeypatch):
    # r-leq's Set-Fmla proof of ~p | ~q tries the disjuncts and then the
    # disjunction; pp-top-rules' tries its own clause set and then the
    # replay.  Each clause-set attempt gets what the earlier ones left, and
    # the answer reports the work of all of them.
    from mvlogic import calculus

    attempts = []

    def spy(calc, premises, goal, universe, ground, budget_nodes, valuations=0):
        res = _decide(calc, premises, goal, universe, ground, budget_nodes, valuations)
        attempts.append((budget_nodes, res.stats))
        return res

    monkeypatch.setattr(calculus, "_decide", spy)
    cases = [
        ("r-leq", "~(p & q)", "~p | ~q", 1000),
        ("pp-top-rules", "p & q", "p", 50),
    ]
    for name, prem_text, goal_text, budget in cases:
        rv = to_set_fmla_calculus(lookup(KIND_CALCULUS, name).payload)
        del attempts[:]
        res = prove(rv, parse_formula_set(prem_text),
                    parse_formula_set(goal_text), budget_nodes=budget)
        assert isinstance(res, OutOfBudget)
        left = budget
        for given_budget, stats in attempts:
            assert given_budget == left > 0
            left -= stats.assignments + stats.steps
        for count in ("assignments", "conflicts", "steps"):
            spent = sum(getattr(stats, count) for _, stats in attempts)
            assert getattr(res.stats, count) == spent
    # the replay's refutation of p |- q reports the own clause set's work
    del attempts[:]
    res = prove(rv, parse_formula_set("p"), parse_formula_set("q"))
    assert isinstance(res, Refuted) and res.stats.route == "replay"
    ((_, own),) = attempts
    assert own.assignments > 0 and res.stats.assignments == own.assignments


def test_every_ending_of_a_transformed_calculus_without_analyticity(monkeypatch):
    # pp-top-rules has no analyticity set, so its Set-Fmla calculus decides
    # its own clause set first and then replays the source's answer to the
    # one goal.  Whatever the ending, each clause set gets the budget the
    # ones before it left, the answer carries the last attempt's stats and
    # it adds up the work of all of them.
    from mvlogic import calculus

    attempts = []

    def spy(calc, premises, goal, universe, ground, budget_nodes, valuations=0):
        res = _decide(calc, premises, goal, universe, ground, budget_nodes, valuations)
        attempts.append((budget_nodes, res.stats))
        return res

    monkeypatch.setattr(calculus, "_decide", spy)
    rv = to_set_fmla_calculus(lookup(KIND_CALCULUS, "pp-top-rules").payload)
    cases = [
        # the own clause set proves it
        ("p | q", "q | p", (10, 1000), Proved, "cdcl", 1),
        # the own clause set spends the budget: no replay starts
        ("", "top", (15,), OutOfBudget, "cdcl", 1),
        ("p", "q", (56,), OutOfBudget, "cdcl", 1),
        # the replay runs out of what the own clause set left
        ("", "top", (16, 23), OutOfBudget, "replay", 2),
        ("p", "q", (57, 75), OutOfBudget, "replay", 2),
        ("p & q", "p", (142, 173), OutOfBudget, "replay", 2),
        # the source's clause set has a model, but what the own clause set
        # left is below the source models' 36 valuations
        ("p & q", "p", (174, 176), OutOfBudget, "replay", 2),
        # the source's clause set has a model, which proves nothing
        ("", "top", (24, 1000), Inconclusive, "replay", 2),
        ("p & q", "p", (177, 1000), Inconclusive, "replay", 2),
        # the source's models refute p |- q once the 36 valuations fit
        ("p", "q", (92, 1000), Refuted, "replay", 1),
    ]
    for prem_text, goal_text, budgets, verdict, route, clause_sets in cases:
        for budget in budgets:
            del attempts[:]
            res = prove(rv, parse_formula_set(prem_text),
                        parse_formula_set(goal_text), budget_nodes=budget)
            assert isinstance(res, verdict) and res.stats.route == route
            assert len(attempts) == clause_sets
            left = budget
            for given_budget, stats in attempts:
                assert given_budget == left > 0
                left -= stats.assignments + stats.steps
            for count in ("assignments", "conflicts", "steps"):
                spent = sum(getattr(stats, count) for _, stats in attempts)
                assert getattr(res.stats, count) == spent
            if verdict is not Refuted:
                assert res.stats.instances == attempts[-1][1].instances


def test_universe_levels_share_one_budget(monkeypatch):
    # r-leq's ~~p |- p: Λ's instances have a model, which proves nothing,
    # so the Ξ-universe decides with the budget Λ left.  The answer adds up
    # both levels' work and reports the size of the level that decided.
    from mvlogic import calculus

    levels, grounded, widened = [], [], []

    def spy(calc, premises, goal, universe, ground, budget_nodes, valuations=0):
        res = _decide(calc, premises, goal, universe, ground, budget_nodes, valuations)
        levels.append((universe, budget_nodes, res))
        return res

    def ground(calc, targets, universe):
        grounded.append(universe)
        return _build_instances(calc, targets, universe)

    def wider(base, xi):
        widened.append(base)
        return generalized_subformulas(base, xi)

    monkeypatch.setattr(calculus, "_decide", spy)
    monkeypatch.setattr(calculus, "_build_instances", ground)
    monkeypatch.setattr(calculus, "generalized_subformulas", wider)
    premises, goal = parse_formula_set("~~p"), parse_formula_set("p")
    lam = subformulas(premises | goal)
    res = prove(R_LEQ, premises, goal, budget_nodes=1_000)
    assert isinstance(res, Proved)
    (u0, b0, first), (u1, b1, second) = levels
    assert u0 == lam and isinstance(first, Refuted)
    assert u1 == generalized_subformulas(premises | goal, R_LEQ.xi) > lam
    spent = first.stats.assignments + first.stats.steps
    assert b0 == 1_000 and b1 == 1_000 - spent
    for count in ("assignments", "conflicts", "steps"):
        assert getattr(res.stats, count) == (
            getattr(first.stats, count) + getattr(second.stats, count)
        )
    assert res.stats.universe == len(u1)
    assert (res.stats.instances, res.stats.core, res.stats.nodes) == (
        second.stats.instances, second.stats.core, second.stats.nodes
    )
    # a budget that Λ alone exhausts, with or without finding its model,
    # is out of budget before the Ξ-universe is grounded
    for budget in (spent - 1, spent):
        del levels[:], grounded[:]
        res = prove(R_LEQ, premises, goal, budget_nodes=budget)
        assert isinstance(res, OutOfBudget)
        assert grounded == [lam] and res.stats.universe == len(lam)
    # a sequent Λ proves never builds the Ξ-universe
    del levels[:], grounded[:], widened[:]
    premises, goal = parse_formula_set("p & q"), parse_formula_set("q & p")
    assert isinstance(prove(R_LEQ, premises, goal), Proved)
    assert grounded == [subformulas(premises | goal)] and widened == []
    # an empty Ξ adds nothing to Λ: its one level's model is the answer
    del levels[:], grounded[:]
    bare = replace(R_LEQ, xi=(), models=None)
    res = prove(bare, parse_formula_set("p"), parse_formula_set("q"))
    assert isinstance(res, Refuted) and res.stats.route == "cdcl"
    assert len(levels) == 1 and res.stats.universe == 2


def test_budget_runs_out_inside_the_unit_steps():
    # a -> b -> c -> d: the root and each of the three unit steps is a step
    a, b, c, d = (var(n) for n in "abcd")
    chain = [
        ("r%d" % k, {}, frozenset({x}), frozenset({y}))
        for k, (x, y) in enumerate([(a, b), (b, c), (c, d)])
    ]
    for budget in (1, 2, 3):
        searcher = _Searcher(chain, frozenset({d}), budget)
        assert searcher.run(frozenset({a})) is None
        assert not searcher.saturated
    searcher = _Searcher(chain, frozenset({d}), 4)
    assert searcher.run(frozenset({a})) is not None
    assert searcher.steps == 4


def test_prove_out_of_budget():
    goal = parse_formula_set("(p | q) => p, q")
    res = prove(R_LEQ, frozenset(), goal, budget_nodes=1)
    assert isinstance(res, OutOfBudget)


def test_refutation_on_models_before_grounding(monkeypatch):
    # r-leq's three models refute the sequent with 38 valuations of p, q:
    # all 36 on pp6h-uf, then the first two on pp6h-ub; Ω is every formula
    # of Λ = sub(sequent) the witness designates, here none, and no rule is
    # grounded
    def no_grounding(calc, targets, universe):
        raise AssertionError("grounded %s" % calc.name)

    monkeypatch.setattr("mvlogic.calculus._build_instances", no_grounding)
    goal = parse_formula_set("(p | q) => p, q")
    res = prove(R_LEQ, frozenset(), goal)
    assert isinstance(res, Refuted)
    assert res.stats == ProveStats("model", 4, 0, valuations=38)
    part = res.partition
    assert part.universe == subformulas(goal) and not part.omega
    assert res.countermodel == countermodel(R_LEQ.models, part)
    matrix, valuation = res.countermodel
    assert matrix.name == "pp6h-ub"
    assert_realizes(matrix, valuation, part, frozenset(), goal)


def test_model_check_only_within_the_budget():
    # r-leq has three six-valued models: 3 * 6**2 = 108 valuations of p, q
    goal = parse_formula_set("(p | q) => p, q")
    res = prove(R_LEQ, frozenset(), goal, budget_nodes=108)
    assert res.stats.route == "model"
    res = prove(R_LEQ, frozenset(), goal, budget_nodes=107)
    assert isinstance(res, Refuted) and res.countermodel is None
    assert (res.stats.route, res.stats.valuations) == ("cdcl", 0)
    # 3 * 6**9 valuations exceed the default budget: the clause set refutes
    premises = parse_formula_set(" & ".join("p%d" % i for i in range(1, 9)))
    res = prove(R_LEQ, premises, parse_formula_set("q"))
    assert isinstance(res, Refuted) and res.countermodel is None
    assert (res.stats.route, res.stats.valuations) == ("cdcl", 0)


def test_rule_outside_the_models_keeps_refutations_off_them():
    # @p |> is no rule of dm4-bt, which has no @, so r-b's rules with it are
    # not known sound there, and p |- q is refuted from the clauses instead
    xi = (var("p"), app("neg", var("p")))
    circ = Rule("circ", frozenset({app("circ", var("p"))}), frozenset())
    premises, goal = parse_formula_set("p"), parse_formula_set("q")
    res = prove(replace(R_B, xi=xi), premises, goal)
    assert isinstance(res, Refuted) and res.stats.route == "model"
    res = prove(replace(R_B, rules=R_B.rules + [circ], xi=xi), premises, goal)
    assert isinstance(res, Refuted) and res.stats.route == "cdcl"


def test_unsound_calculus_is_not_refuted_on_its_models(monkeypatch):
    # r-b's rules with an analyticity set dm4-bt interprets, so that its
    # models are checked; the unsound rule p |> q proves p |- q although
    # dm4-bt refutes it, so the calculus's refutations come from its clauses
    from mvlogic import calculus, semantics

    checked = []

    def counted(rule, models):
        checked.append(rule.name)
        return semantics.check_consequence(
            ConsequenceProblem(models, rule.antecedent, rule.succedent)
        )

    monkeypatch.setattr(semantics, "check_rule_soundness", counted)
    calculus._sound.cache_clear()
    xi = (var("p"), app("neg", var("p")))
    sound = replace(R_B, xi=xi)
    bad = Rule("bad", frozenset({var("p")}), frozenset({var("q")}))
    unsound = replace(R_B, rules=R_B.rules + [bad], xi=xi)
    # every check holds, over all 4**2 valuations of p, q: no sweep
    for calc in (sound, unsound):
        res = prove(calc, parse_formula_set("p & q"), parse_formula_set("q"))
        assert isinstance(res, Proved) and res.stats.valuations == 16
    assert checked == []
    res = prove(sound, parse_formula_set("p"), parse_formula_set("q"))
    assert isinstance(res, Refuted) and res.stats.route == "model"
    sweep = len(checked)
    assert sweep == len(R_B.rules)
    premises, goal = parse_formula_set("p"), parse_formula_set("q")
    res = prove(unsound, premises, goal)
    assert isinstance(res, Proved) and res.stats.route == "cdcl"
    assert validate_tree(unsound, res.tree, premises, goal) is None
    assert checked[sweep:] == [r.name for r in unsound.rules]
    for text in ("q", "~~q"):
        res = prove(unsound, frozenset(), parse_formula_set(text))
        assert isinstance(res, Refuted) and res.countermodel is None
        assert res.stats.route == "cdcl" and res.stats.valuations > 0
    # one sweep per (rules, models), on every calculus that has them
    assert len(checked) == sweep + len(unsound.rules)
    res = prove(replace(unsound, name="copy"), frozenset(), parse_formula_set("q"))
    assert res.stats.route == "cdcl"
    assert len(checked) == sweep + len(unsound.rules)


def test_tree_exports():
    premises = parse_formula_set("~(p & q)")
    goal = parse_formula_set("~p | ~q")
    tree = prove(R_B, premises, goal).tree
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph proof {") and dot.endswith("}")
    data = tree_to_json(tree)
    assert data["label"] == ["~(p & q)"]
    assert data["nodes"][0]["adds"] == data["label"]
    assert data["nodes"][0]["children"]


def test_empty_succedent_star_child():
    calc = Calculus(
        "absurd",
        [Rule("boom", frozenset({var("p")}), frozenset())],
        (var("p"),),
        SET_SET,
    )
    res = prove(calc, parse_formula_set("p"), parse_formula_set("q"))
    assert isinstance(res, Proved)
    node = res.tree
    assert node.rule == "boom"
    assert len(node.children) == 1 and node.children[0].star
    assert validate_tree(calc, res.tree, parse_formula_set("p"),
                         parse_formula_set("q")) is None


ANALYTIC = [n for n in names(KIND_CALCULUS)
            if lookup(KIND_CALCULUS, n).payload.xi is not None]


@pytest.mark.parametrize("name", ANALYTIC)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_clauses_on_ids_match_clauses_on_formulas(name, data):
    # the clauses _decide builds from ids equal those built by numbering the
    # universe's formulas in canon_key order over the formula instances
    calc = lookup(KIND_CALCULUS, name).payload
    sig = dict(calc.models[0].algebra.connectives)
    side = st.frozensets(formulas(sig, ["p", "q", "r"], 3), max_size=2)
    premises, goal = data.draw(side), data.draw(side)
    base = premises | goal
    targets = sorted(subformulas(base), key=canon_key)
    universe = frozenset(generalized_subformulas(base, calc.xi))
    ground = _build_instances(calc, targets, universe)
    order = sorted(universe, key=canon_key)
    index = {f: i for i, f in enumerate(order)}
    want = [
        sorted([2 * index[f] + 1 for f in ant] + [2 * index[f] for f in succ])
        for _, _, ant, succ in materialized(ground)
    ]
    want += [[2 * i] for i, f in enumerate(order) if f in premises]
    want += [[2 * i + 1] for i, f in enumerate(order) if f in goal]
    got = []

    def solve(nvars, clauses, budget):
        got.append((nvars, clauses))
        return sat.Outcome()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sat, "solve", solve)
        res = _decide(calc, premises, goal, universe, ground, 10)
    assert isinstance(res, OutOfBudget)
    assert got == [(len(order), want)]


def _substituted(calc, targets, universe):
    """The instances grounding keeps, found by substitution: each rule in
    order, each assignment of the targets to its sorted variables in
    product order, dropped when a formula leaves the universe (if any) or
    sits on both sides, and only the first of instances with equal
    sides."""
    out, seen = [], set()
    for rule in calc.rules:
        vs = sorted(variables(rule.antecedent | rule.succedent))
        for values in product(targets, repeat=len(vs)):
            subst = dict(zip(vs, values))
            ant = frozenset(substitute(f, subst) for f in rule.antecedent)
            succ = frozenset(substitute(f, subst) for f in rule.succedent)
            if universe is not None and not ant | succ <= universe:
                continue
            if ant & succ or (ant, succ) in seen:
                continue
            seen.add((ant, succ))
            out.append((rule.name, subst, ant, succ))
    return out


GROUNDED = {n: lookup(KIND_CALCULUS, n).payload for n in names(KIND_CALCULUS)}
GROUNDED.update({
    n + "/set-fmla": to_set_fmla_calculus(c)
    for n, c in list(GROUNDED.items()) if c.framework == SET_SET
})


@pytest.mark.parametrize("name", sorted(GROUNDED))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_grounding_keeps_the_instances_substitution_keeps(name, data):
    # the generated loops over ids against substituting every assignment
    # into every rule, at Λ and Ξ(Λ) for an analytic calculus and without
    # a universe otherwise; no clause holds a variable twice, as sat.solve
    # needs
    calc = GROUNDED[name]
    sig = dict((calc.source or calc).models[0].algebra.connectives)
    side = st.frozensets(formulas(sig, ["p", "q"], 2), max_size=2)
    base = data.draw(side) | data.draw(side)
    targets = sorted(subformulas(base), key=canon_key)
    universes = [None]
    if calc.xi is not None:
        xi = frozenset(generalized_subformulas(base, calc.xi))
        universes = [frozenset(targets), xi]
    for universe in universes:
        ground = _build_instances(calc, targets, universe)
        assert materialized(ground) == _substituted(calc, targets, universe)
        assert all(len({q >> 1 for q in c}) == len(c) for c in ground.clauses)


def test_grounding_on_a_universe_interns_nothing():
    # variable names no other test uses: substituting into the rules would
    # intern every instance, inside the universe or not
    premises = parse_formula_set("~(w7 & w8)")
    goal = parse_formula_set("~w7 | ~w8")
    base = premises | goal
    targets = sorted(subformulas(base), key=canon_key)
    universe = frozenset(generalized_subformulas(base, R_LEQ.xi))
    before = len(Formula._table)
    ground = _build_instances(R_LEQ, targets, universe)
    assert len(ground) > 1000
    assert len(Formula._table) == before


# calculi without an analyticity set: one registered, one with it dropped
NON_ANALYTIC = {
    "pp-top-rules": lookup(KIND_CALCULUS, "pp-top-rules").payload,
    "r-b": replace(R_B, xi=None),
}


@pytest.mark.parametrize("name", sorted(NON_ANALYTIC))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_clause_route_without_analyticity_matches_full_search(name, data):
    # a saturated branch of the search over every instance is a model of
    # their clause set with the premises true and the goal false, and a
    # tree over them leaves none: on a sequent the models do not refute,
    # prove proves exactly what that search proves, and is Inconclusive
    # exactly where it saturates
    calc = NON_ANALYTIC[name]
    sig = dict(calc.models[0].algebra.connectives)
    some = formulas(sig, ["p", "q"], 3)
    premises = data.draw(st.frozensets(some, max_size=2))
    if premises:
        # a premise under a unary connective, which a rule may derive
        unary = sorted(c for c, k in sig.items() if k == 1)
        some |= st.tuples(
            st.sampled_from(unary), st.sampled_from(sorted(premises, key=canon_key))
        ).map(lambda cf: app(*cf))
    goal = data.draw(
        st.frozensets(some, max_size=2).filter(lambda g: not g & premises)
    )
    targets = sorted(subformulas(premises | goal), key=canon_key)
    instances = materialized(_build_instances(calc, targets, None))
    searcher = _Searcher(instances, goal, 1_000_000)
    tree = searcher.run(premises)
    assert (tree is None) == searcher.saturated
    res = prove(calc, premises, goal)
    sem = check_consequence(ConsequenceProblem(calc.models, premises, goal))
    if isinstance(sem, Fails):
        # the calculus is sound for its models, so the search saturates
        assert tree is None
        assert isinstance(res, Refuted) and res.stats.route == "model"
        return
    assert isinstance(res, Proved if tree is not None else Inconclusive)
    assert res.stats.route == "cdcl" and res.stats.universe is None
    if tree is not None:
        assert validate_tree(calc, res.tree, premises, goal) is None
        assert res.stats.core <= len(instances)


VARIANT = {"r-up": "up", "r-leq": "leq"}


def assert_realizes(matrix, valuation, part, premises, goal):
    """Check a countermodel by table lookups: it is a valuation of
    Λ = sub(base) that designates exactly Ω's formulas in Λ, every premise
    and no goal formula."""
    lam = subformulas(part.base)
    assert set(valuation) == lam
    designated = {f for f in lam if valuation[f] in matrix.designated}
    assert designated == part.omega & lam
    assert premises <= designated and not designated & goal
    tables = matrix.algebra.interp
    for f in lam:
        if not f.is_var:
            assert valuation[f] in tables[f.head][tuple(valuation[x] for x in f.args)]


# the calculi without an analyticity set whose clause sets have a model
# that their models do not refute
SMALL_SCOPE_INCONCLUSIVE = {"moisil": 66, "moisil-m12": 66, "pp-top-rules": 62}
# the analytic calculi's clause-route proofs that close at the first level,
# over Λ alone: all of them, but r-leq's and r-up's 17 of 62 each, which
# need the Ξ-universe
SMALL_SCOPE_CLOSED_AT_LAMBDA = {
    "letk-nine": 62, "r-b": 26, "r-h-ub": 62, "r-leq": 45, "r-m-a1": 62,
    "r-pp-leq": 62, "r-up": 45,
}


def _added(tree):
    """Every formula a node of the tree adds: the formulas of its labels."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        out |= node.adds
        stack.extend(node.children)
    return out


@pytest.mark.parametrize("name", names(KIND_CALCULUS))
def test_every_small_sequent_is_certified(name):
    # every sequent over p, q with at most one premise and one goal, each
    # of at most 2 nodes: 12 formulas, or 8 where the models have no @
    calc = lookup(KIND_CALCULUS, name).payload
    fs = all_formulas(calc.models[0].algebra.connectives, ["p", "q"], 2)
    sequents = [
        (frozenset(prem), frozenset({g}))
        for prem in [()] + [(f,) for f in fs]
        for g in fs
    ]
    assert len(sequents) == (72 if name == "r-b" else 156)
    inconclusive = closed_at_lambda = 0
    for premises, goal in sequents:
        res = prove(calc, premises, goal, budget_nodes=10_000)
        sem = check_consequence(ConsequenceProblem(calc.models, premises, goal))
        if isinstance(res, Proved):
            assert validate_tree(calc, res.tree, premises, goal) is None
            assert isinstance(sem, Holds)
            lam = subformulas(premises | goal)
            if res.stats.route == "cdcl" and res.stats.universe == len(lam):
                assert _added(res.tree) <= lam
                closed_at_lambda += 1
        elif isinstance(res, Refuted):
            assert isinstance(sem, Fails)
            if res.countermodel is not None:
                matrix, valuation = res.countermodel
                assert_realizes(matrix, valuation, res.partition, premises, goal)
        else:
            assert isinstance(res, Inconclusive), (premises, goal, res)
            inconclusive += 1
    assert inconclusive == SMALL_SCOPE_INCONCLUSIVE.get(name, 0)
    assert closed_at_lambda == SMALL_SCOPE_CLOSED_AT_LAMBDA.get(name, 0)


@pytest.mark.parametrize("name", [
    "r-b", "r-pp-leq", "r-m-a1", "r-h-ub", "r-leq", "r-up", "letk-nine",
    "moisil", "moisil-m12", "pp-top-rules",
])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_answer_is_certified(name, data):
    calc = lookup(KIND_CALCULUS, name).payload
    sig = dict(calc.models[0].algebra.connectives)
    vs = ["p", "q", "r"][: data.draw(st.integers(2, 3))]
    # moisil's Hilbert-style rules, without an analyticity set, build
    # thousands of instances over formulas of four leaves
    some = formulas(sig, vs, 3 if calc.framework == SET_FMLA else 4)
    premises = data.draw(st.frozensets(some, max_size=2))
    if calc.framework == SET_FMLA:
        goal = frozenset({data.draw(some)})
    else:
        goal = data.draw(st.frozensets(some, max_size=2))
    res = prove(calc, premises, goal, budget_nodes=10_000)
    if isinstance(res, OutOfBudget):
        return
    # the drawn sequents are in the models' signature, and their
    # valuations fit the budget: the check on the models ran where they
    # are single-valued
    sem = check_consequence(ConsequenceProblem(calc.models, premises, goal))
    if isinstance(res, Inconclusive):
        assert isinstance(sem, Holds) and calc.xi is None
        return
    if isinstance(res, Proved):
        assert isinstance(sem, Holds)
        assert validate_tree(calc, res.tree, premises, goal) is None
        return
    assert isinstance(res, Refuted) and isinstance(sem, Fails)
    part = res.partition
    omega = part.omega
    assert premises <= omega and not omega & goal
    # saturated: every instance whose antecedent holds has a succedent
    # formula in omega
    targets = sorted(subformulas(part.base), key=canon_key)
    ground = _build_instances(calc, targets, part.universe)
    for _, _, ant, succ in materialized(ground):
        assert not ant <= omega or succ & omega
    matrix, valuation = countermodel(calc.models, part)
    assert_realizes(matrix, valuation, part, premises, goal)
    # a refutation on the models carries the same countermodel, and its
    # partition is the one it designates on Λ
    if res.countermodel is not None:
        assert res.stats.route == "model"
        assert res.countermodel == (matrix, valuation)
        lam = subformulas(premises | goal)
        assert part.universe == lam
        assert omega == {f for f in lam if valuation[f] in matrix.designated}
    else:
        assert res.stats.route == "cdcl" and calc.xi is not None
    if name in VARIANT:
        valuation, a = countermodel_from_partition(part, VARIANT[name])
        assert name != "r-leq" or a != "t"
        assert_realizes(MAT_PP6H[a], valuation, part, premises, goal)


_REPEAT_SCRIPT = """
import json
from mvlogic.calculus import prove, tree_to_json
from mvlogic.formula import generalized_subformulas, parse_formula_set, render_formula
from mvlogic.registry import lookup
calc = lookup("calculus", "r-up").payload
premises = parse_formula_set("~(p1 & p2)")
goal = parse_formula_set("~p1 | ~p2")
res = prove(calc, premises, goal)
print(json.dumps(tree_to_json(res.tree), sort_keys=True))
print(res.stats)
# set order follows the formulas' hashes
print([render_formula(f) for f in generalized_subformulas(premises | goal, calc.xi)])
"""


def test_prove_repeats_across_hash_seeds():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mvlogic

    src = str(Path(mvlogic.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run(
            [sys.executable, "-c", _REPEAT_SCRIPT], env=env,
            capture_output=True, check=True,
        ).stdout)
    assert outs[0] == outs[1]
    assert b"route='cdcl'" in outs[0]
