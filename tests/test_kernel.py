"""The bitset and mask kernel against the reference evaluators it replaced:
solve_valuations for consequence, set-valued recursion for unary profiles,
and FiniteAlgebra.eval_formula for assignments; a scan that keeps those
evaluators out of the product's code; and the prover's rule grounding
against the plain product-and-filter grounding."""

import ast
import weakref
from collections import Counter
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import formulas, materialized
from mvlogic import kernel
from mvlogic.algebra import FiniteAlgebra, check_identity
from mvlogic.axiomatizer import unary_profile
from mvlogic.calculus import (
    Calculus,
    Rule,
    _build_instances,
    _compiled_rule,
    _model_truths,
)
from mvlogic.formula import (
    app,
    canon_key,
    generalized_subformulas,
    parse_formula_set,
    render_formula,
    subformulas,
    substitute,
    var,
    variables,
)
from mvlogic.interpolation import valuation_family
from mvlogic.registry import MAT_PP6H, lookup, names, resolve_models
from mvlogic.semantics import (
    CheckStats,
    ConsequenceProblem,
    Fails,
    Holds,
    MultiAlgebra,
    check_consequence,
    solve_valuations,
    total_components,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

MODEL_NAMES = names("matrix") + names("matrix-class")


@st.composite
def problems(draw, model_names=MODEL_NAMES, max_vars=3):
    models = resolve_models([draw(st.sampled_from(model_names))])
    sig = models[0].algebra.connectives
    vs = ["p", "q", "r", "s"][: draw(st.integers(1, max_vars))]
    side = st.frozensets(formulas(sig, vs), max_size=2)
    return ConsequenceProblem(models, draw(side), draw(side))


def reference_check(problem):
    """check_consequence by backtracking alone, with its CheckStats worked
    out apart: the components visited up to the answer, each counting the
    assignments of its variables' allowed values in carrier order, in
    full, or up to and including the witness's (its mixed-radix rank + 1,
    first variable in canonical order most significant); the path is
    "backtrack" once a visited component has a table entry that keeps
    other than one value there."""
    premises, conclusions = problem.premises, problem.conclusions
    domain = subformulas(premises | conclusions)
    variables = sorted((f for f in domain if f.is_var), key=canon_key)
    path, visited, covered = "bitset", 0, 0
    for idx, m in enumerate(problem.models):
        carrier = frozenset(m.carrier)
        base = {f: m.designated for f in premises}
        for f in conclusions:
            base[f] = base.get(f, carrier) - m.designated
        if any(not c for c in base.values()):
            continue
        for comp in total_components(m):
            visited += 1
            inside = frozenset(comp)
            if any(
                len(out & inside) != 1
                for table in m.algebra.interp.values()
                for key, out in table.items()
                if inside.issuperset(key)
            ):
                path = "backtrack"
            cons = {f: inside & base.get(f, inside) for f in domain}
            digits = [[v for v in comp if v in cons[x]] for x in variables]
            found = solve_valuations(m, domain, cons, limit=1)
            if found:
                rank = 0
                for x, ds in zip(variables, digits):
                    rank = rank * len(ds) + ds.index(found[0][x])
                stats = CheckStats(path, visited, covered + rank + 1)
                return Fails(idx, found[0], stats)
            covered += prod(map(len, digits))
    return Holds(CheckStats(path, visited, covered))


def assert_same_answer(problem):
    got, want = check_consequence(problem), reference_check(problem)
    assert got == want
    assert got.stats == want.stats
    if isinstance(want, Fails):
        assert list(got.witness.items()) == list(want.witness.items())
    return got


def watch_bitsets(mp):
    """Patch kernel.Bitsets to record the size of each one built and to
    fail when one is built while an earlier one is still alive; returns
    the list of sizes."""
    sizes, alive = [], []

    class Watched(kernel.Bitsets):
        def __init__(self, *args):
            assert not any(ref() is not None for ref in alive)
            super().__init__(*args)
            sizes.append(self.size)
            alive.append(weakref.ref(self))

    mp.setattr(kernel, "Bitsets", Watched)
    return sizes


@SETTINGS
@given(problems())
def test_check_consequence_matches_backtracking(problem):
    assert_same_answer(problem)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problems(["pp6h-order", "pp6h-ub", "m-up", "dm4-bt"], max_vars=4))
def test_chunked_enumeration_matches_backtracking(problem):
    # a tiny chunk makes every problem enumerate leading digits outside
    # the bitset
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "CHUNK", 7)
        watch_bitsets(mp)
        assert_same_answer(problem)


def _ladder(k):
    names = ["p%d" % i for i in range(1, k + 1)]
    return (parse_formula_set("~(%s)" % " & ".join(names)),
            parse_formula_set(" | ".join("~" + n for n in names)))


@pytest.mark.parametrize("chunk, sizes", [(kernel.CHUNK, [6**4]), (36, [36] * 36)])
def test_class_evaluates_each_chunk_once(chunk, sizes):
    # the three pp6h-order matrices share pp6h's one component and the
    # variables' digits: each chunk's rows are built once for all three
    problem = ConsequenceProblem(resolve_models(["pp6h-order"]), *_ladder(4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "CHUNK", chunk)
        sizes_built = watch_bitsets(mp)
        got = assert_same_answer(problem)
    assert sizes_built == sizes
    assert got.stats == CheckStats("bitset", 3, 3 * 6**4)


def test_first_matrix_failing_in_a_later_chunk_than_the_others():
    # on pp6h-order the lowest witnesses lie at ranks 180, 13 and 7: the
    # later matrices fail in the first chunk of 36, pp6h-uf in the sixth,
    # and the search goes on until that one is decided
    problem = ConsequenceProblem(
        resolve_models(["pp6h-order"]), frozenset(),
        parse_formula_set("~(q | p), (q => r) => q"),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "CHUNK", 36)
        sizes = watch_bitsets(mp)
        got = assert_same_answer(problem)
    assert (got.matrix_index, got.stats.assignments) == (0, 181)
    assert sizes == [36] * 6


def test_first_witness_past_the_first_chunk():
    # @p1 & p1 is designated only at p1 = ht, the last digit, so the lowest
    # witness lies in the sixth chunk of 6**6 assignments
    prem = parse_formula_set("@p1 & p1")
    conc = parse_formula_set("p2 | p3 | p4 | p5 | p6 | p7")
    res = check_consequence(ConsequenceProblem([MAT_PP6H["b"]], prem, conc))
    assert isinstance(res, Fails)
    assert {f.head: v for f, v in res.witness.items() if f.is_var} == dict(
        p1="ht", p2="hf", p3="hf", p4="hf", p5="hf", p6="hf", p7="hf"
    )
    assert res.stats.path == "bitset"
    assert res.stats.assignments == 5 * 6**6 + 1 > kernel.CHUNK


def test_chunks_are_built_one_at_a_time():
    # check_identity and valuation_family read each chunk's values off its
    # rows and drop them before the next chunk's are built
    pp6h = FiniteAlgebra(lookup("algebra", "pp6h").payload)
    p, q, r = map(var, "pqr")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "CHUNK", 36)
        sizes = watch_bitsets(mp)
        assert check_identity(pp6h, "x & (y | z)", "(x & y) | (x & z)") is None
        assert sizes == [36] * 6
        del sizes[:]
        assert valuation_family([app("and", app("and", p, q), r)], ["p"]) == [("ht",)]
        assert sizes == [36] * 6
    # no shared variable: every assignment projects to the one empty tuple
    assert valuation_family([p], []) == [()]


def set_valued_profile(m, f):
    interp = m.algebra.interp

    def ev(g, a):
        if g.is_var:
            return frozenset({a})
        out = set()
        for combo in product(*(ev(x, a) for x in g.args)):
            out |= interp[g.head][combo]
        return frozenset(out)

    return tuple(ev(f, a) for a in m.carrier)


UNARY_MATRICES = ["m-up", "m-leq", "letk-ub"]


@SETTINGS
@given(st.sampled_from(UNARY_MATRICES).flatmap(
    lambda name: st.tuples(
        st.just(name),
        formulas(lookup("matrix", name).payload.algebra.connectives, ["p"], 8),
    )
))
def test_unary_profile_matches_set_valued_evaluation(case):
    name, f = case
    m = lookup("matrix", name).payload
    assert unary_profile(m, f) == set_valued_profile(m, f)


@pytest.mark.parametrize("name", UNARY_MATRICES)
def test_enumerated_profiles_match_set_valued_evaluation(name):
    m = lookup("matrix", name).payload
    k = kernel.compiled(m.algebra)
    for n, (_, f, profile) in enumerate(kernel.enumerate_unary(m.algebra, 2)):
        assert tuple(map(k.values, profile)) == set_valued_profile(m, f)
        if n == 150:
            break


def reference_enumerate_unary(alg, max_depth=None):
    """enumerate_unary as one Compiled.combine per argument tuple, every
    tuple of the depth's product in order, with no block memos, no skipped
    heads and no symmetry."""
    k = kernel.compiled(alg)
    conns = sorted(k.arity, key=lambda c: (k.arity[c], c))
    p = var("p")
    formulas, profiles = [p], [k.identity]
    seen = {k.identity}
    yield 0, p, k.identity
    for conn in conns:
        if k.arity[conn] == 0:
            profile = k.combine(conn, ())
            if profile not in seen:
                seen.add(profile)
                formulas.append(app(conn))
                profiles.append(profile)
                yield 0, formulas[-1], profile
    start = depth = 0
    while max_depth is None or depth < max_depth:
        depth += 1
        size = len(profiles)
        for conn in conns:
            arity = k.arity[conn]
            if arity == 0:
                continue
            for head in product(range(size), repeat=arity - 1):
                first = [profiles[i] for i in head]
                low = 0 if head and max(head) >= start else start
                for last in range(low, size):
                    profile = k.combine(conn, first + [profiles[last]])
                    if profile in seen:
                        continue
                    seen.add(profile)
                    f = app(conn, *(formulas[i] for i in head), formulas[last])
                    formulas.append(f)
                    profiles.append(profile)
                    yield depth, f, profile
        if len(profiles) == size:
            return
        start = size


@st.composite
def multialgebras(draw, sizes=(2, 4)):
    """A set-valued algebra on sizes[0] to sizes[1] values, with up to four
    connectives of arity 0 to 3 (at most one ternary), binary tables
    symmetric or not; output sets may be empty.  Returns (algebra, depth
    bound): depth 2 with a ternary connective or more than 4 values, else
    3, and saturation on two values."""
    carrier = "abcdefg"[: draw(st.integers(*sizes))]
    outputs = st.frozensets(st.sampled_from(carrier))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    if arities.count(3) > 1:
        arities = [a for a in arities if a != 3] + [3]
    interp = {}
    for c, arity in enumerate(arities):
        keys = list(product(carrier, repeat=arity))
        table = dict(zip(keys, draw(st.lists(outputs, min_size=len(keys),
                                             max_size=len(keys)))))
        if arity == 2 and draw(st.booleans()):
            table = {(a, b): table[min(a, b), max(a, b)] for a, b in keys}
        interp["c%d" % c] = table
    alg = MultiAlgebra("random", carrier, interp)
    if len(carrier) == 2:
        return alg, None
    return alg, 2 if 3 in arities or len(carrier) > 4 else 3


@settings(max_examples=80, deadline=None, derandomize=True)
@given(multialgebras())
def test_clone_walk_matches_reference(case):
    alg, depth = case
    want = list(reference_enumerate_unary(alg, depth))
    assert list(kernel.enumerate_unary(alg, depth)) == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(multialgebras((5, 7)))
def test_clone_walk_on_several_blocks_matches_reference(case):
    # 5 to 7 carrier positions fill one block of kernel.BLOCK and leave a
    # shorter last one
    alg, depth = case
    want = list(reference_enumerate_unary(alg, depth))
    assert list(kernel.enumerate_unary(alg, depth)) == want


@pytest.mark.parametrize("name", ["pp6h-ut", "m-leq"])
def test_clone_walk_to_saturation_matches_reference(name):
    alg = lookup("matrix", name).payload.algebra
    assert list(kernel.enumerate_unary(alg)) == list(
        reference_enumerate_unary(alg)
    )


@pytest.mark.parametrize(
    "alg",
    [lookup("algebra", n).payload for n in names("algebra")]
    + [lookup("matrix", n).payload.algebra for n in ("m-leq", "m-up")],
    ids=lambda alg: alg.name,
)
def test_clone_walk_of_registered_algebras(alg):
    want = list(reference_enumerate_unary(alg, 2))
    assert list(kernel.enumerate_unary(alg, 2)) == want


def test_m_leq_clone_per_depth():
    m = lookup("matrix", "m-leq").payload
    depths = Counter(d for d, _, _ in kernel.enumerate_unary(m.algebra))
    assert depths == {0: 3, 1: 3, 2: 11, 3: 39, 4: 165, 5: 203, 6: 8}


STEERED = [
    lookup("calculus", c).payload for c in names("calculus")
    if lookup("calculus", c).payload.xi is not None
]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(STEERED).flatmap(
    lambda calc: st.tuples(
        st.just(calc),
        st.frozensets(
            formulas(calc.models[0].algebra.connectives, ["p", "q"], 4),
            min_size=1, max_size=3,
        ),
    )
))
def test_model_truths_match_eval_formula(case):
    calc, base = case
    universe = frozenset(generalized_subformulas(base, calc.xi))
    got = _model_truths(calc, base, universe)
    vs = sorted(variables(base))
    # one row per (model, assignment), concatenated model by model
    rows = []
    for m in calc.models:
        sig = m.algebra.connectives
        k = kernel.compiled(m.algebra)
        if k.single_valued(k.all) is None or any(
            not f.is_var and sig.get(f.head) != len(f.args) for f in universe
        ):
            rows = None
            break
        alg = FiniteAlgebra(m.algebra)
        for combo in product(alg.carrier, repeat=len(vs)):
            env = dict(zip(vs, combo))
            rows.append(frozenset(
                f for f in universe if alg.eval_formula(f, env) in m.designated
            ))
    want = None
    if rows is not None:
        want = {
            f: sum(1 << r for r, row in enumerate(rows) if f in row)
            for f in universe
        }
    assert got == want


def reference_instances(calc, targets, universe):
    """Every assignment of targets to a rule's variables, in product order,
    kept when its formulas lie in universe (if given), the antecedent and
    succedent are disjoint and the pair is new."""
    instances, seen = [], set()
    for rule in calc.rules:
        vs = sorted(variables(rule.antecedent | rule.succedent))
        for combo in product(targets, repeat=len(vs)):
            mapping = dict(zip(vs, combo))
            ant = frozenset(substitute(f, mapping) for f in rule.antecedent)
            succ = frozenset(substitute(f, mapping) for f in rule.succedent)
            if universe is not None and not (ant | succ) <= universe:
                continue
            if ant & succ or (ant, succ) in seen:
                continue
            seen.add((ant, succ))
            instances.append((rule.name, mapping, ant, succ))
    return instances


def _edge_calculus():
    """Variable-free formulas, an instance always meeting its own
    succedent, duplicates within a rule and across rules, a formula
    whose variables are not a prefix of the rule's, binary subterms whose
    first argument the inner loop binds (@(q => p), p sorted before q) and
    the outer one (@(p => q)), formulas of one side that coincide only
    when two variables take one target (in clauses of two literals and of
    three), a binary connective over a constant, and one connective at two
    arities."""
    p, q, top = var("p"), var("q"), app("top")
    pq, qp = app("circ", app("imp", p, q)), app("circ", app("imp", q, p))
    return Calculus("edge", [
        Rule("top_i", frozenset(), frozenset({top})),
        Rule("refl", frozenset({p}), frozenset({p})),
        Rule("pair", frozenset({p, q}), frozenset()),
        Rule("pair_again", frozenset({q, p}), frozenset()),
        Rule("mixed", frozenset({app("neg", q)}),
             frozenset({app("and", p, q), top})),
        Rule("rows", frozenset({qp}), frozenset({pq})),
        Rule("twins", frozenset({pq, qp}), frozenset()),
        Rule("either", frozenset(), frozenset({p, q})),
        Rule("either_not", frozenset({app("neg", p)}), frozenset({p, q})),
        Rule("top_imp", frozenset({app("imp", top, p)}), frozenset({p})),
        Rule("arities", frozenset({app("f", p)}), frozenset({app("f", p, q)})),
    ], (app("neg", p), app("and", p, q), pq, app("imp", top, p),
        app("f", p), app("f", p, q)))


GROUNDED = [lookup("calculus", c).payload for c in names("calculus")]
GROUNDED.append(_edge_calculus())


def rule_connectives(calc):
    return {
        f.head: len(f.args)
        for r in calc.rules
        for f in subformulas(r.antecedent | r.succedent)
        if not f.is_var
    }


@pytest.mark.parametrize("calc", GROUNDED, ids=lambda calc: calc.name)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_grounding_matches_product_and_filter(calc, data):
    n = data.draw(st.integers(1, 3))
    base = data.draw(st.frozensets(
        formulas(rule_connectives(calc), ["p", "q", "r"][:n], 3),
        min_size=1, max_size=3,
    ))
    targets = sorted(subformulas(base), key=canon_key)
    universes = [None]
    if calc.xi is not None:
        universes.append(frozenset(generalized_subformulas(base, calc.xi)))
    for universe in universes:
        got = materialized(_build_instances(calc, targets, universe))
        assert got == reference_instances(calc, targets, universe)


def test_grounding_edge_cases():
    calc = _edge_calculus()
    base = parse_formula_set("p, ~q")
    targets = sorted(subformulas(base), key=canon_key)
    got = materialized(_build_instances(calc, targets, None))
    assert got == reference_instances(calc, targets, None)
    universe = frozenset(generalized_subformulas(base, calc.xi))
    assert materialized(_build_instances(calc, targets, universe)) == (
        reference_instances(calc, targets, universe)
    )
    names_ = [name for name, _, _, _ in got]
    assert names_.count("top_i") == 1
    assert "refl" not in names_ and "pair_again" not in names_
    # one instance per set of at most two targets, not per ordered pair
    assert names_.count("pair") == len(targets) * (len(targets) + 1) // 2


def _edge_bases():
    p, q, top = var("p"), var("q"), app("top")
    return [
        frozenset({p, app("neg", q)}),
        frozenset({app("circ", app("imp", p, q)), app("circ", app("imp", q, p))}),
        frozenset({app("imp", top, p), q}),
        frozenset({app("f", p), app("f", p, app("neg", q)), app("f", q, q)}),
    ]


@pytest.mark.parametrize(
    "base", _edge_bases(), ids=lambda base: ", ".join(sorted(map(render_formula, base)))
)
def test_edge_grounding_clauses_are_exact(base):
    # each clause holds its instance's literals once, sorted, on both
    # routes: equal literals of one side are merged, and nothing else
    calc = _edge_calculus()
    targets = sorted(subformulas(base), key=canon_key)
    for route in (None, frozenset(generalized_subformulas(base, calc.xi))):
        ground = _build_instances(calc, targets, route)
        want = reference_instances(calc, targets, route)
        assert materialized(ground) == want
        ids = {f: i for i, f in enumerate(ground.formulas)}
        assert ground.clauses == [
            sorted([2 * ids[f] + 1 for f in ant] + [2 * ids[f] for f in succ])
            for _, _, ant, succ in want
        ]
        names_ = {name for name, _ in ground}
        assert {"twins", "either", "either_not"} <= names_


def test_grounding_skips_a_rule_without_compiling_it():
    # no formula of the universe of p, q has a "xor": the rule is left
    # out before it is compiled; grounding without a universe builds it
    p, q = var("p"), var("q")
    rule = Rule("xor_only", frozenset({app("xor", p, q)}), frozenset({p}))
    calc = Calculus("xor", [rule], ())
    targets = [p, q]
    misses = _compiled_rule.cache_info().misses
    ground = _build_instances(calc, targets, frozenset(targets))
    assert len(ground) == 0
    assert _compiled_rule.cache_info().misses == misses
    assert len(_build_instances(calc, targets, None)) == 4
    assert _compiled_rule.cache_info().misses == misses + 1


# connective and rule names that the generated grounding code must not
# splice into its source as text
AWKWARD = st.text(alphabet="ab'\"\\\n", min_size=1, max_size=3)


@st.composite
def random_calculi(draw):
    """A calculus over connectives of arity 0-2 with awkward names, of rules
    with 0-3 variables, empty sides, formulas repeated within and across
    rules and sides meeting, and targets and a universe for it, which is
    not always closed under subformulas; and the names of the rules, put
    in among the others, that use a connective which neither the targets
    nor the universe have."""
    heads = draw(st.lists(AWKWARD, unique=True, max_size=3))
    sig = {h: draw(st.integers(0, 2)) for h in heads}
    leaves = st.sampled_from(["p", "q", "r"]).map(var)
    consts = sorted(h for h, k in sig.items() if k == 0)
    if consts:
        leaves = leaves | st.sampled_from(consts).map(app)
    pool = draw(st.lists(formulas(sig, ["p", "q", "r"], 4) if any(sig.values())
                         else leaves, min_size=1, max_size=6))
    side = st.frozensets(st.sampled_from(pool), max_size=3)
    names_ = draw(st.lists(AWKWARD, unique=True, min_size=1, max_size=4))
    rules = [Rule(name, draw(side), draw(side)) for name in names_]
    xi = tuple(draw(st.lists(st.sampled_from(pool), max_size=4)))
    fresh = draw(AWKWARD.filter(lambda h: h not in sig))
    args = st.lists(st.sampled_from(pool), max_size=2)
    lacking = []
    for name in draw(st.lists(AWKWARD.filter(lambda n: n not in names_),
                              unique=True, max_size=2)):
        f = app(fresh, *draw(args))
        rule = Rule(name, draw(side) | {f}, draw(side))
        if draw(st.booleans()):
            rule = Rule(name, rule.succedent, rule.antecedent)
        rules.insert(draw(st.integers(0, len(rules))), rule)
        lacking.append(name)
    base = draw(st.frozensets(
        formulas(sig, ["p", "q"], 3) if any(sig.values()) else leaves,
        min_size=1, max_size=2,
    ))
    targets = sorted(subformulas(base), key=canon_key)
    # drop some formulas beyond the targets, so that the subformula closure
    # the grounding numbers holds formulas outside the universe
    extra = sorted(generalized_subformulas(base, xi) - set(targets), key=canon_key)
    kept = draw(st.lists(st.booleans(), min_size=len(extra), max_size=len(extra)))
    universe = frozenset(targets).union(f for f, k in zip(extra, kept) if k)
    return Calculus("random", rules, xi), targets, universe, lacking


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_calculi())
def test_generated_grounding_matches_product_and_filter(case):
    calc, targets, universe, lacking = case
    for route in (universe, None):
        ground = _build_instances(calc, targets, route)
        got = materialized(ground)
        assert got == reference_instances(calc, targets, route)
        if route is not None:
            # the rules the universe lacks a connective of are skipped
            kept = [r for r in calc.rules if r.name not in lacking]
            rest = _build_instances(Calculus("rest", kept, calc.xi), targets, route)
            assert rest.clauses == ground.clauses and list(rest) == list(ground)
        ids = {f: i for i, f in enumerate(ground.formulas)}
        assert len(ids) == len(ground.formulas)
        if route is not None:
            order = sorted(route, key=canon_key)
            assert ground.formulas[:len(order)] == order
        assert len(ground.clauses) == len(ground)
        for clause, (_, _, ant, succ) in zip(ground.clauses, got):
            assert clause == sorted(
                [2 * ids[f] + 1 for f in ant] + [2 * ids[f] for f in succ]
            )


PP6H = FiniteAlgebra(lookup("algebra", "pp6h").payload)


@SETTINGS
@given(st.tuples(
    formulas(PP6H.multi.connectives, ["x", "y", "z"]),
    formulas(PP6H.multi.connectives, ["x", "y", "z"]),
))
def test_check_identity_first_counterexample(pair):
    lhs, rhs = pair
    vs = sorted(variables(lhs) | variables(rhs))
    want = None
    for combo in product(PP6H.carrier, repeat=len(vs)):
        env = dict(zip(vs, combo))
        if PP6H.eval_formula(lhs, env) != PP6H.eval_formula(rhs, env):
            want = env
            break
    assert check_identity(PP6H, lhs, rhs) == want



# the reference evaluators, and the one product function allowed to call
# each besides its own definition: semantics falls back on solve_valuations
# for components that are not single-valued
REFERENCE_EVALUATORS = {
    "eval_formula": None,
    "unary_profile": None,
    "solve_valuations": ("semantics", "backtrack"),
}


def _evaluator_calls(path):
    """(function, callee) for each call of a reference evaluator in the
    module at path, function the innermost def around the call."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in REFERENCE_EVALUATORS:
                found.append((inside, name))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), None)
    return found


def test_product_code_calls_no_reference_evaluator():
    src = Path(kernel.__file__).parent
    calls = {}
    for path in sorted(src.glob("*.py")):
        for inside, name in _evaluator_calls(path):
            allowed = REFERENCE_EVALUATORS[name]
            if inside != name and (path.stem, inside) != allowed:
                calls.setdefault(path.stem, []).append((inside, name))
    assert calls == {}
