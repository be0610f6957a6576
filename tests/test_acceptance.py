"""End-to-end acceptance checks for the workbench.

Each test exercises one headline capability against independently
transcribed tables and brute-force semantic oracles.
"""

from itertools import product

import pytest

from conftest import make_rng, random_formula, random_sequent

from mvlogic.algebra import (
    FILTER_LATTICE,
    FILTER_REGULAR,
    FiniteAlgebra,
    check_identity,
    check_inequality,
    filters,
    leibniz_and_reduce,
    residuum_of_meet,
    unary_term_functions,
)
from mvlogic.axiomatizer import (
    NotMonadic,
    find_discriminator,
    generate_refinement_rules,
)
from mvlogic.calculus import (
    Calculus,
    Proved,
    Refuted,
    SET_SET,
    countermodel_from_partition,
    prove,
    to_set_fmla_calculus,
    validate_tree,
)
from mvlogic.formula import (
    app,
    parse_formula,
    parse_formula_set,
    var,
    variables,
)
from mvlogic.interpolation import (
    ASSERTIONAL,
    InterpolationInstance,
    ORDER_PRESERVING,
    check_ddt_instance,
    cip_failure_certificate,
    entails,
    maehara_interpolant,
)
from mvlogic.registry import (
    ALG_DM4,
    ALG_PP2H,
    ALG_PP3H,
    ALG_PP4H,
    ALG_PP6,
    ALG_PP6A1,
    ALG_PP6H,
    ALG_LETK,
    KIND_CALCULUS,
    MAT_LETK_UB,
    MAT_M_LEQ,
    MAT_M_UP,
    MAT_PP6A1_UB,
    MAT_PP6H,
    MAT_PP6_UB,
    ORDER_CLASS,
    PP_TOP_DISTINGUISHING,
    R_CL_RULES,
    R_PP_RULES,
    RULE_D_NEQ_UT,
    RULE_M12,
    UP_CLASS,
    V6,
    XI_MONADIC,
    lookup,
    names,
)
from mvlogic.semantics import (
    ConsequenceProblem,
    Holds,
    check_consequence,
    PNMatrix,
    SET_FMLA,
    Sound,
    Unsound,
    check_rule_soundness,
    eval_multiop,
    total_components,
)


# ---------------------------------------------------------------------------
# Independent transcriptions of the six-valued tables.  The lattice order is
# hf < f < {n, b} < t < ht with n and b incomparable.

_ORD = {
    "hf": set(V6),
    "f": {"f", "n", "b", "t", "ht"},
    "n": {"n", "t", "ht"},
    "b": {"b", "t", "ht"},
    "t": {"t", "ht"},
    "ht": {"ht"},
}


def _leq(a, b):
    return b in _ORD[a]


def _meet(a, b):
    lower = [c for c in V6 if _leq(c, a) and _leq(c, b)]
    (best,) = [c for c in lower if all(_leq(d, c) for d in lower)]
    return best


def _join(a, b):
    upper = [c for c in V6 if _leq(a, c) and _leq(b, c)]
    (best,) = [c for c in upper if all(_leq(c, d) for d in upper)]
    return best


_NEG = {"hf": "ht", "f": "t", "n": "n", "b": "b", "t": "f", "ht": "hf"}
_CIRC = {a: ("ht" if a in ("hf", "ht") else "hf") for a in V6}

_IMP_HEYTING = {
    ("hf", "hf"): "ht", ("hf", "f"): "ht", ("hf", "n"): "ht",
    ("hf", "b"): "ht", ("hf", "t"): "ht", ("hf", "ht"): "ht",
    ("f", "hf"): "hf", ("f", "f"): "ht", ("f", "n"): "ht",
    ("f", "b"): "ht", ("f", "t"): "ht", ("f", "ht"): "ht",
    ("n", "hf"): "hf", ("n", "f"): "b", ("n", "n"): "ht",
    ("n", "b"): "b", ("n", "t"): "ht", ("n", "ht"): "ht",
    ("b", "hf"): "hf", ("b", "f"): "n", ("b", "n"): "n",
    ("b", "b"): "ht", ("b", "t"): "ht", ("b", "ht"): "ht",
    ("t", "hf"): "hf", ("t", "f"): "f", ("t", "n"): "n",
    ("t", "b"): "b", ("t", "t"): "ht", ("t", "ht"): "ht",
    ("ht", "hf"): "hf", ("ht", "f"): "f", ("ht", "n"): "n",
    ("ht", "b"): "b", ("ht", "t"): "t", ("ht", "ht"): "ht",
}

_IMP_CLASSIC = {
    (a, b): (b if a in ("b", "t", "ht") else
             "ht" if a == "hf" or b == "ht" else "t")
    for a in V6 for b in V6
}

_UP_B = {"b", "t", "ht"}


def _imp_a1(a, b):
    if a not in _UP_B or b in _UP_B:
        return frozenset(_UP_B)
    return frozenset({"hf", "f", "n"})


def test_01_truth_tables_match_source():
    for a in V6:
        assert eval_multiop(ALG_PP6, "neg", (a,)) == {_NEG[a]}
        assert eval_multiop(ALG_PP6, "circ", (a,)) == {_CIRC[a]}
        for b in V6:
            assert eval_multiop(ALG_PP6, "and", (a, b)) == {_meet(a, b)}
            assert eval_multiop(ALG_PP6, "or", (a, b)) == {_join(a, b)}
            assert eval_multiop(ALG_PP6H, "imp", (a, b)) == {_IMP_HEYTING[a, b]}
            assert eval_multiop(ALG_LETK, "imp", (a, b)) == {_IMP_CLASSIC[a, b]}
            assert eval_multiop(ALG_PP6A1, "imp", (a, b)) == _imp_a1(a, b)
    assert eval_multiop(ALG_PP6, "top", ()) == {"ht"}
    assert eval_multiop(ALG_PP6, "bot", ()) == {"hf"}
    # derived up/down operators evaluated through the macro expansions
    alg = FiniteAlgebra(ALG_PP6H)
    up = parse_formula("up(p)")
    down = parse_formula("down(p)")
    for a in V6:
        assert alg.eval_formula(up, {"p": a}) == ("hf" if a == "f" else "ht")
        assert alg.eval_formula(down, {"p": a}) == ("hf" if a == "t" else "ht")


def test_02_heyting_implication_residuates_the_meet():
    # brute-force residuation law over all 216 triples
    for a, b, c in product(V6, repeat=3):
        assert _leq(_meet(a, c), b) == _leq(c, _IMP_HEYTING[a, b])
    # and the computed residuum reproduces the table exactly
    table, missing = residuum_of_meet(FiniteAlgebra(ALG_PP6))
    assert missing is None
    assert table == _IMP_HEYTING


def test_03_every_registered_rule_is_sound():
    for name in names(KIND_CALCULUS):
        entry = lookup(KIND_CALCULUS, name)
        for rule in entry.payload.rules:
            res = check_rule_soundness(rule, entry.payload.models)
            assert isinstance(res, Sound), (name, rule.name)


def test_03_distinguishing_rules():
    alg = FiniteAlgebra(ALG_PP6H)
    top_filter = MAT_PP6H["ht"].designated
    b_filter = MAT_PP6H["b"].designated

    # the extra order rule fails once t is designated
    res = check_rule_soundness(RULE_D_NEQ_UT, [MAT_PP6H["t"]])
    assert isinstance(res, Unsound)
    env = {f.head: v for f, v in res.witness.items() if f.is_var}
    t_filter = MAT_PP6H["t"].designated
    for f in RULE_D_NEQ_UT.antecedent:
        assert alg.eval_formula(f, env) in t_filter
    for f in RULE_D_NEQ_UT.succedent:
        assert alg.eval_formula(f, env) not in t_filter
    # a concrete breaking instance, checked by direct evaluation
    env = {"r": "t", "p": "n", "q": "b"}
    for f in RULE_D_NEQ_UT.antecedent:
        assert alg.eval_formula(f, env) in t_filter
    for f in RULE_D_NEQ_UT.succedent:
        assert alg.eval_formula(f, env) not in t_filter

    # contraposition and the three top-assertion rules separate the two
    # designated sets
    for rule in [RULE_M12] + PP_TOP_DISTINGUISHING:
        assert isinstance(
            check_rule_soundness(rule, [MAT_PP6H["ht"]]), Sound
        ), rule.name
        res = check_rule_soundness(rule, [MAT_PP6H["b"]])
        assert isinstance(res, Unsound), rule.name
        env = {f.head: v for f, v in res.witness.items() if f.is_var}
        for f in rule.antecedent:
            assert alg.eval_formula(f, env) in b_filter
        for f in rule.succedent:
            assert alg.eval_formula(f, env) not in b_filter
    assert top_filter < b_filter


_PROVER_PAIRINGS = [
    ("r-b", 11, ["p", "q", "r"]),
    ("r-pp-leq", 12, ["p", "q", "r"]),
    ("r-m-a1", 13, ["p", "q", "r"]),
    ("r-leq", 14, ["p", "q"]),
    ("r-up", 15, ["p", "q"]),
]


def test_04_prover_agrees_with_semantics():
    for name, seed, vars_ in _PROVER_PAIRINGS:
        calc = lookup(KIND_CALCULUS, name).payload
        conns = dict(calc.models[0].algebra.connectives)
        rng = make_rng(seed)
        for _ in range(200):
            prem, conc = random_sequent(rng, conns, vars_, depth=2)
            res = prove(calc, prem, conc)
            sem = check_consequence(
                ConsequenceProblem(calc.models, prem, conc)
            )
            assert isinstance(res, (Proved, Refuted)), (name, prem, conc)
            assert isinstance(res, Proved) == isinstance(sem, Holds), (
                name, prem, conc,
            )


def test_05_ten_valued_total_components():
    assert total_components(MAT_M_UP) == [
        ("hf", "fm", "nm", "bm", "tm", "ht"),
        ("hf", "fm", "nm", "bm", "tp", "ht"),
        ("hf", "fm", "nm", "bp", "tp", "ht"),
        ("hf", "fp", "np", "bp", "tp", "ht"),
    ]
    assert total_components(MAT_M_LEQ) == [
        ("hf", "fm", "nm", "bm", "tm", "ht"),
        ("hf", "fm", "nm", "bp", "tp", "ht"),
        ("hf", "fp", "np", "bp", "tp", "ht"),
    ]


def test_05_ten_valued_consequence_agreement():
    conns = dict(ALG_PP6H.connectives)
    for matrix, klass, seed in (
        (MAT_M_LEQ, ORDER_CLASS, 21),
        (MAT_M_UP, UP_CLASS, 22),
    ):
        rng = make_rng(seed)
        for _ in range(100):
            prem, conc = random_sequent(rng, conns, ["p", "q"], depth=2)
            a = check_consequence(ConsequenceProblem([matrix], prem, conc))
            b = check_consequence(ConsequenceProblem(klass, prem, conc))
            assert isinstance(a, Holds) == isinstance(b, Holds), (prem, conc)


def test_06_a1_excluded_middle_not_assertable():
    def holds(text):
        return isinstance(
            check_consequence(
                ConsequenceProblem(
                    [MAT_PP6A1_UB], frozenset(), parse_formula_set(text)
                )
            ),
            Holds,
        )

    assert holds("p | (p => bot)")
    assert not holds("@(p | (p => bot))")
    assert holds("@top")


_P = var("p")
_EXPECTED_DISCRIMINATOR = {
    "hf": (frozenset({app("circ", _P)}), frozenset({_P})),
    "f": (frozenset({app("neg", _P)}), frozenset({app("circ", _P), _P})),
    "n": (frozenset(), frozenset({_P, app("circ", _P), app("neg", _P)})),
    "b": (frozenset({_P, app("neg", _P)}), frozenset({app("circ", _P)})),
    "t": (frozenset({_P}), frozenset({app("circ", _P), app("neg", _P)})),
    "ht": (frozenset({_P, app("circ", _P)}), frozenset()),
}


def test_07_six_valued_discriminator():
    from mvlogic.axiomatizer import unary_profile

    d = find_discriminator(MAT_PP6_UB, 3)
    for a in V6:
        pos, neg = _EXPECTED_DISCRIMINATOR[a]
        assert d.pos[a] == pos, a
        assert d.neg[a] == neg, a
    # semantic sanity of the table, and isolation of every value pair
    m = MAT_PP6_UB
    undes = frozenset(V6) - m.designated
    idx = {a: i for i, a in enumerate(V6)}
    for a in V6:
        for f in d.pos[a]:
            assert unary_profile(m, f)[idx[a]] <= m.designated
        for f in d.neg[a]:
            assert unary_profile(m, f)[idx[a]] <= undes
    for a, b in product(V6, repeat=2):
        if a == b:
            continue
        separated = (d.pos[a] & d.neg[b]) | (d.neg[a] & d.pos[b])
        assert separated, (a, b)


def test_07_ten_valued_matrices_not_monadic():
    for m in (MAT_M_UP, MAT_M_LEQ):
        res = find_discriminator(m, 99)
        assert isinstance(res, NotMonadic)
        assert res.witness == ("nm", "bm")
        assert res.saturated
        assert res.explored == 432
        assert res.depth == 6


def test_08_generated_calculus_for_classic_implication():
    d = find_discriminator(MAT_PP6_UB, 3)
    gen = generate_refinement_rules(MAT_PP6A1_UB, MAT_LETK_UB, d)
    assert len(gen) == 72
    assert all(r.name.startswith("del_imp_") for r in gen)
    by_name = {r.name: r for r in gen}
    rule = by_name["del_imp_b_hf_n"]
    assert rule.antecedent == parse_formula_set("p, ~p, @q")
    assert rule.succedent == parse_formula_set(
        "@p, q, p => q, ~(p => q), @(p => q)"
    )
    for r in gen:
        assert isinstance(check_rule_soundness(r, [MAT_LETK_UB]), Sound), r.name

    calc = Calculus(
        "letk-generated",
        R_PP_RULES + R_CL_RULES + gen,
        XI_MONADIC,
        SET_SET,
        models=[MAT_LETK_UB],
    )
    conns = dict(ALG_LETK.connectives)
    rng = make_rng(8)
    for _ in range(100):
        prem, conc = random_sequent(rng, conns, ["p", "q", "r"], depth=2)
        res = prove(calc, prem, conc)
        sem = check_consequence(
            ConsequenceProblem([MAT_LETK_UB], prem, conc)
        )
        assert isinstance(res, (Proved, Refuted)), (prem, conc)
        assert isinstance(res, Proved) == isinstance(sem, Holds), (prem, conc)


def test_09_subvariety_separating_identities():
    pp2 = FiniteAlgebra(ALG_PP2H)
    pp3 = FiniteAlgebra(ALG_PP3H)
    pp4 = FiniteAlgebra(ALG_PP4H)
    pp6 = FiniteAlgebra(ALG_PP6H)
    # Kleene: contradictions below excluded middles
    assert check_inequality(pp4, "x & ~x", "y | ~y") is None
    assert check_inequality(pp6, "x & ~x", "y | ~y") is not None
    # testability separates the three-element subalgebra
    test_eq = "x | (x => (y | hneg(y)))"
    assert check_identity(pp3, test_eq, "top") is None
    assert check_identity(pp4, test_eq, "top") is not None
    # Boolean excluded middle only at the two-element stage
    assert check_identity(pp2, "x | ~x", "top") is None
    assert check_identity(pp3, "x | ~x", "top") is not None
    assert check_identity(pp6, "x | ~x", "top") is not None


def test_10_reduction_matches_regular_filters():
    alg = FiniteAlgebra(ALG_PP6H)
    regular = set(filters(alg, FILTER_REGULAR))
    assert regular == {frozenset({"ht"}), frozenset(V6)}
    for designated in filters(alg, FILTER_LATTICE):
        m = PNMatrix("probe", ALG_PP6H, set(designated))
        theta, _ = leibniz_and_reduce(m)
        inside = {f for f in regular if f <= designated}
        assert theta.is_identity() == (inside == {frozenset({"ht"})}), designated


def test_11_refutations_yield_genuine_countermodels():
    calc = lookup(KIND_CALCULUS, "r-leq").payload
    conns = dict(ALG_PP6H.connectives)
    rng = make_rng(41)
    from mvlogic.semantics import solve_valuations

    refuted = 0
    attempts = 0
    while refuted < 50 and attempts < 400:
        attempts += 1
        prem, conc = random_sequent(rng, conns, ["p", "q"], depth=2)
        res = prove(calc, prem, conc)
        if not isinstance(res, Refuted):
            continue
        refuted += 1
        valuation, a = countermodel_from_partition(res.partition, "leq")
        assert a != "t"
        matrix = MAT_PP6H[a]
        for f in prem:
            assert valuation[f] in matrix.designated
        for f in conc:
            assert valuation[f] not in matrix.designated
        # the whole classification is realizable as one legal valuation
        pinned = {f: frozenset({v}) for f, v in valuation.items()}
        assert solve_valuations(matrix, set(valuation), pinned, limit=1)
    assert refuted == 50, attempts


def test_12_disjunctive_set_fmla_calculus():
    rv = to_set_fmla_calculus(lookup(KIND_CALCULUS, "r-leq").payload)
    assert len(rv.rules) == 80
    for rule in rv.rules:
        assert len(rule.succedent) == 1
        res = check_consequence(
            ConsequenceProblem(
                ORDER_CLASS, rule.antecedent, rule.succedent, SET_FMLA
            )
        )
        assert isinstance(res, Holds), rule.name

    facts = [
        ("~(p & q)", "~p | ~q"),
        ("", "@(p => p)"),
        ("@p, p, ~p", "q"),
    ]
    for prem_text, goal_text in facts:
        prem = parse_formula_set(prem_text)
        goal = parse_formula_set(goal_text)
        res = prove(rv, prem, goal)
        assert isinstance(res, Proved), (prem_text, goal_text)
        assert validate_tree(rv, res.tree, prem, goal) is None


def test_13_deduction_detachment():
    conns = dict(ALG_PP6H.connectives)
    for logic, seed in ((ORDER_PRESERVING, 131), (ASSERTIONAL, 132)):
        rng = make_rng(seed)
        for _ in range(100):
            phi = {
                random_formula(rng, conns, ["p", "q", "r"], 2)
                for _ in range(rng.randint(0, 2))
            }
            a = random_formula(rng, conns, ["p", "q", "r"], 2)
            b = random_formula(rng, conns, ["p", "q", "r"], 2)
            left, right = check_ddt_instance(logic, phi, a, b)
            assert left == right, (logic, phi, a, b)


def test_13_maehara_interpolation():
    conns = dict(ALG_PP6H.connectives)
    rng = make_rng(133)
    done = 0
    attempts = 0
    while done < 50 and attempts < 4000:
        attempts += 1
        phi = frozenset(
            random_formula(rng, conns, ["p", "q"], 2)
            for _ in range(rng.randint(1, 2))
        )
        psi = frozenset(
            random_formula(rng, conns, ["q", "r"], 2)
            for _ in range(rng.randint(0, 1))
        )
        goal = random_formula(rng, conns, ["q", "r"], 2)
        shared = variables(phi) & variables(psi | {goal})
        if not shared:
            continue
        if not entails(ASSERTIONAL, phi | psi, goal):
            continue
        inst = InterpolationInstance(phi, psi, goal)
        xi = maehara_interpolant(inst)
        assert variables(xi) <= shared
        assert entails(ASSERTIONAL, phi, xi)
        assert entails(ASSERTIONAL, psi | {xi}, goal)
        done += 1
    assert done == 50, attempts


def _clone_oracle(alg):
    """Pointwise closure of the unary functions on alg's carrier under its
    operations, starting from the identity and the constants: each function
    maps to the round in which the closure first reaches it."""
    det = {
        conn: {key: next(iter(out)) for key, out in table.items()}
        for conn, table in alg.interp.items()
    }
    funcs = {tuple(alg.carrier): 0}
    for conn, table in det.items():
        if alg.arity(conn) == 0:
            funcs.setdefault(tuple(table[()] for _ in alg.carrier), 0)
    rounds = 0
    while True:
        rounds += 1
        snapshot = list(funcs)
        for conn, table in det.items():
            k = alg.arity(conn)
            if k == 0:
                continue
            for args in product(snapshot, repeat=k):
                funcs.setdefault(tuple(table[xs] for xs in zip(*args)), rounds)
        if len(funcs) == len(snapshot):
            return funcs


def _connective_depth(f):
    return max((1 + _connective_depth(a) for a in f.args or ()), default=0)


@pytest.mark.parametrize(
    "alg", [ALG_DM4, ALG_PP2H, ALG_PP3H, ALG_PP4H, ALG_PP6, ALG_PP6H],
    ids=lambda alg: alg.name,
)
def test_13_unary_clone_matches_closure(alg):
    closure = _clone_oracle(alg)
    clone = unary_term_functions(FiniteAlgebra(alg))
    assert clone.keys() == closure.keys()
    for func, witness in clone.items():
        assert _connective_depth(witness) == closure[func], func


def test_13_no_single_variable_interpolant():
    report = cip_failure_certificate()
    assert report.entailment_confirmed
    assert report.clone_size == len(_clone_oracle(ALG_PP6H))
    assert report.clone_size == len(unary_term_functions(FiniteAlgebra(ALG_PP6H)))
    assert report.passing == []
    assert len(report.verdicts) == report.clone_size
    assert report.failed
