"""Finite-algebra toolbox: identities, congruences, filters, subalgebras,
residuation and the unary clone.  The toolbox is compared with direct
implementations of its definitions (kept below as references) on random
finite lattices, and its CLI output is pinned for the registered algebras."""

import json
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mvlogic.algebra import (
    FILTER_LATTICE,
    FILTER_PRIME,
    FILTER_PRINCIPAL,
    FILTER_REGULAR,
    FiniteAlgebra,
    check_identity,
    check_inequality,
    congruences,
    filters,
    leibniz_and_reduce,
    residuum_of_meet,
    subalgebras,
    unary_term_functions,
    variety_profile,
)
from mvlogic.algebra import (
    VARIETIES,
    Congruence,
    _DEMORGAN_LATTICE,
    _delta_map,
    _holds,
)
from mvlogic.cli import EXIT_USAGE, run
from mvlogic.errors import (
    CarrierTooLarge,
    MissingConnective,
    NotALattice,
    TooManyVariables,
)
from mvlogic.formula import app, parse_formula, substitute, var
from mvlogic.registry import matrix_to_json
from mvlogic.registry import (
    ALG_DM4,
    ALG_PP2H,
    ALG_PP6,
    ALG_PP6H,
    MAT_PP6H,
    MAT_PP6_UB,
    V6,
    lookup,
)
from mvlogic.semantics import (
    ConsequenceProblem,
    Holds,
    MultiAlgebra,
    PNMatrix,
    check_consequence,
)

PP6 = FiniteAlgebra(ALG_PP6)
PP6H = FiniteAlgebra(ALG_PP6H)


def two_chain():
    carrier = ["o", "i"]
    return FiniteAlgebra(
        MultiAlgebra(
            "two",
            carrier,
            {
                "and": {
                    (a, b): {"i" if a == b == "i" else "o"}
                    for a, b in product(carrier, repeat=2)
                },
                "or": {
                    (a, b): {"o" if a == b == "o" else "i"}
                    for a, b in product(carrier, repeat=2)
                },
                "top": {(): {"i"}},
                "bot": {(): {"o"}},
            },
        )
    )


def diamond_m3():
    carrier = ["bot", "x", "y", "z", "top"]

    def meet(a, b):
        if a == b:
            return a
        if a == "top":
            return b
        if b == "top":
            return a
        return "bot"

    def join(a, b):
        if a == b:
            return a
        if a == "bot":
            return b
        if b == "bot":
            return a
        return "top"

    return FiniteAlgebra(
        MultiAlgebra(
            "m3",
            carrier,
            {
                "and": {(a, b): {meet(a, b)} for a, b in product(carrier, repeat=2)},
                "or": {(a, b): {join(a, b)} for a, b in product(carrier, repeat=2)},
                "top": {(): {"top"}},
                "bot": {(): {"bot"}},
            },
        )
    )


def test_check_identity_valid():
    assert check_identity(PP6, "@x", "@~x") is None
    assert check_identity(PP6, "x", "x") is None


def test_check_identity_counterexample():
    wit = check_identity(PP6H, "x | ~x", "top")
    # first counterexample in carrier order: f | ~f = t, not top
    assert wit == {"x": "f"}


def test_check_identity_variable_bound():
    with pytest.raises(TooManyVariables):
        check_identity(PP6, "x1 & x2 & x3 & x4 & x5", "top")


def test_check_inequality():
    assert check_inequality(PP6, "x & y", "x") is None
    wit = check_inequality(PP6, "x", "x & y")
    assert wit is not None


def test_variety_profiles():
    assert variety_profile(FiniteAlgebra(ALG_DM4)) == {"DeMorgan"}
    pp6_names = variety_profile(PP6)
    assert {"DeMorgan", "InvolutiveStone", "PP"} <= pp6_names
    assert "SymmetricHeyting" not in pp6_names
    assert variety_profile(PP6H) == {
        "DeMorgan",
        "InvolutiveStone",
        "PP",
        "SymmetricHeyting",
        "PPImp",
        "DeltaIdempotent",
    }


def test_congruences_pp6():
    cs = congruences(PP6)
    assert len(cs) == 3
    nontrivial = [
        c for c in cs if not c.is_identity() and len(c.blocks) > 1
    ]
    assert len(nontrivial) == 1
    assert set(nontrivial[0].blocks) == {
        frozenset({"hf"}),
        frozenset({"ht"}),
        frozenset({"f", "n", "b", "t"}),
    }


def test_congruences_pp6h_simple():
    assert len(congruences(PP6H)) == 2
    assert len(congruences(FiniteAlgebra(ALG_PP2H))) == 2


def test_congruence_lattice_closure():
    cs = congruences(PP6)
    # closed under meet: blockwise intersection of any two is in the list
    keys = {c.key() for c in cs}
    for c1 in cs:
        for c2 in cs:
            blocks = {}
            for a in PP6.carrier:
                k = (tuple(sorted(c1.block_of(a))), tuple(sorted(c2.block_of(a))))
                blocks.setdefault(k, []).append(a)
            met = tuple(sorted(tuple(sorted(b)) for b in blocks.values()))
            assert met in keys


def test_congruences_carrier_bound():
    carrier, leq, _ = chain(13)
    alg = lattice_algebra(carrier, leq)
    with pytest.raises(CarrierTooLarge):
        congruences(alg)


def test_leibniz_reduced_matrices():
    for a in ("f", "n", "b", "t", "ht"):
        theta, quotient = leibniz_and_reduce(MAT_PP6H[a])
        assert theta.is_identity()
        assert len(quotient.carrier) == 6
    theta, _ = leibniz_and_reduce(MAT_PP6_UB)
    assert theta.is_identity()


def test_leibniz_full_designated_collapses():
    m = PNMatrix("all", ALG_PP6, set(V6))
    theta, quotient = leibniz_and_reduce(m)
    assert len(theta.blocks) == 1
    assert len(quotient.carrier) == 1


def test_leibniz_quotient_same_consequence():
    theta, quotient = leibniz_and_reduce(MAT_PP6H["b"])
    from conftest import make_rng, random_sequent

    rng = make_rng(31)
    conns = dict(ALG_PP6H.connectives)
    for _ in range(30):
        prem, conc = random_sequent(rng, conns, ["p", "q"], depth=2)
        a = check_consequence(ConsequenceProblem([MAT_PP6H["b"]], prem, conc))
        b = check_consequence(ConsequenceProblem([quotient], prem, conc))
        assert isinstance(a, Holds) == isinstance(b, Holds)


def test_filters_two_chain():
    alg = two_chain()
    assert filters(alg, FILTER_LATTICE) == [
        frozenset({"i"}),
        frozenset({"i", "o"}),
    ]


def test_filters_pp6_prime():
    got = filters(PP6, FILTER_PRIME)
    upsets = {
        a: frozenset(v for v in V6 if PP6.leq(a, v)) for a in V6
    }
    assert set(got) == {upsets["f"], upsets["n"], upsets["b"], upsets["ht"]}


def test_filters_pp6h_regular():
    got = filters(PP6H, FILTER_REGULAR)
    assert set(got) == {frozenset({"ht"}), frozenset(V6)}


def test_filters_principal():
    got = filters(PP6, FILTER_PRINCIPAL)
    # on PP6 every lattice filter is principal
    assert got == filters(PP6, FILTER_LATTICE)
    for f in got:
        gens = [a for a in f if all(PP6.leq(a, b) for b in f)]
        assert len(gens) == 1


SWAP = {"n": "b", "b": "n"}


def canon_universe(u):
    """Canonical form of a subuniverse modulo the b/n mirror automorphism."""
    swapped = frozenset(SWAP.get(v, v) for v in u)
    return min(tuple(sorted(u)), tuple(sorted(swapped)))


def test_subalgebras_pp6h():
    got = {canon_universe(s) for s in subalgebras(PP6H)}
    expected = {
        canon_universe(u)
        for u in (
            {"hf", "ht"},
            {"hf", "n", "ht"},
            {"hf", "f", "t", "ht"},
            set(V6),
        )
    }
    assert got == expected
    # no five-element chain
    assert all(len(s) != 5 for s in subalgebras(PP6H))


def test_subalgebras_pp6_has_five_chain():
    got = {canon_universe(s) for s in subalgebras(PP6)}
    chain = canon_universe({"hf", "f", "n", "t", "ht"})
    assert chain in got
    assert got == {canon_universe(s) for s in subalgebras(PP6H)} | {chain}


def test_subalgebras_pp2h():
    assert subalgebras(FiniteAlgebra(ALG_PP2H)) == [frozenset({"hf", "ht"})]


def test_residuum_two_chain():
    table, missing = residuum_of_meet(two_chain())
    assert missing is None
    assert table[("i", "o")] == "o"
    assert table[("o", "o")] == "i"
    assert table[("i", "i")] == "i"
    assert table[("o", "i")] == "i"


def test_residuum_diamond_fails():
    table, missing = residuum_of_meet(diamond_m3())
    assert table is None
    a, b = missing
    # two incomparable maximal candidates witness the failure
    alg = diamond_m3()
    candidates = [
        c for c in alg.carrier if alg.leq(alg.op("and", a, c), b)
    ]
    maxima = [
        c for c in candidates
        if not any(alg.leq(c, d) and c != d for d in candidates)
    ]
    assert len(maxima) > 1


def test_unary_clone_contains_up():
    clone = unary_term_functions(PP6H)
    identity = tuple(PP6H.carrier)
    assert identity in clone
    up_func = tuple("hf" if a == "f" else "ht" for a in PP6H.carrier)
    assert up_func in clone
    down_func = tuple("hf" if a == "t" else "ht" for a in PP6H.carrier)
    assert down_func in clone


def test_unary_clone_witnesses_evaluate_correctly():
    clone = unary_term_functions(PP6H)
    for func, formula in clone.items():
        for i, a in enumerate(PP6H.carrier):
            assert PP6H.eval_formula(formula, {"p": a}) == func[i]


def test_equivalentiality_conditions():
    """The two-formula equivalence set Delta(x=>y), Delta(y=>x) satisfies
    the four defining conditions over the order-preserving matrices."""
    from mvlogic.registry import ORDER_CLASS

    def xi(x, y):
        return {
            parse_formula("delta(%s => %s)" % (x, y)),
            parse_formula("delta(%s => %s)" % (y, x)),
        }

    def entails(prem, concl):
        res = check_consequence(
            ConsequenceProblem(ORDER_CLASS, frozenset(prem),
                               frozenset({concl}))
        )
        return isinstance(res, Holds)

    # (1) reflexivity
    for f in xi("x", "x"):
        assert entails(set(), f)
    # (2) detachment
    assert entails({var("x")} | xi("x", "y"), var("y"))
    # (3) unary replacement
    for conn in ("@", "~"):
        for f in xi("%sx" % conn, "%sy" % conn):
            assert entails(xi("x", "y"), f)
    # (4) binary replacement
    for conn in ("&", "|", "=>"):
        prem = xi("x1", "y1") | xi("x2", "y2")
        for f in xi("(x1 %s x2)" % conn, "(y1 %s y2)" % conn):
            assert entails(prem, f)


# --- the toolbox on random finite lattices, against direct references ----

def lattice_algebra(carrier, leq, extra=None, name="lattice"):
    """The bounded lattice of a finite order with meets and joins, plus the
    given tables (connective -> {argument tuple, or value when unary: value})."""

    def meet(a, b):
        lower = [c for c in carrier if leq(c, a) and leq(c, b)]
        return next(c for c in lower if all(leq(d, c) for d in lower))

    def join(a, b):
        upper = [c for c in carrier if leq(a, c) and leq(b, c)]
        return next(c for c in upper if all(leq(c, d) for d in upper))

    top = next(c for c in carrier if all(leq(d, c) for d in carrier))
    bot = next(c for c in carrier if all(leq(c, d) for d in carrier))
    interp = {
        "and": {(a, b): {meet(a, b)} for a, b in product(carrier, repeat=2)},
        "or": {(a, b): {join(a, b)} for a, b in product(carrier, repeat=2)},
        "top": {(): {top}},
        "bot": {(): {bot}},
    }
    for conn, table in (extra or {}).items():
        interp[conn] = {
            key if isinstance(key, tuple) else (key,): {v} for key, v in table.items()
        }
    return FiniteAlgebra(MultiAlgebra(name, carrier, interp))


def chain(n):
    carrier = ["c%02d" % i for i in range(n)]
    return carrier, lambda a, b: a <= b, dict(zip(carrier, reversed(carrier)))


def chain_product(m, n):
    carrier = ["%d%d" % ij for ij in product(range(m), range(n))]

    def dual(a):
        return "%d%d" % (m - 1 - int(a[0]), n - 1 - int(a[1]))

    return (
        carrier,
        lambda a, b: a[0] <= b[0] and a[1] <= b[1],
        {a: dual(a) for a in carrier},
    )


def bounded(middle, below, dual):
    """bot < middle < top, with the strict order `below` on middle."""
    carrier = ["bot"] + middle + ["top"]

    def leq(a, b):
        return a == b or a == "bot" or b == "top" or (a, b) in below

    return carrier, leq, dict(dual, bot="top", top="bot")


M3 = bounded(["x", "y", "z"], set(), {"x": "x", "y": "y", "z": "z"})
N5 = bounded(["a", "b", "c"], {("a", "b")}, {"a": "b", "b": "a", "c": "c"})


@st.composite
def down_set_lattices(draw):
    """The down-sets of a random poset on 1-3 points, ordered by inclusion:
    the finite distributive lattices of those posets."""
    k = draw(st.integers(1, 3))
    below = {(i, j) for i, j in combinations(range(k), 2) if draw(st.booleans())}
    for _ in range(k):
        below |= {(i, l) for i, j in below for j2, l in below if j == j2}
    carrier = [
        "d" + "".join(map(str, s))
        for n in range(k + 1)
        for s in combinations(range(k), n)
        if all(i in s for i, j in below if j in s)
    ]
    return carrier, lambda a, b: set(a[1:]) <= set(b[1:]), None


LATTICES = st.one_of(
    st.integers(1, 6).map(chain),
    st.tuples(st.integers(2, 3), st.integers(2, 3)).map(lambda mn: chain_product(*mn)),
    st.just(M3),
    st.just(N5),
    down_set_lattices(),
)


@st.composite
def lattice_algebras(draw):
    """A random finite lattice with random neg/circ/imp tables, each maybe
    absent; neg may be the lattice's order-reversing involution, circ a
    constant or the indicator of the bounds, and imp is the residuum of
    meet where one exists, maybe with one entry changed."""
    carrier, leq, dual = draw(LATTICES)
    plain = lattice_algebra(carrier, leq)
    top, bot = plain.op("top"), plain.op("bot")

    def random_unary():
        return dict(zip(carrier, draw(
            st.lists(st.sampled_from(carrier), min_size=len(carrier),
                     max_size=len(carrier)))))

    # weighted towards the tables of the paper's algebras, so that every
    # variety holds on some of the lattices drawn
    extra = {}
    negs = ["dual", "dual", "random", "none"] if dual else ["random", "none"]
    neg = draw(st.sampled_from(negs))
    if neg != "none":
        extra["neg"] = dual if neg == "dual" else random_unary()
    circ = draw(st.sampled_from(["bounds", "bounds", "top", "random", "none"]))
    if circ == "random":
        extra["circ"] = random_unary()
    elif circ != "none":
        extra["circ"] = {
            a: top if circ == "top" or a in (top, bot) else bot for a in carrier
        }
    imp = draw(st.sampled_from(["residuum", "residuum", "perturbed", "none"]))
    if imp != "none":
        residuum, _ = residuum_of_meet(plain)
        pairs = list(product(carrier, repeat=2))
        if residuum is None:
            residuum = dict(zip(pairs, draw(
                st.lists(st.sampled_from(carrier), min_size=len(pairs),
                         max_size=len(pairs)))))
        elif imp == "perturbed":
            residuum[draw(st.sampled_from(pairs))] = draw(st.sampled_from(carrier))
        extra["imp"] = residuum
    return lattice_algebra(carrier, leq, extra)


REFERENCE_SUITES = {
    "DeMorgan": (
        {"and", "or", "neg", "top", "bot"},
        [
            ("~~x", "x"),
            ("~(x & y)", "~x | ~y"),
            ("x & (y | z)", "(x & y) | (x & z)"),
        ],
    ),
    "PP": (
        {"and", "or", "neg", "circ", "top", "bot"},
        [
            ("@@x", "top"),
            ("@x", "@~x"),
            ("@top", "top"),
            ("x & ~x & @x", "bot"),
            ("@(x & y)", "(@x | @y) & (@x | ~y) & (@y | ~x)"),
            ("~~x", "x"),
            ("~(x & y)", "~x | ~y"),
            ("x & (y | z)", "(x & y) | (x & z)"),
        ],
    ),
}


def reference_variety_profile(alg):
    """The profile as first written: ∇ substituted into the involutive Stone
    laws of a De Morgan algebra, ⇒ compared with the residuum table of
    meet, and PPImp from the PP and SymmetricHeyting answers."""
    names = set()
    for name, (required, pairs) in REFERENCE_SUITES.items():
        if required <= set(alg.ops) and all(
            check_identity(alg, l, r) is None for l, r in pairs
        ):
            names.add(name)
    if alg.has("circ") and {"and", "or", "neg", "top", "bot"} <= set(alg.ops):
        x, y = var("x"), var("y")

        def nb(f):
            return substitute(parse_formula("x | ~(@x)"), {"x": f})

        is_eqs = [
            (nb(app("bot")), app("bot")),
            (app("and", x, nb(x)), x),
            (nb(app("and", x, y)), app("and", nb(x), nb(y))),
            (app("and", app("neg", nb(x)), nb(x)), app("bot")),
        ]
        if "DeMorgan" in names and all(
            check_identity(alg, l, r) is None for l, r in is_eqs
        ):
            names.add("InvolutiveStone")
    if alg.has("imp", "and", "or", "neg", "top", "bot"):
        table, _ = residuum_of_meet(alg)
        heyting = table is not None and all(
            alg.op("imp", a, b) == table[(a, b)]
            for a, b in product(alg.carrier, repeat=2)
        )
        demorgan = (
            check_identity(alg, "~~x", "x") is None
            and check_identity(alg, "~(x & y)", "~x | ~y") is None
        )
        if heyting and demorgan:
            names.add("SymmetricHeyting")
    if alg.has("imp", "circ", "and", "or", "neg", "top", "bot"):
        ineq_ok = check_inequality(
            alg,
            "@(x1 => x2) & @(x2 => x3)",
            "@x1 | @x4 | @(x4 => x3) | @(x3 => x2) | @(x2 => x1)",
        ) is None
        if "PP" in names and "SymmetricHeyting" in names and ineq_ok:
            names.add("PPImp")
    try:
        delta = _delta_map(alg)
        if all(delta[delta[a]] == delta[a] for a in alg.carrier):
            names.add("DeltaIdempotent")
    except MissingConnective:
        pass
    return names


def reference_filters(alg, flavor=FILTER_LATTICE):
    """Every carrier subset that contains top and is closed under meet and
    upwards, then the flavor's own test."""
    if not alg.has("and", "or", "top"):
        raise MissingConnective("filters need a lattice reduct")
    carrier = alg.carrier
    top = alg.op("top")
    out = []
    for size in range(1, len(carrier) + 1):
        for subset in combinations(carrier, size):
            f = frozenset(subset)
            if top not in f:
                continue
            if not all(alg.op("and", a, b) in f for a, b in product(f, repeat=2)):
                continue
            if not all(b in f for a in f for b in carrier if alg.leq(a, b)):
                continue
            out.append(f)
    if flavor == FILTER_PRINCIPAL:
        out = [
            f
            for f in out
            if any(f == frozenset(b for b in carrier if alg.leq(a, b)) for a in f)
        ]
    elif flavor == FILTER_PRIME:
        out = [
            f
            for f in out
            if f != frozenset(carrier)
            and all(
                (a in f or b in f)
                for a, b in product(carrier, repeat=2)
                if alg.op("or", a, b) in f
            )
        ]
    elif flavor == FILTER_REGULAR:
        delta = _delta_map(alg)
        out = [f for f in out if all(delta[a] in f for a in f)]
    return sorted(out, key=lambda f: (len(f), tuple(sorted(f))))


def reference_close_congruence(alg, pairs):
    """The congruence generated by pairs: union-find, then every unary
    translation of every pair merged, including pairs already related."""
    parent = {a: a for a in alg.carrier}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    work = [p for p in pairs]
    for a, b in pairs:
        union(a, b)
    while work:
        a, b = work.pop()
        for conn, table in alg.ops.items():
            k = alg.arity(conn)
            if k == 0:
                continue
            for pos in range(k):
                for rest in product(alg.carrier, repeat=k - 1):
                    ta = rest[:pos] + (a,) + rest[pos:]
                    tb = rest[:pos] + (b,) + rest[pos:]
                    ra, rb = table[ta], table[tb]
                    if find(ra) != find(rb):
                        union(ra, rb)
                        work.append((ra, rb))
    blocks = {}
    for x in alg.carrier:
        blocks.setdefault(find(x), []).append(x)
    return Congruence(alg.carrier, blocks.values())


def reference_congruences(alg):
    """The principal congruences closed under join by re-joining every
    congruence found with every principal one until nothing new appears."""
    if len(alg.carrier) > 12:
        raise CarrierTooLarge(str(len(alg.carrier)))
    identity = Congruence(alg.carrier, [[a] for a in alg.carrier])
    found = {identity.key(): identity}
    principals = []
    for a, b in combinations(alg.carrier, 2):
        theta = reference_close_congruence(alg, [(a, b)])
        principals.append(theta)
        found.setdefault(theta.key(), theta)
    changed = True
    while changed:
        changed = False
        for t1 in list(found.values()):
            for t2 in principals:
                pairs = []
                for th in (t1, t2):
                    for block in th.blocks:
                        bl = sorted(block)
                        pairs.extend((bl[0], x) for x in bl[1:])
                joined = reference_close_congruence(alg, pairs)
                if joined.key() not in found:
                    found[joined.key()] = joined
                    changed = True
    return sorted(found.values(), key=lambda c: (len(c.blocks), c.key()))


def test_each_heyting_law_is_needed():
    # on the four-element Boolean lattice, x => y = top when x <= y, else y
    # when x is top and bot otherwise satisfies every law of
    # SymmetricHeyting but y & (x => y) == y; x => y = top fails only
    # x & (x => y) == x & y, and x => y = y only x => x == top
    carrier, leq, dual = chain_product(2, 2)

    def skew(x, y):
        return "11" if leq(x, y) else y if x == "11" else "00"

    for imp in (skew, lambda x, y: "11", lambda x, y: y):
        table = {(x, y): imp(x, y) for x, y in product(carrier, repeat=2)}
        alg = lattice_algebra(carrier, leq, {"neg": dual, "imp": table})
        assert variety_profile(alg) == reference_variety_profile(alg) == {
            "DeMorgan",
            "DeltaIdempotent",
        }


def test_pp_imp_needs_its_inequality():
    # the six-element chain with its order-reversing negation, the relative
    # pseudocomplement and @ the indicator of the bounds is PP and
    # symmetric Heyting, but fails the four-variable @/=> inequality
    carrier, leq, dual = chain(6)
    circ = {a: "c05" if a in ("c00", "c05") else "c00" for a in carrier}
    residuum, _ = residuum_of_meet(lattice_algebra(carrier, leq))
    alg = lattice_algebra(carrier, leq, {"neg": dual, "circ": circ, "imp": residuum})
    assert variety_profile(alg) == reference_variety_profile(alg) == {
        "DeMorgan",
        "DeltaIdempotent",
        "InvolutiveStone",
        "PP",
        "SymmetricHeyting",
    }


def test_pp_and_involutive_stone_are_de_morgan():
    # each satisfies the @ (nabla) laws of its variety, with ~ constantly
    # bot, but is no De Morgan algebra: the two-element lattice with @
    # constantly top, and the non-distributive N5 with @ the indicator of
    # the bounds
    carrier, leq, _ = chain(2)
    two = lattice_algebra(carrier, leq, {
        "neg": dict.fromkeys(carrier, "c00"),
        "circ": dict.fromkeys(carrier, "c01"),
    })
    carrier, leq, _ = N5
    n5 = lattice_algebra(carrier, leq, {
        "neg": dict.fromkeys(carrier, "bot"),
        "circ": {a: "top" if a in ("bot", "top") else "bot" for a in carrier},
    })
    laws = {name: laws for name, _, laws in VARIETIES}
    for alg, name in ((two, "PP"), (n5, "InvolutiveStone")):
        assert all(
            _holds(alg, law) for law in laws[name] if law not in _DEMORGAN_LATTICE
        )
        assert variety_profile(alg) == reference_variety_profile(alg)
        assert not variety_profile(alg) & {name, "DeMorgan"}


def test_congruences_of_a_chain_are_its_interval_partitions():
    # a partition of a chain into intervals is a lattice congruence, so the
    # chain of 6 has 2**5, and collapsing three separate covers takes the
    # join of three principal congruences
    carrier, leq, _ = chain(6)
    alg = lattice_algebra(carrier, leq)
    got = [c.key() for c in congruences(alg)]
    assert len(got) == 2 ** 5
    assert got == [c.key() for c in reference_congruences(alg)]


def outcome(f, *args):
    """f's answer, or the type of the error it raised."""
    try:
        return f(*args)
    except (CarrierTooLarge, MissingConnective) as exc:
        return type(exc)


FLAVORS = (FILTER_LATTICE, FILTER_PRINCIPAL, FILTER_PRIME, FILTER_REGULAR)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(lattice_algebras())
def test_toolbox_matches_references_on_random_lattices(alg):
    assert variety_profile(alg) == reference_variety_profile(alg)
    for flavor in FLAVORS:
        assert outcome(filters, alg, flavor) == outcome(reference_filters, alg, flavor)
    keys = [
        [c.key() for c in cs] if isinstance(cs, list) else cs
        for cs in (outcome(congruences, alg), outcome(reference_congruences, alg))
    ]
    assert keys[0] == keys[1]


PINNED = json.loads(
    (Path(__file__).parent / "algebra_toolbox_outputs.json").read_text()
)


def test_toolbox_cli_outputs_pinned(capsys):
    """stdout and exit code of profile, congruences, subalgebras and the four
    filter flavors on every registered algebra, text and JSON."""
    changed = []
    for command, want in sorted(PINNED.items()):
        code = run(command.split())
        if (code, capsys.readouterr().out) != (want["exit"], want["stdout"]):
            changed.append(command)
    assert changed == []


# --- algebras whose and/or are not a lattice -----------------------------

def cyclic_meet_algebra():
    """bot < a, b, c < top with a < b < c < a: commutative and absorptive,
    but meet(a, meet(b, c)) = a while meet(meet(a, b), c) = c."""
    carrier = ["bot", "a", "b", "c", "top"]
    up = {("a", "b"), ("b", "c"), ("c", "a")}

    def leq(x, y):
        return x == y or x == "bot" or y == "top" or (x, y) in up

    def meet(x, y):
        return x if leq(x, y) else y

    def join(x, y):
        return y if leq(x, y) else x

    return MultiAlgebra("cyclic", carrier, {
        "and": {(x, y): {meet(x, y)} for x, y in product(carrier, repeat=2)},
        "or": {(x, y): {join(x, y)} for x, y in product(carrier, repeat=2)},
        "top": {(): {"top"}},
        "bot": {(): {"bot"}},
    })


def test_non_lattice_algebras_are_input_errors(tmp_path, capsys):
    assert run(["export", "--kind", "matrix", "--name", "dm4-bt"]) == 0
    skewed = json.loads(capsys.readouterr().out)
    skewed["connectives"]["and"]["table"]["n,b"] = ["n"]
    cyclic = json.loads(matrix_to_json(PNMatrix("cyclic", cyclic_meet_algebra(), {"top"})))
    with pytest.raises(NotALattice, match="associative"):
        FiniteAlgebra(cyclic_meet_algebra())
    for name, data, why in (
        ("skewed", skewed, "not commutative"),
        ("cyclic", cyclic, "not associative"),
    ):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(data))
        assert run(["algebra", "profile", "--algebra", "@%s" % path]) == EXIT_USAGE
        assert why in capsys.readouterr().err


def test_lattice_law_failures():
    chain = ("o", "i")

    def algebra(meet, join, **constants):
        interp = {
            "and": {(a, b): {meet[a + b]} for a, b in product(chain, repeat=2)},
            "or": {(a, b): {join[a + b]} for a, b in product(chain, repeat=2)},
        }
        interp.update({c: {(): {v}} for c, v in constants.items()})
        return MultiAlgebra("bad", chain, interp)

    low = {"oo": "o", "oi": "o", "io": "o", "ii": "i"}
    high = {"oo": "o", "oi": "i", "io": "i", "ii": "i"}
    FiniteAlgebra(algebra(low, high, top="i", bot="o"))
    with pytest.raises(NotALattice, match="absorption fails"):
        FiniteAlgebra(algebra(low, low))
    for bound in ({"top": "o"}, {"bot": "i"}):
        with pytest.raises(NotALattice, match="not lattice bounds"):
            FiniteAlgebra(algebra(low, high, **bound))
    # absorption fails at (o, o) and commutativity at (o, i): the laws are
    # checked one at a time, commutativity first
    skew = {"oo": "i", "oi": "o", "io": "i", "ii": "i"}
    with pytest.raises(NotALattice, match="not commutative"):
        FiniteAlgebra(algebra(skew, high))


@pytest.mark.parametrize("name", ["letk", "pp2h", "pp6", "pp6h", "pp6h-no-circ"])
def test_delta_map_matches_eval_formula(name):
    # x & @x where @ is present, else ~x => ~(~x => ~x)
    if name == "pp6h-no-circ":
        interp = {c: t for c, t in ALG_PP6H.interp.items() if c != "circ"}
        alg = FiniteAlgebra(MultiAlgebra(name, ALG_PP6H.carrier, interp))
        term = parse_formula("~x => ~(~x => ~x)")
    else:
        alg = FiniteAlgebra(lookup("algebra", name).payload)
        term = parse_formula("x & @x")
    assert _delta_map(alg) == {
        a: alg.eval_formula(term, {"x": a}) for a in alg.carrier
    }
    with pytest.raises(MissingConnective):
        _delta_map(FiniteAlgebra(ALG_DM4))
