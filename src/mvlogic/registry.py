"""Built-in algebras, matrices, matrix classes and calculi.

Six-valued value tokens: hf < f < {n,b} < t < ht (n and b incomparable).
Ten-valued tokens use suffix m/p for the minus/plus copies: fm ... tp.
"""

from __future__ import annotations

import json
from itertools import product

from .calculus import Calculus, Rule, SET_FMLA, SET_SET, VARIANT_LEQ, VARIANT_UP
from .errors import NotFound
from .formula import parse_formula, parse_formula_set, render_formula
from .semantics import MultiAlgebra, PNMatrix

V6 = ("hf", "f", "n", "b", "t", "ht")

_LEQ6 = {
    "hf": set(V6),
    "f": {"f", "n", "b", "t", "ht"},
    "n": {"n", "t", "ht"},
    "b": {"b", "t", "ht"},
    "t": {"t", "ht"},
    "ht": {"ht"},
}


def leq6(a, b):
    return b in _LEQ6[a]


def _lattice_tables(carrier, up):
    """The "and" and "or" tables of the lattice on carrier in which up[a]
    holds the values at or above a: of the common lower bounds the meet has
    the fewest values above it, of the common upper bounds the join the
    most."""
    meet, join = {}, {}
    for a, b in product(carrier, repeat=2):
        lower = [c for c in carrier if a in up[c] and b in up[c]]
        upper = [c for c in carrier if c in up[a] and c in up[b]]
        meet[a, b] = {min(lower, key=lambda c: len(up[c]))}
        join[a, b] = {max(upper, key=lambda c: len(up[c]))}
    return {"and": meet, "or": join}


NEG6 = {"hf": "ht", "f": "t", "n": "n", "b": "b", "t": "f", "ht": "hf"}
CIRC6 = {v: ("ht" if v in ("hf", "ht") else "hf") for v in V6}

_MEET6 = _lattice_tables(V6, _LEQ6)["and"]


def _imp_h(a, b):
    """Heyting implication on the six-valued lattice, the relative
    pseudo-complement: the greatest c with a ∧ c ≤ b."""
    below = [c for c in V6 if all(leq6(m, b) for m in _MEET6[a, c])]
    return {min(below, key=lambda c: len(_LEQ6[c]))}


# The deterministic refinement of the classic-like implication
IMP_LETK = {
    "hf": {"hf": "ht", "f": "ht", "n": "ht", "b": "ht", "t": "ht", "ht": "ht"},
    "f": {"hf": "t", "f": "t", "n": "t", "b": "t", "t": "t", "ht": "ht"},
    "n": {"hf": "t", "f": "t", "n": "t", "b": "t", "t": "t", "ht": "ht"},
    "b": {"hf": "hf", "f": "f", "n": "n", "b": "b", "t": "t", "ht": "ht"},
    "t": {"hf": "hf", "f": "f", "n": "n", "b": "b", "t": "t", "ht": "ht"},
    "ht": {"hf": "hf", "f": "f", "n": "n", "b": "b", "t": "t", "ht": "ht"},
}


def _unary_table(mapping):
    return {(a,): {v} for a, v in mapping.items()}


def _binary_table(fn, carrier):
    return {(a, b): set(fn(a, b)) for a, b in product(carrier, repeat=2)}


def _pp6_interp(with_imp=None):
    interp = {
        **_lattice_tables(V6, _LEQ6),
        "neg": _unary_table(NEG6),
        "circ": _unary_table(CIRC6),
        "top": {(): {"ht"}},
        "bot": {(): {"hf"}},
    }
    if with_imp is not None:
        interp["imp"] = _binary_table(with_imp, V6)
    return interp


def _imp_a1(a, b):
    if a not in _LEQ6["b"] or b in _LEQ6["b"]:
        return set(_LEQ6["b"])
    return {"hf", "f", "n"}


ALG_PP6 = MultiAlgebra("pp6", V6, _pp6_interp())
ALG_PP6H = MultiAlgebra("pp6h", V6, _pp6_interp(_imp_h))
ALG_PP6A1 = MultiAlgebra("pp6a1", V6, _pp6_interp(_imp_a1))
ALG_LETK = MultiAlgebra("letk", V6, _pp6_interp(lambda a, b: {IMP_LETK[a][b]}))

# Dunn-Belnap four-valued lattice: f < {n,b} < t, involutive negation
V4 = ("f", "n", "b", "t")
_LEQ4 = {"f": set(V4), "n": {"n", "t"}, "b": {"b", "t"}, "t": {"t"}}


NEG4 = {"f": "t", "n": "n", "b": "b", "t": "f"}

ALG_DM4 = MultiAlgebra(
    "dm4",
    V4,
    {
        **_lattice_tables(V4, _LEQ4),
        "neg": _unary_table(NEG4),
        "top": {(): {"t"}},
        "bot": {(): {"f"}},
    },
)


def _subalgebra(alg, universe, name):
    universe = [v for v in alg.carrier if v in universe]
    interp = {}
    for conn, table in alg.interp.items():
        k = alg.arity(conn)
        interp[conn] = {
            key: set(table[key]) for key in product(universe, repeat=k)
        }
    return MultiAlgebra(name, universe, interp)


ALG_PP2H = _subalgebra(ALG_PP6H, {"hf", "ht"}, "pp2h")
ALG_PP3H = _subalgebra(ALG_PP6H, {"hf", "n", "ht"}, "pp3h")
ALG_PP4H = _subalgebra(ALG_PP6H, {"hf", "f", "t", "ht"}, "pp4h")

# --- PP6⇒H matrix classes and ten-valued PNmatrices ----------------------

# One PP6⇒H matrix per principal filter, and per variant of the analytic
# calculi the class of them it is sound and complete for: the `leq` variant
# excludes the filter generated by t.
MAT_PP6H = {
    a: PNMatrix("pp6h-u%s" % a, ALG_PP6H, _LEQ6[a]) for a in ("f", "n", "b", "t", "ht")
}
ORDER_CLASS = [MAT_PP6H["f"], MAT_PP6H["b"], MAT_PP6H["ht"]]
UP_CLASS = ORDER_CLASS + [MAT_PP6H["t"]]
VARIANT_CLASS = {VARIANT_UP: UP_CLASS, VARIANT_LEQ: ORDER_CLASS}

V10 = ("hf", "fm", "nm", "bm", "tm", "fp", "np", "bp", "tp", "ht")
D10 = frozenset({"fp", "np", "bp", "tp", "ht"})

G10 = {
    "hf": "hf",
    "ht": "ht",
    "fm": "f",
    "fp": "f",
    "nm": "n",
    "np": "n",
    "bm": "b",
    "bp": "b",
    "tm": "t",
    "tp": "t",
}


# A sign pattern over V10 is compatible exactly when the filter of some
# matrix in the variant's class realizes it: a value d carries + iff d lies
# in the filter.
def _inc(variant):
    upsets = [m.designated for m in VARIANT_CLASS[variant]]

    def pred(values):
        signed = [(G10[c], c.endswith("p")) for c in values if c not in ("hf", "ht")]
        for up in upsets:
            if all((d in up) == plus for d, plus in signed):
                return False
        return True

    return pred


def build_ten_valued(variant):
    if variant not in VARIANT_CLASS:
        raise ValueError("variant must be %r or %r" % (VARIANT_UP, VARIANT_LEQ))
    inc = _inc(variant)
    interp = {}
    for conn, table in ALG_PP6H.interp.items():
        k = ALG_PP6H.arity(conn)
        new = {}
        for key in product(V10, repeat=k):
            image = table[tuple(G10[a] for a in key)]
            out = {
                c
                for c in V10
                if G10[c] in image and not inc(set(key) | {c})
            }
            new[key] = out
        interp[conn] = new
    name = "m-up" if variant == VARIANT_UP else "m-leq"
    return PNMatrix(name, MultiAlgebra(name, V10, interp), D10)


# --- rule helpers --------------------------------------------------------

def _rule(name, ant, succ):
    return Rule(name, parse_formula_set(ant), parse_formula_set(succ))


def _rules(prefix, specs):
    return [_rule("%s%d" % (prefix, i + 1), a, s) for i, (a, s) in enumerate(specs)]


XI_MONADIC = tuple(parse_formula(t) for t in ("p", "~p", "@p"))
THETA = tuple(
    parse_formula(t) for t in ("p", "@p", "@(p => q)", "up(p)", "down(p)")
)

R_B_RULES = _rules(
    "r",
    [
        ("", "top"),
        ("~top", ""),
        ("", "~bot"),
        ("bot", ""),
        ("p", "~~p"),
        ("~~p", "p"),
        ("p & q", "p"),
        ("p & q", "q"),
        ("p, q", "p & q"),
        ("~p", "~(p & q)"),
        ("~q", "~(p & q)"),
        ("~(p & q)", "~p, ~q"),
        ("p", "p | q"),
        ("q", "p | q"),
        ("p | q", "p, q"),
        ("~p, ~q", "~(p | q)"),
        ("~(p | q)", "~p"),
        ("~(p | q)", "~q"),
    ],
)

_R_PP_EXTRA = [
    ("", "@bot"),
    ("", "@top"),
    ("", "@@p"),
    ("@p", "@~p"),
    ("@~p", "@p"),
    ("@p", "p, ~p"),
    ("@p, p, ~p", ""),
    ("@p", "@(p & q), p"),
    ("@q", "@(p & q), q"),
    ("@(p & q), q", "@p"),
    ("@(p & q), p", "@q"),
    ("@p, @q", "@(p & q)"),
    ("@(p & q)", "@p, @q"),
    ("@p, @q", "@(p | q)"),
    ("@(p | q)", "@p, @q"),
    ("@p, p", "@(p | q)"),
    ("@q, q", "@(p | q)"),
    ("@(p | q)", "@p, q"),
    ("@(p | q)", "@q, p"),
]

R_PP_RULES = R_B_RULES + [
    _rule("r%d" % (19 + i), a, s) for i, (a, s) in enumerate(_R_PP_EXTRA)
]

R_CL_RULES = [
    _rule("r1cl", "q", "p => q"),
    _rule("r2cl", "", "p, p => q"),
    _rule("r3cl", "p, p => q", "q"),
]

R_H14_RULES = _rules(
    "h",
    [
        ("q", "p => q"),
        ("p, p => q", "q"),
        ("~(p => q)", "~q"),
        ("~q", "~(p => q), ~p"),
        ("", "p => q, @q, p"),
        ("p => q", "@(p => q), ~q, q"),
        ("p => q, @q", "@p, q"),
        ("~(p => q), ~p", "@(p => q)"),
        ("~p", "@(p => q), p"),
        ("@(p => q), @p, p", "@q"),
        ("@(p => q), p", "@q, q"),
        ("@p", "p => q, p"),
        ("@q", "@(p => q)"),
        ("q", "~(p => q), @(p => q), @p"),
    ],
)

R_DIAMOND_RULES = [
    _rule("rd_upordown", "", "up(p), down(p)"),
    _rule("rd_id", "", "@(p => p)"),
    _rule("rd_trans", "@(p => q), @(q => r)", "@q, @(p => r)"),
    _rule("rd_leqt", "", "down(p), @q, @(q => p)"),
    _rule("rd_geqf", "", "up(p), @(p => q)"),
    _rule("rd_incclass1", "up(p), @(p => q)", "@p, up(q)"),
    _rule("rd_incclass2", "down(q), @(p => q)", "@q, down(p)"),
    _rule("rd_incclass3", "up(p), down(q), @(p => q)", "@q, @(q => p)"),
    _rule("rd_just2", "down(p), up(r)", "@p, @(p => q), @(p => r), @(q => r)"),
]

R_IMP_RULES = _rules(
    "ri",
    [
        ("@q", "@(p => q)"),
        ("q", "p => q"),
        ("p, p => q", "q"),
        ("@p, p, @(p => q)", "@q"),
        ("@p, p, down(p => q)", "down(q)"),
        ("@p, p, up(p => q)", "up(q)"),
        ("up(q)", "up(p => q)"),
        ("down(q)", "down(p => q)"),
        ("", "@(q => (p => q))"),
        ("@p", "p, @(p => q)"),
        ("@p", "p, p => q"),
        ("@q, p => q", "q, @p"),
        ("@(p => q)", "@q, p => q"),
        ("", "down(p), @(p => q), @((p => q) => q)"),
        ("up(p), @(p => q)", "@p, up(q)"),
        ("down(p)", "@p, up(p => q)"),
        ("", "@p, down(p => q)"),
        ("up(p), @(p => (p => q))", "@p, up(q)"),
        ("up(q)", "@(p => q), @((p => q) => q)"),
    ],
)

R_NEG_RULES = _rules(
    "rs",
    [
        ("@p", "p, ~p"),
        ("@p, p, ~p", ""),
        ("@p", "@~p"),
        ("@~p", "@p"),
        ("up(~p)", "down(p)"),
        ("down(~p)", "up(p)"),
        ("down(p)", "up(~p)"),
        ("up(p)", "down(~p)"),
    ],
)

R_CIRC_RULES = [_rule("rc1", "", "@@p")]

R_AND_RULES = _rules(
    "ra",
    [
        ("@p, @q", "@(p & q)"),
        ("p, q", "p & q"),
        ("p & q", "q"),
        ("p, @(p & q)", "@q"),
        ("@p", "@(q => (p & q))"),
        ("", "@((p & q) => q)"),
        ("p & q", "p"),
        ("q, @(p & q)", "@p"),
        ("@q", "@(p => (p & q))"),
        ("", "@((p & q) => p)"),
        ("@p", "p, @(p & q)"),
        ("@q", "q, @(p & q)"),
        ("@(p & q)", "@p, @q"),
        ("@(p => q)", "@(p => (p & q))"),
        ("@(q => p)", "@(q => (p & q))"),
        ("down(p), up(p & q)", "@p, @(p => q)"),
    ],
)

R_OR_RULES = _rules(
    "ro",
    [
        ("@p, @q", "@(p | q)"),
        ("@p, p | q", "p, q"),
        ("q", "p | q"),
        ("@(p | q)", "p, @q"),
        ("", "@(q => (p | q))"),
        ("@p", "p, @((p | q) => q)"),
        ("p", "p | q"),
        ("@(p | q)", "q, @p"),
        ("", "@(p => (p | q))"),
        ("@q", "q, @((p | q) => p)"),
        ("p, @p", "@(p | q)"),
        ("q, @q", "@(p | q)"),
        ("@(p | q)", "@p, @q"),
        ("@(p => q)", "@((p | q) => q)"),
        ("@(q => p)", "@((p | q) => p)"),
        ("up(q), down(p | q)", "@p, @(p => q)"),
    ],
)

R_TOPBOT_RULES = [
    _rule("rt1", "", "top"),
    _rule("rt2", "", "@top"),
    _rule("rb1", "bot", ""),
    _rule("rb2", "", "@bot"),
]

RULE_D_AND = _rule("r_d_and", "p, down(p), q", "@p, @(p => q), @r, r")
RULE_D_LEQ = _rule("r_d_leq", "p, @(p => q)", "@q, q")
RULE_D_NEQ_UT = _rule("r_d_nequt", "r, up(q)", "down(r), @(p => q), p, q")

R_UP_RULES = (
    R_DIAMOND_RULES
    + R_IMP_RULES
    + R_CIRC_RULES
    + R_NEG_RULES
    + R_AND_RULES
    + R_OR_RULES
    + R_TOPBOT_RULES
    + [RULE_D_AND, RULE_D_LEQ]
)
R_LEQ_RULES = R_UP_RULES + [RULE_D_NEQ_UT]

LETK_NINE_RULES = _rules(
    "k",
    [
        ("~(p => q)", "p"),
        ("~(p => q)", "~q"),
        ("p, ~q", "~(p => q)"),
        ("@(p => q)", "@p, @q"),
        ("@(p => q)", "@p, p, q"),
        ("@(p => q), p", "@q"),
        ("@p", "@(p => q), p"),
        ("p, @q", "@(p => q)"),
        ("@q, q", "@(p => q)"),
    ],
)

MOISIL_RULES = [
    _rule("m1", "", "p => (q => p)"),
    _rule("m2", "", "(p => (q => r)) => ((p => q) => (p => r))"),
    _rule("m3", "", "(p & q) => p"),
    _rule("m4", "", "(p & q) => q"),
    _rule("m5", "", "(p => q) => ((p => r) => (p => (q & r)))"),
    _rule("m6", "", "p => (p | q)"),
    _rule("m7", "", "q => (p | q)"),
    _rule("m8", "", "(p => r) => ((q => r) => ((p | q) => r))"),
    _rule("m9", "", "p => ~~p"),
    _rule("m10", "", "~~p => p"),
    _rule("m11", "p, p => q", "q"),
    _rule(
        "pptop1", "", "hneg(p) => ~hneg(hneg(p))"
    ),
    _rule(
        "pptop2", "", "~hneg(hneg(p)) => hneg(p)"
    ),
    _rule(
        "pptop3",
        "",
        "((hneg(p1 => p2) | hneg(~(p1 => p2))) & (hneg(p2 => p3) | hneg(~(p2 => p3))))"
        " => ((hneg(p1) | hneg(~p1)) | (hneg(p4) | hneg(~p4))"
        " | (hneg(p4 => p3) | hneg(~(p4 => p3)))"
        " | (hneg(p3 => p2) | hneg(~(p3 => p2)))"
        " | (hneg(p2 => p1) | hneg(~(p2 => p1))))",
    ),
]

RULE_M12 = _rule("m12", "p => q", "~q => ~p")

PP_TOP_DISTINGUISHING = [
    _rule("ptd1", "p", "delta(p)"),
    _rule("ptd2", "p", "@p"),
    _rule("ptd3", "p, wimp(p, q)", "q"),
]


KIND_ALGEBRA = "algebra"
KIND_MATRIX = "matrix"
KIND_MATRIX_CLASS = "matrix-class"
KIND_CALCULUS = "calculus"
KINDS = (KIND_ALGEBRA, KIND_MATRIX, KIND_MATRIX_CLASS, KIND_CALCULUS)


class RegistryEntry:
    def __init__(self, kind, name, payload):
        self.kind = kind
        self.name = name
        self.payload = payload


MAT_DM4 = PNMatrix("dm4-bt", ALG_DM4, {"b", "t"})
MAT_PP6_UB = PNMatrix("pp6-ub", ALG_PP6, _LEQ6["b"])
MAT_PP6A1_UB = PNMatrix("pp6a1-ub", ALG_PP6A1, _LEQ6["b"])
MAT_LETK_UB = PNMatrix("letk-ub", ALG_LETK, _LEQ6["b"])
MAT_M_UP = build_ten_valued(VARIANT_UP)
MAT_M_LEQ = build_ten_valued(VARIANT_LEQ)

_REGISTRY = {}


def _add(entry):
    _REGISTRY[(entry.kind, entry.name)] = entry


for _alg in (ALG_PP6, ALG_PP6H, ALG_PP6A1, ALG_LETK, ALG_DM4, ALG_PP2H, ALG_PP3H, ALG_PP4H):
    _add(RegistryEntry(KIND_ALGEBRA, _alg.name, _alg))

for _m in (
    MAT_DM4,
    MAT_PP6_UB,
    MAT_PP6A1_UB,
    MAT_LETK_UB,
    MAT_M_UP,
    MAT_M_LEQ,
    *MAT_PP6H.values(),
):
    _add(RegistryEntry(KIND_MATRIX, _m.name, _m))

_add(RegistryEntry(KIND_MATRIX_CLASS, "pp6h-order", ORDER_CLASS))
_add(RegistryEntry(KIND_MATRIX_CLASS, "pp6h-up", UP_CLASS))

_CALCULI = [
    ("r-b", Calculus("r-b", R_B_RULES, XI_MONADIC, SET_SET), ["dm4-bt"]),
    ("r-pp-leq", Calculus("r-pp-leq", R_PP_RULES, XI_MONADIC, SET_SET), ["pp6-ub"]),
    (
        "r-m-a1",
        Calculus("r-m-a1", R_PP_RULES + R_CL_RULES, XI_MONADIC, SET_SET),
        ["pp6a1-ub"],
    ),
    (
        "r-h-ub",
        Calculus("r-h-ub", R_PP_RULES + R_H14_RULES, XI_MONADIC, SET_SET),
        ["pp6h-ub"],
    ),
    ("r-up", Calculus("r-up", R_UP_RULES, THETA, SET_SET), ["pp6h-up"]),
    ("r-leq", Calculus("r-leq", R_LEQ_RULES, THETA, SET_SET), ["pp6h-order"]),
    (
        "letk-nine",
        Calculus("letk-nine", R_PP_RULES + R_CL_RULES + LETK_NINE_RULES, XI_MONADIC, SET_SET),
        ["letk-ub"],
    ),
    ("moisil", Calculus("moisil", MOISIL_RULES, None, SET_FMLA), ["pp6h-uht"]),
    ("moisil-m12", Calculus("moisil-m12", [RULE_M12], None, SET_FMLA), ["pp6h-uht"]),
    (
        "pp-top-rules",
        Calculus("pp-top-rules", PP_TOP_DISTINGUISHING, None, SET_SET),
        ["pp6h-uht"],
    ),
]

def lookup(kind, name):
    try:
        return _REGISTRY[(kind, name)]
    except KeyError:
        raise NotFound("no %s named %r" % (kind, name))


def resolve_models(names_list):
    """Matrix and matrix-class names to a flat list of matrices."""
    out = []
    for n in names_list:
        if (KIND_MATRIX, n) in _REGISTRY:
            out.append(_REGISTRY[(KIND_MATRIX, n)].payload)
        elif (KIND_MATRIX_CLASS, n) in _REGISTRY:
            out.extend(_REGISTRY[(KIND_MATRIX_CLASS, n)].payload)
        else:
            raise NotFound("no matrix or matrix-class named %r" % n)
    return out


for _name, _calc, _models in _CALCULI:
    _calc.models = resolve_models(_models)
    _add(RegistryEntry(KIND_CALCULUS, _name, _calc))
del _name, _calc, _models


def names(kind=None):
    return sorted(n for k, n in _REGISTRY if kind is None or k == kind)


def matrix_to_json(m):
    alg = m.algebra
    connectives = {}
    for conn in sorted(alg.interp):
        table = alg.interp[conn]
        connectives[conn] = {
            "arity": alg.arity(conn),
            "table": {
                ",".join(key): alg.sort_values(out)
                for key, out in sorted(table.items())
            },
        }
    return json.dumps(
        {
            "name": m.name,
            "values": list(alg.carrier),
            "designated": alg.sort_values(m.designated),
            "connectives": connectives,
        },
        indent=2,
        sort_keys=True,
    )


def _typed(value, kind, field):
    """value when json.loads read it as the type kind, or as a list of
    kind[0]s when kind is a one-item list; else a ValueError naming the
    field (so true is no integer, and a string no list of characters)."""
    if type(kind) is list:
        ok = type(value) is list and all(type(v) is kind[0] for v in value)
    else:
        ok = type(value) is kind
    if not ok:
        raise ValueError("%s has the wrong JSON type" % field)
    return value


def matrix_from_json(text):
    data = _typed(json.loads(text), dict, "the export")
    name = _typed(data["name"], str, "name")
    interp = {}
    for conn, spec in _typed(data["connectives"], dict, "connectives").items():
        field = "connective %r" % conn
        arity = _typed(_typed(spec, dict, field)["arity"], int, field + " arity")
        table = {}
        for key, out in _typed(spec["table"], dict, field + " table").items():
            parts = tuple(k for k in key.split(",") if k != "")
            if len(parts) != arity:
                raise ValueError("entry %r has the wrong arity" % key)
            table[parts] = set(_typed(out, [str], "%s entry %r" % (field, key)))
        interp[conn] = table
    alg = MultiAlgebra(name, _typed(data["values"], [str], "values"), interp)
    return PNMatrix(name, alg, _typed(data["designated"], [str], "designated"))


def calculus_to_json(c):
    """The calculus as JSON, format 2: its rules, analyticity set (null for
    none, so that an empty one reads back as empty), framework and the
    names of its models, which must be registered matrices to read back."""
    return json.dumps(
        {
            "format": 2,
            "name": c.name,
            "framework": c.framework,
            "models": [m.name for m in c.models or ()],
            "xi": None if c.xi is None else [render_formula(f) for f in c.xi],
            "rules": [
                {
                    "name": r.name,
                    "premises": sorted(render_formula(f) for f in r.antecedent),
                    "conclusions": sorted(render_formula(f) for f in r.succedent),
                }
                for r in c.rules
            ],
        },
        indent=2,
        sort_keys=True,
    )


def calculus_from_json(text):
    data = _typed(json.loads(text), dict, "the export")
    rules = [
        Rule(
            _typed(r["name"], str, "a rule's name"),
            frozenset(map(parse_formula, _typed(r["premises"], [str], "premises"))),
            frozenset(map(parse_formula, _typed(r["conclusions"], [str], "conclusions"))),
        )
        for r in _typed(data["rules"], [dict], "rules")
    ]
    fmt = _typed(data.get("format", 1), int, "format")
    if fmt not in (1, 2):
        raise ValueError("unknown calculus format %r" % fmt)
    xi = data.get("xi")
    if fmt == 1:
        xi = xi or None  # before format 2, an empty list meant no Ξ
    xi = None if xi is None else tuple(map(parse_formula, _typed(xi, [str], "xi")))
    framework = data.get("framework", SET_SET)
    if framework not in (SET_SET, SET_FMLA):
        raise ValueError("unknown framework %r" % framework)
    models = resolve_models(_typed(data.get("models", []), [str], "models")) or None
    return Calculus(_typed(data["name"], str, "name"), rules, xi, framework, models=models)
