"""Finite deterministic algebras: identities, congruences, filters,
subalgebras, residuation and unary clones."""

from __future__ import annotations

from itertools import combinations, product

from . import kernel
from .errors import (
    CarrierTooLarge,
    MissingConnective,
    NotALattice,
    NotSingleValued,
    TooManyVariables,
)
from .formula import app, expand, parse_formula, subformulas, var, variables
from .semantics import MultiAlgebra, PNMatrix

# identities over more variables, or algebras over more values, are refused:
# the checks and the closures below enumerate carrier^variables and subsets
CARRIER_BOUND = 12
VARIABLE_BOUND = 4


class FiniteAlgebra:
    """A multialgebra whose every table entry holds one value (deterministic
    and total), as the kernel decides for the prover's models too, with
    single-valued operations and, when and/or are present, the lattice
    order derived from meet.  Any other algebra is a NotSingleValued."""

    def __init__(self, multi):
        k = kernel.compiled(multi)
        if k.single_valued(k.all) is None:
            raise NotSingleValued(
                "algebra %s is not deterministic and total, which the algebra "
                "toolbox needs" % multi.name
            )
        self.multi = multi
        self.name = multi.name
        self.carrier = multi.carrier
        self.ops = {
            conn: {k: next(iter(v)) for k, v in table.items()}
            for conn, table in multi.interp.items()
        }
        if self.has("and", "or"):
            self._check_lattice()

    def op(self, conn, *args):
        return self.ops[conn][tuple(args)]

    def arity(self, conn):
        return self.multi.arity(conn)

    def has(self, *conns):
        return all(c in self.ops for c in conns)

    def leq(self, a, b):
        return self.op("and", a, b) == a

    def _check_lattice(self):
        """and/or are a lattice's meet and join (commutative, absorptive and
        associative) and top/bot, when present, bound its order: the up-set
        filters and the Heyting identities rely on it."""
        for law, required, error in _LATTICE_LAWS:
            if self.has(*required) and not _holds(self, law):
                raise NotALattice(error)

    def eval_formula(self, f, assignment):
        if f.is_var:
            return assignment[f.head]
        return self.ops[f.head][tuple(self.eval_formula(a, assignment) for a in f.args)]

    def __repr__(self):
        return "FiniteAlgebra(%r)" % (self.name,)


def check_identity(alg, lhs, rhs):
    """Exhaustively check lhs ≈ rhs; returns None for valid, else the first
    counterexample assignment in canonical order."""
    if isinstance(lhs, str):
        lhs = parse_formula(lhs)
    if isinstance(rhs, str):
        rhs = parse_formula(rhs)
    vs = sorted(variables(lhs) | variables(rhs))
    if len(vs) > VARIABLE_BOUND:
        raise TooManyVariables("%d variables exceed the bound %d" % (len(vs), VARIABLE_BOUND))
    kernel.check_signature(alg.multi, subformulas((lhs, rhs)))
    k = kernel.compiled(alg.multi)
    plans = k.single_valued(k.all)

    def differ(bitsets):
        left, right = bitsets.row(lhs), bitsets.row(rhs)
        same = 0
        for a, b in zip(left, right):
            same |= a & b
        return bitsets.full & ~same

    xs = [var(v) for v in vs]
    hit = kernel.first_hit(plans, k.n, xs, [tuple(range(k.n))] * len(vs), [differ], xs)
    if hit is None:
        return None
    return {v: alg.carrier[i] for v, i in zip(vs, hit[2])}


def check_inequality(alg, lhs, rhs):
    """lhs ≤ rhs encoded as lhs ≈ lhs ∧ rhs."""
    if isinstance(lhs, str):
        lhs = parse_formula(lhs)
    if isinstance(rhs, str):
        rhs = parse_formula(rhs)
    return check_identity(alg, lhs, app("and", lhs, rhs))


def residuum_of_meet(alg):
    """Table (a,b) -> max{c : a∧c ≤ b}, or the first (a,b) without one."""
    table = {}
    for a, b in product(alg.carrier, repeat=2):
        candidates = [c for c in alg.carrier if alg.leq(alg.op("and", a, c), b)]
        maxima = [c for c in candidates if all(alg.leq(d, c) for d in candidates)]
        if not maxima:
            return None, (a, b)
        table[(a, b)] = maxima[0]
    return table, None


def _delta_map(alg):
    """The unary Δ term function: x∧∘x when ∘ is present, else ¬∼x with
    ¬x = x⇒∼(x⇒x), the delta macro."""
    x = var("x")
    if alg.has("circ", "and"):
        delta = app("and", x, app("circ", x))
    elif alg.has("imp", "neg"):
        delta = expand("delta", x)
    else:
        raise MissingConnective("Δ needs ∘/∧ or ⇒/∼")
    k = kernel.compiled(alg.multi)
    rows = kernel.Bitsets(k.single_valued(k.all), k.n, [x], [tuple(range(k.n))])
    values = rows.values(delta, rows.full)
    return {a: alg.carrier[values[i]] for i, a in enumerate(alg.carrier)}


# The lattice laws FiniteAlgebra checks when and/or are present, in order:
# (law, the constants it needs, the error its failure raises).
_LATTICE_LAWS = [
    ("x & y == y & x", (), "lattice operations are not commutative"),
    ("x | y == y | x", (), "lattice operations are not commutative"),
    ("x & (x | y) == x", (), "absorption fails"),
    ("x | (x & y) == x", (), "absorption fails"),
    ("x & (y & z) == (x & y) & z", (), "lattice operations are not associative"),
    ("x | (y | z) == (x | y) | z", (), "lattice operations are not associative"),
    ("bot & x == bot", ("bot",), "top/bot are not lattice bounds"),
    ("x & top == x", ("top",), "top/bot are not lattice bounds"),
]

# The paper's equational bases: (name, connectives required, laws), each law
# an identity "l == r" or an inequality "l <= r" valid in every algebra of
# the variety.  The Heyting identities make => the relative pseudocomplement
# of the lattice meet, and so the lattice distributive; nabla is the derived
# x | ~@x.  PP and involutive Stone algebras are De Morgan algebras.
_DEMORGAN = ["~~x == x", "~(x & y) == ~x | ~y"]
_DEMORGAN_LATTICE = _DEMORGAN + ["x & (y | z) == (x & y) | (x & z)"]
_PP = [
    "@@x == top",
    "@x == @~x",
    "@top == top",
    "x & ~x & @x == bot",
    "@(x & y) == (@x | @y) & (@x | ~y) & (@y | ~x)",
]
_HEYTING = [
    "x => x == top",
    "x & (x => y) == x & y",
    "y & (x => y) == y",
    "x => (y & z) == (x => y) & (x => z)",
]
_LATTICE = {"and", "or", "top", "bot"}
VARIETIES = [
    ("DeMorgan", _LATTICE | {"neg"}, _DEMORGAN_LATTICE),
    ("PP", _LATTICE | {"neg", "circ"}, _PP + _DEMORGAN_LATTICE),
    (
        "InvolutiveStone",
        _LATTICE | {"neg", "circ"},
        _DEMORGAN_LATTICE + [
            "nabla(bot) == bot",
            "x & nabla(x) == x",
            "nabla(x & y) == nabla(x) & nabla(y)",
            "~nabla(x) & nabla(x) == bot",
        ],
    ),
    ("SymmetricHeyting", _LATTICE | {"neg", "imp"}, _HEYTING + _DEMORGAN),
    (
        "PPImp",
        _LATTICE | {"neg", "circ", "imp"},
        _PP + _HEYTING + _DEMORGAN
        + [
            "@(x1 => x2) & @(x2 => x3)"
            " <= @x1 | @x4 | @(x4 => x3) | @(x3 => x2) | @(x2 => x1)"
        ],
    ),
]


def parse_law(text):
    """(check, lhs, rhs) for an identity "lhs == rhs", checked by
    check_identity, or an inequality "lhs <= rhs", checked by
    check_inequality, trying == first; None when text has neither.  Each
    side is parsed in place with the rest of the text blanked, so
    syntax-error positions count in the whole text."""
    for sep, check in (("==", check_identity), ("<=", check_inequality)):
        i = text.find(sep)
        if i >= 0:
            j = i + len(sep)
            return check, parse_formula(text[:i]), parse_formula(" " * j + text[j:])
    return None


def _holds(alg, law):
    check, lhs, rhs = parse_law(law)
    return check(alg, lhs, rhs) is None


def variety_profile(alg):
    """The varieties of VARIETIES whose laws alg satisfies, and
    DeltaIdempotent when the Δ term function is idempotent."""
    names = {
        name
        for name, required, laws in VARIETIES
        if alg.has(*required) and all(_holds(alg, law) for law in laws)
    }
    try:
        delta = _delta_map(alg)
    except MissingConnective:
        return names
    if all(delta[delta[a]] == delta[a] for a in alg.carrier):
        names.add("DeltaIdempotent")
    return names


# --- congruences ---------------------------------------------------------

class Congruence:
    def __init__(self, carrier, blocks):
        self.carrier = tuple(carrier)
        self.blocks = [frozenset(b) for b in sorted((sorted(b) for b in blocks))]
        self._cls = {}
        for b in self.blocks:
            for x in b:
                self._cls[x] = b

    def block_of(self, x):
        return self._cls[x]

    def related(self, a, b):
        return self._cls[a] is self._cls[b]

    def key(self):
        return tuple(sorted(tuple(sorted(b)) for b in self.blocks))

    def is_identity(self):
        return all(len(b) == 1 for b in self.blocks)

    def __repr__(self):
        return "Congruence(%s)" % (
            ", ".join("{%s}" % ",".join(sorted(b)) for b in self.blocks)
        )


def _close_congruence(alg, pairs):
    """Smallest congruence containing the given pairs (union-find plus
    saturation under unary polynomial translations).  A pair whose members
    are already related needs no translations of its own: they follow from
    those of the pairs that related them."""
    parent = {a: a for a in alg.carrier}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        parent[ra] = rb
        return ra != rb

    work = [(a, b) for a, b in pairs if union(a, b)]
    while work:
        a, b = work.pop()
        for conn, table in alg.ops.items():
            k = alg.arity(conn)
            for pos in range(k):
                for rest in product(alg.carrier, repeat=k - 1):
                    ra = table[rest[:pos] + (a,) + rest[pos:]]
                    rb = table[rest[:pos] + (b,) + rest[pos:]]
                    if union(ra, rb):
                        work.append((ra, rb))
    blocks = {}
    for x in alg.carrier:
        blocks.setdefault(find(x), []).append(x)
    return Congruence(alg.carrier, blocks.values())


def _bounded(alg):
    n = len(alg.carrier)
    if n > CARRIER_BOUND:
        raise CarrierTooLarge("%d values exceed the bound %d" % (n, CARRIER_BOUND))


def congruences(alg):
    """Every congruence, as a join of principal congruences: a work list
    joins each congruence found with each principal congruence once."""
    _bounded(alg)
    identity = Congruence(alg.carrier, [[a] for a in alg.carrier])
    principals = {}
    for pair in combinations(alg.carrier, 2):
        theta = _close_congruence(alg, [pair])
        principals.setdefault(theta.key(), theta)
    found = {identity.key(): identity, **principals}
    work = list(found.values())
    while work:
        t1 = work.pop()
        for t2 in principals.values():
            pairs = [(min(b), x) for th in (t1, t2) for b in th.blocks for x in b]
            joined = _close_congruence(alg, pairs)
            if joined.key() not in found:
                found[joined.key()] = joined
                work.append(joined)
    return sorted(found.values(), key=lambda c: (len(c.blocks), c.key()))


def leibniz_and_reduce(m):
    alg = FiniteAlgebra(m.algebra) if not isinstance(m.algebra, FiniteAlgebra) else m.algebra
    designated = m.designated
    compatible = [
        c
        for c in congruences(alg)
        if all(b <= designated or not (b & designated) for b in c.blocks)
    ]
    # the Leibniz congruence is the greatest compatible one
    best = max(compatible, key=lambda c: sum(len(b) * len(b) for b in c.blocks))
    for c in compatible:
        assert all(best.related(a, b) for block in c.blocks for a in block for b in block)
    rep = {}
    names = {}
    for block in best.blocks:
        blk = sorted(block)
        label = "+".join(blk)
        for x in block:
            rep[x] = label
        names[label] = blk[0]
    carrier = []
    for v in alg.carrier:
        if rep[v] not in carrier:
            carrier.append(rep[v])
    interp = {}
    for conn, table in alg.ops.items():
        k = alg.arity(conn)
        new = {}
        for key in product(carrier, repeat=k):
            orig = tuple(names[x] for x in key)
            new[key] = {rep[table[orig]]}
        interp[conn] = new
    quotient = PNMatrix(
        m.name + "/leibniz",
        MultiAlgebra(alg.name + "/leibniz", carrier, interp),
        {rep[v] for v in designated},
    )
    return best, quotient


# --- filters and subalgebras --------------------------------------------

FILTER_LATTICE = "Lattice"
FILTER_PRINCIPAL = "Principal"
FILTER_PRIME = "Prime"
FILTER_REGULAR = "Regular"


def filters(alg, flavor=FILTER_LATTICE):
    """The lattice filters of the given flavor.  A filter of a finite
    lattice is the up-set of its meet, so every filter is principal and the
    filters are the up-sets of the carrier values."""
    if not alg.has("and", "or", "top"):
        raise MissingConnective("filters need a lattice reduct")
    carrier = alg.carrier
    out = [frozenset(b for b in carrier if alg.leq(a, b)) for a in carrier]
    if flavor == FILTER_PRIME:
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
    elif flavor not in (FILTER_LATTICE, FILTER_PRINCIPAL):
        raise ValueError("unknown filter flavor %r" % flavor)
    return sorted(out, key=lambda f: (len(f), tuple(sorted(f))))


def subalgebras(alg):
    _bounded(alg)
    constants = {alg.op(c) for c in alg.ops if alg.arity(c) == 0}

    def close(seed):
        cur = set(seed) | constants
        changed = True
        while changed:
            changed = False
            for conn, table in alg.ops.items():
                k = alg.arity(conn)
                for key in product(sorted(cur), repeat=k):
                    v = table[key]
                    if v not in cur:
                        cur.add(v)
                        changed = True
        return frozenset(cur)

    found = set()
    for size in range(0, len(alg.carrier) + 1):
        for subset in combinations(alg.carrier, size):
            found.add(close(subset))
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def unary_term_functions(alg):
    """The full unary clone as a map function-tuple -> witness formula, the
    kernel enumeration's one formula per function, of least connective
    depth.  Every profile mask holds one value: alg is deterministic."""
    _bounded(alg)
    return {
        tuple(alg.carrier[m.bit_length() - 1] for m in profile): f
        for _, f, profile in kernel.enumerate_unary(alg.multi)
    }
