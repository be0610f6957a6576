"""Finite deterministic algebras: identities, congruences, filters,
subalgebras, residuation and unary clones."""

from __future__ import annotations

from itertools import combinations, product

from . import kernel
from .errors import CarrierTooLarge, MissingConnective, TooManyVariables
from .formula import app, parse_formula, subformulas, var, variables
from .semantics import MultiAlgebra, PNMatrix

DEFAULT_CARRIER_BOUND = 12
DEFAULT_VARIABLE_BOUND = 4


class FiniteAlgebra:
    """A deterministic total multialgebra with single-valued operations and,
    when a bounded-lattice reduct is present, the order derived from meet."""

    def __init__(self, multi):
        if not (multi.is_deterministic() and multi.is_total()):
            raise ValueError("FiniteAlgebra requires a deterministic total algebra")
        self.multi = multi
        self.name = multi.name
        self.carrier = multi.carrier
        self.ops = {
            conn: {k: next(iter(v)) for k, v in table.items()}
            for conn, table in multi.interp.items()
        }
        self._leq = None
        if {"and", "or", "top", "bot"} <= set(self.ops):
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
        meet = self.ops["and"]
        join = self.ops["or"]
        top = self.op("top")
        bot = self.op("bot")
        for a in self.carrier:
            if not (self.leq(bot, a) and self.leq(a, top)):
                raise ValueError("top/bot are not lattice bounds")
        for a, b in product(self.carrier, repeat=2):
            if meet[(a, b)] != meet[(b, a)] or join[(a, b)] != join[(b, a)]:
                raise ValueError("lattice operations are not commutative")
            # absorption fixes meet/join as glb/lub of the derived order
            if self.op("and", a, self.op("or", a, b)) != a:
                raise ValueError("absorption fails")
            if self.op("or", a, self.op("and", a, b)) != a:
                raise ValueError("absorption fails")

    def eval_formula(self, f, assignment):
        if f.is_var:
            return assignment[f.head]
        return self.ops[f.head][tuple(self.eval_formula(a, assignment) for a in f.args)]

    def __repr__(self):
        return "FiniteAlgebra(%r)" % (self.name,)


def check_identity(alg, lhs, rhs, variable_bound=DEFAULT_VARIABLE_BOUND):
    """Exhaustively check lhs ≈ rhs; returns None for valid, else the first
    counterexample assignment in canonical order."""
    if isinstance(lhs, str):
        lhs = parse_formula(lhs)
    if isinstance(rhs, str):
        rhs = parse_formula(rhs)
    vs = sorted(variables(lhs) | variables(rhs))
    if len(vs) > variable_bound:
        raise TooManyVariables("%d variables exceed the bound %d" % (len(vs), variable_bound))
    kernel.check_signature(alg.multi, subformulas((lhs, rhs)))
    k = kernel.compiled(alg.multi)
    tables = k.single_valued(k.all)

    def differ(bitsets):
        left, right = bitsets.row(lhs), bitsets.row(rhs)
        same = 0
        for a, b in zip(left, right):
            same |= a & b
        return bitsets.full & ~same

    digits = [tuple(range(k.n))] * len(vs)
    hit = next(kernel.satisfying(tables, k.n, [var(v) for v in vs], digits, differ), None)
    if hit is None:
        return None
    return {v: alg.carrier[i] for v, i in zip(vs, hit[1])}


def check_inequality(alg, lhs, rhs, variable_bound=DEFAULT_VARIABLE_BOUND):
    """lhs ≤ rhs encoded as lhs ≈ lhs ∧ rhs."""
    if isinstance(lhs, str):
        lhs = parse_formula(lhs)
    if isinstance(rhs, str):
        rhs = parse_formula(rhs)
    return check_identity(alg, lhs, app("and", lhs, rhs), variable_bound)


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
    ¬x = x⇒∼(x⇒x)."""
    if alg.has("circ", "and"):
        return {a: alg.op("and", a, alg.op("circ", a)) for a in alg.carrier}
    if alg.has("imp", "neg"):
        def hneg(x):
            return alg.op("imp", x, alg.op("neg", alg.op("imp", x, x)))
        return {a: hneg(alg.op("neg", a)) for a in alg.carrier}
    raise MissingConnective("Δ needs ∘/∧ or ⇒/∼")


VARIETY_SUITES = {
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
        ],
    ),
}


def _nabla_formula(alg):
    # ∇ as a derived term: x ∨ ∼∘x when ∘ is present
    if alg.has("circ"):
        return parse_formula("x | ~(@x)")
    raise MissingConnective("∇ needs ∘")


def variety_profile(alg):
    names = set()
    for name, (required, pairs) in VARIETY_SUITES.items():
        if required <= set(alg.ops) and all(
            check_identity(alg, l, r) is None for l, r in pairs
        ):
            names.add(name)

    # InvolutiveStone: IS1-IS4 over the derived ∇
    try:
        nabla = _nabla_formula(alg)
        x, y = var("x"), var("y")
        from .formula import substitute

        def nb(f):
            return substitute(nabla, {"x": f})

        is_eqs = [
            (nb(app("bot")), app("bot")),
            (app("and", x, nb(x)), x),
            (nb(app("and", x, y)), app("and", nb(x), nb(y))),
            (app("and", app("neg", nb(x)), nb(x)), app("bot")),
        ]
        if {"and", "or", "neg", "top", "bot"} <= set(alg.ops) and all(
            check_identity(alg, l, r) is None for l, r in is_eqs
        ):
            names.add("InvolutiveStone")
    except MissingConnective:
        pass

    # SymmetricHeyting: ⇒ is the residuum of ∧ and ∼ is a De Morgan negation
    if alg.has("imp", "and", "or", "neg", "top", "bot"):
        table, _ = residuum_of_meet(alg)
        heyting = table is not None and all(
            alg.op("imp", a, b) == table[(a, b)] for a, b in product(alg.carrier, repeat=2)
        )
        demorgan = (
            check_identity(alg, "~~x", "x") is None
            and check_identity(alg, "~(x & y)", "~x | ~y") is None
        )
        if heyting and demorgan:
            names.add("SymmetricHeyting")

    # PPImp: PP reduct + SHA + the four-variable ∘/⇒ inequality
    if alg.has("imp", "circ", "and", "or", "neg", "top", "bot"):
        ineq_ok = (
            check_inequality(
                alg,
                "@(x1 => x2) & @(x2 => x3)",
                "@x1 | @x4 | @(x4 => x3) | @(x3 => x2) | @(x2 => x1)",
            )
            is None
        )
        if "PP" in names and "SymmetricHeyting" in names and ineq_ok:
            names.add("PPImp")

    # DeltaIdempotent: ΔΔx ≈ Δx for the derived Δ
    try:
        delta = _delta_map(alg)
        if all(delta[delta[a]] == delta[a] for a in alg.carrier):
            names.add("DeltaIdempotent")
    except MissingConnective:
        pass
    return names


# --- congruences ---------------------------------------------------------

def _partition_key(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


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
        return _partition_key(self.blocks)

    def is_identity(self):
        return all(len(b) == 1 for b in self.blocks)

    def __repr__(self):
        return "Congruence(%s)" % (
            ", ".join("{%s}" % ",".join(sorted(b)) for b in self.blocks)
        )


def _close_congruence(alg, pairs):
    """Smallest congruence containing the given pairs (union-find plus
    saturation under unary polynomial translations)."""
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


def congruences(alg, carrier_bound=DEFAULT_CARRIER_BOUND):
    if len(alg.carrier) > carrier_bound:
        raise CarrierTooLarge(str(len(alg.carrier)))
    identity = Congruence(alg.carrier, [[a] for a in alg.carrier])
    found = {identity.key(): identity}
    principals = []
    for a, b in combinations(alg.carrier, 2):
        theta = _close_congruence(alg, [(a, b)])
        principals.append(theta)
        found.setdefault(theta.key(), theta)
    # close under join
    changed = True
    while changed:
        changed = False
        current = list(found.values())
        for t1 in current:
            for t2 in principals:
                pairs = []
                for th in (t1, t2):
                    for block in th.blocks:
                        bl = sorted(block)
                        pairs.extend((bl[0], x) for x in bl[1:])
                joined = _close_congruence(alg, pairs)
                if joined.key() not in found:
                    found[joined.key()] = joined
                    changed = True
    return sorted(found.values(), key=lambda c: (len(c.blocks), c.key()), reverse=False)


def leibniz_and_reduce(m, carrier_bound=DEFAULT_CARRIER_BOUND):
    alg = FiniteAlgebra(m.algebra) if not isinstance(m.algebra, FiniteAlgebra) else m.algebra
    designated = m.designated
    compatible = [
        c
        for c in congruences(alg, carrier_bound)
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
            if not all(
                b in f for a in f for b in carrier if alg.leq(a, b)
            ):
                continue
            out.append(f)
    if flavor == FILTER_LATTICE:
        pass
    elif flavor == FILTER_PRINCIPAL:
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
    else:
        raise ValueError("unknown filter flavor %r" % flavor)
    return sorted(out, key=lambda f: (len(f), tuple(sorted(f))))


def subalgebras(alg, carrier_bound=DEFAULT_CARRIER_BOUND):
    if len(alg.carrier) > carrier_bound:
        raise CarrierTooLarge(str(len(alg.carrier)))
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


def unary_term_functions(alg, carrier_bound=DEFAULT_CARRIER_BOUND):
    """The full unary clone as a map function-tuple -> witness formula, the
    kernel enumeration's one formula per function, of least connective
    depth.  Every profile mask holds one value: alg is deterministic."""
    if len(alg.carrier) > carrier_bound:
        raise CarrierTooLarge(str(len(alg.carrier)))
    return {
        tuple(alg.carrier[m.bit_length() - 1] for m in profile): f
        for _, f, profile in kernel.enumerate_unary(alg.multi)
    }
