"""Monadicity checking (separator search over the unary clone) and
automatic generation of analytic Set-Set rules for matrix refinements."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import kernel
from .calculus import Rule
from .errors import NotARefinement
from .formula import app, substitute, subformulas, var


@dataclass
class Discriminator:
    """Per carrier value: formulas in one variable p whose value sets land
    inside the designated set (pos) or its complement (neg).  explored
    counts the unary-clone formulas examined, depth is the connective
    depth of the last one, and candidates counts the candidate profiles
    the clone walk evaluated to find them."""

    pos: dict
    neg: dict
    explored: int
    depth: int
    candidates: int = field(default=0, compare=False)

    def formulas(self, value):
        return self.pos.get(value, frozenset()) | self.neg.get(value, frozenset())


@dataclass
class NotMonadic:
    """A value pair no examined formula separates; saturated when the
    examined formulas are the whole unary clone.  explored, depth and
    candidates are as in Discriminator."""

    witness: tuple
    saturated: bool
    explored: int
    depth: int
    candidates: int = field(default=0, compare=False)


def unary_profile(m, formula):
    """For each carrier value a, the set of values the formula can take when
    its variables take a, evaluating connectives as set-valued
    multioperations."""
    k = kernel.compiled(m.algebra)
    rows = {}
    for g in sorted(subformulas(formula), key=lambda g: g.size):
        if g.is_var:
            rows[g] = k.identity
        else:
            rows[g] = k.combine(g.head, [rows[a] for a in g.args])
    return tuple(k.values(mask) for mask in rows[formula])


def _separates(profile, i, j, des):
    a, b = profile[i], profile[j]
    if not a & ~des and not b & des:
        return 1
    if not a & des and not b & ~des:
        return -1
    return 0


def find_discriminator(m, max_depth):
    """Search for a discriminator; each returned formula is a smallest-depth
    separator for some value pair.  When every pair is separated the matrix
    is monadic; otherwise the first unseparated pair is the witness,
    definitive when the unary clone saturated below max_depth (always when
    max_depth is None: the walk then ends only at saturation)."""
    carrier = m.carrier
    n = len(carrier)
    des = kernel.compiled(m.algebra).mask_of(m.designated)
    pos = {a: set() for a in carrier}
    neg = {a: set() for a in carrier}
    pending = {(i, j) for i in range(n) for j in range(i + 1, n)}
    explored = 0
    saturated = True
    last_depth = -1
    walk = kernel.UnaryWalk(m.algebra, max_depth)
    for depth, f, profile in walk:
        explored += 1
        last_depth = depth
        for (i, j) in sorted(pending):
            s = _separates(profile, i, j, des)
            if s:
                pending.discard((i, j))
                if s < 0:
                    i, j = j, i
                pos[carrier[i]].add(f)
                neg[carrier[j]].add(f)
        if not pending:
            break
    else:
        saturated = max_depth is None or last_depth < max_depth
    if pending:
        i, j = sorted(pending)[0]
        witness = (carrier[i], carrier[j])
        return NotMonadic(
            witness, saturated, explored, last_depth, walk.candidates
        )
    return Discriminator(
        {a: frozenset(v) for a, v in pos.items()},
        {a: frozenset(v) for a, v in neg.items()},
        explored,
        last_depth,
        walk.candidates,
    )


_ARG_VARS = [var(n) for n in ("p", "q", "r", "p1", "p2", "p3")]
_P = _ARG_VARS[0]


def generate_refinement_rules(base, refined, d):
    """One rule per (connective entry, deleted value): the antecedent gathers
    the pos formulas of the argument values and of the deleted output value
    applied to the compound; the succedent gathers the neg formulas.  The
    refined matrix keeps the base's carrier, designated set and connectives
    with their arities, or it is no refinement."""
    if tuple(base.carrier) != tuple(refined.carrier):
        raise NotARefinement("carriers differ")
    if base.designated != refined.designated:
        raise NotARefinement("designated sets differ")
    differ = base.algebra.connectives.items() ^ refined.algebra.connectives.items()
    if differ:
        raise NotARefinement(
            "connectives differ: %s" % ", ".join(sorted({c for c, _ in differ}))
        )
    moved = {}

    def at(a, t):
        # a's pos and neg formulas with t for p, substituted once per (a, t)
        hit = moved.get((a, t))
        if hit is None:
            rho = {"p": t}
            hit = moved[a, t] = (
                frozenset(substitute(f, rho) for f in d.pos.get(a, ())),
                frozenset(substitute(f, rho) for f in d.neg.get(a, ())),
            )
        return hit

    rules = []
    for conn in base.algebra.interp:
        k = base.algebra.arity(conn)
        for key in sorted(base.algebra.interp[conn]):
            old = base.algebra.interp[conn][key]
            new = refined.algebra.interp[conn].get(key)
            if new is None or not new <= old:
                raise NotARefinement(
                    "entry %r%r is not a refinement" % (conn, key)
                )
            compound = app(conn, *_ARG_VARS[:k])
            args = [at(a, _ARG_VARS[i]) for i, a in enumerate(key)]
            for c in base.algebra.sort_values(old - new):
                pos, neg = at(c, compound)
                ant = pos.union(*(ps for ps, _ in args))
                succ = neg.union(*(ns for _, ns in args))
                name = "del_%s_%s_%s" % (conn, "_".join(key), c)
                rules.append(Rule(name, ant, succ))
    return rules


def _read(f, reads):
    """f's shape, the formula with every variable replaced by p, and the
    names of its variables in preorder, one per occurrence; reads keeps
    what was read, subformulas included."""
    hit = reads.get(f)
    if hit is None:
        if f.is_var:
            hit = (_P, (f.head,))
        elif not f.args:
            hit = (f, ())
        else:
            parts = [_read(a, reads) for a in f.args]
            hit = (
                app(f.head, *(shape for shape, _ in parts)),
                tuple(v for _, names in parts for v in names),
            )
        reads[f] = hit
    return hit


def _maps_into(small, big):
    """Whether one variable map sends every formula of small onto a formula
    of big.  Both map a key, a (side, shape) pair, to the names of their
    formulas of that side and shape, which differ only in the names at
    their variable positions.  The map is built position by position, two
    variables may go to one, and the formulas with the fewest candidates
    are placed first, backtracking on a clash."""
    order = [
        (names, big[key])
        for key in sorted(small, key=lambda key: len(big[key]))
        for names in small[key]
    ]
    stack = [(0, {})]
    while stack:
        k, rho = stack.pop()
        if k == len(order):
            return True
        names, targets = order[k]
        for target in targets:
            ext = dict(rho)
            for a, b in zip(names, target):
                if ext.setdefault(a, b) != b:
                    break
            else:
                stack.append((k + 1, ext))
    return False


def subsume_simplify(rules):
    """Drop dilutions: every rule into which another rule of the list
    embeds under a variable renaming, except that of renamed duplicates
    (rules embedding into each other) the first stays.  Output order
    follows the input, and the kept rules are the input's objects.

    A renaming maps variables to variables, so it keeps each formula's
    shape, the formula with every variable replaced by p.  Each distinct
    formula is read once, into its shape and its variables in preorder, and
    a rule becomes a bitmask over the (side, shape) pairs it holds: a rule
    embeds into another only if its mask is a subset of the other's, and
    rules of one mask are tested together.  A pair that passes is decided
    by matching each formula of the embedded rule against the other's
    formulas of its side and shape (_maps_into).  A rule with variables
    never embeds into one without, whose shapes hold no p."""
    rules = list(rules)
    reads, bits = {}, {}
    masks, held = [], []
    for r in rules:
        mask, by_key = 0, {}
        for side, fs in enumerate((r.antecedent, r.succedent)):
            for f in fs:
                shape, names = _read(f, reads)
                key = bits.setdefault((side, shape), 1 << len(bits))
                mask |= key
                by_key.setdefault(key, []).append(names)
        masks.append(mask)
        held.append(by_key)
    by_mask = {}
    for i, mask in enumerate(masks):
        by_mask.setdefault(mask, []).append(i)

    def dropped(i):
        mine = masks[i]
        for mask, js in by_mask.items():
            if mask & ~mine:
                continue
            for j in js:
                # of mutually embedding rules (renamed duplicates), which
                # share a mask, keep the first
                if j != i and _maps_into(held[j], held[i]) and not (
                    i < j and mask == mine and _maps_into(held[i], held[j])
                ):
                    return True
        return False

    return [r for i, r in enumerate(rules) if not dropped(i)]
