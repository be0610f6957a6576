"""Monadicity checking (separator search over the unary clone) and
automatic generation of analytic Set-Set rules for matrix refinements."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import kernel
from .calculus import Rule
from .errors import NotARefinement
from .formula import app, substitute, subformulas, var, variables


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
    applied to the compound; the succedent gathers the neg formulas."""
    if tuple(base.carrier) != tuple(refined.carrier):
        raise NotARefinement("carriers differ")
    if base.designated != refined.designated:
        raise NotARefinement("designated sets differ")
    rules = []
    for conn in base.algebra.interp:
        if conn not in refined.algebra.interp:
            raise NotARefinement("connective %r missing from refinement" % conn)
        k = base.algebra.arity(conn)
        for key in sorted(base.algebra.interp[conn]):
            old = base.algebra.interp[conn][key]
            new = refined.algebra.interp[conn].get(key)
            if new is None or not new <= old:
                raise NotARefinement(
                    "entry %r%r is not a refinement" % (conn, key)
                )
            compound = app(conn, *_ARG_VARS[:k])
            for c in base.algebra.sort_values(old - new):
                ant = set()
                succ = set()
                for i, a in enumerate(key):
                    for f in d.pos.get(a, ()):
                        ant.add(substitute(f, {"p": _ARG_VARS[i]}))
                    for f in d.neg.get(a, ()):
                        succ.add(substitute(f, {"p": _ARG_VARS[i]}))
                for f in d.pos.get(c, ()):
                    ant.add(substitute(f, {"p": compound}))
                for f in d.neg.get(c, ()):
                    succ.add(substitute(f, {"p": compound}))
                name = "del_%s_%s_%s" % (conn, "_".join(key), c)
                rules.append(Rule(name, frozenset(ant), frozenset(succ)))
    return rules


def _embeds(small, small_vars, big, big_vars):
    """True when a renaming of the variable names small_vars into
    big_vars (into p when big has none) embeds small's antecedent and
    succedent into big's: big is then a dilution of small."""
    if not small_vars:
        return (
            small.antecedent <= big.antecedent
            and small.succedent <= big.succedent
        )
    targets = [var(v) for v in big_vars] or [_P]
    for target in product(targets, repeat=len(small_vars)):
        rho = dict(zip(small_vars, target))
        ant = {substitute(f, rho) for f in small.antecedent}
        succ = {substitute(f, rho) for f in small.succedent}
        if ant <= big.antecedent and succ <= big.succedent:
            return True
    return False


def subsume_simplify(rules):
    """Drop dilutions: every rule into which another rule of the list
    embeds under a variable renaming, except that of renamed duplicates
    (rules embedding into each other) the first stays.  Output order
    follows the input.

    A renaming maps variables to variables, so it keeps each formula's
    shape, the formula with every variable replaced by p.  The renaming
    search runs only on pairs whose shapes are already subsets."""
    rules = list(rules)
    names, shapes = [], []
    for r in rules:
        vs = sorted(variables(r.antecedent | r.succedent))
        to_p = dict.fromkeys(vs, _P)
        names.append(vs)
        shapes.append((
            {substitute(f, to_p) for f in r.antecedent},
            {substitute(f, to_p) for f in r.succedent},
        ))

    def subsumes(i, j):
        (ant_i, succ_i), (ant_j, succ_j) = shapes[i], shapes[j]
        return (
            ant_i <= ant_j
            and succ_i <= succ_j
            and _embeds(rules[i], names[i], rules[j], names[j])
        )

    keep = []
    for i, r in enumerate(rules):
        for j in range(len(rules)):
            # of mutually subsuming rules (renamed duplicates) keep the first
            if i != j and subsumes(j, i) and not (i < j and subsumes(i, j)):
                break
        else:
            keep.append(r)
    return keep
