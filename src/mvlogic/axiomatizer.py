"""Monadicity checking (separator search over the unary clone) and
automatic generation of analytic Set-Set rules for matrix refinements."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import kernel
from .calculus import Rule
from .errors import NotARefinement
from .formula import app, substitute, subformulas, var


@dataclass
class Discriminator:
    """Per carrier value: formulas in one variable p whose value sets land
    inside the designated set (pos) or its complement (neg)."""

    pos: dict
    neg: dict

    def formulas(self, value):
        return self.pos.get(value, frozenset()) | self.neg.get(value, frozenset())


@dataclass
class NotMonadic:
    witness: tuple
    saturated: bool
    explored: int


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
    definitive when the unary clone saturated below max_depth."""
    carrier = m.carrier
    n = len(carrier)
    des = kernel.compiled(m.algebra).mask_of(m.designated)
    found = []
    pending = {(i, j) for i in range(n) for j in range(i + 1, n)}
    explored = 0
    saturated = True
    last_depth = -1
    for depth, f, profile in kernel.enumerate_unary(m.algebra, max_depth):
        explored += 1
        last_depth = depth
        hits = []
        for (i, j) in sorted(pending):
            s = _separates(profile, i, j, des)
            if s:
                hits.append((i, j, s))
        if hits:
            found.append((f, profile, hits))
            pending -= {(i, j) for i, j, _ in hits}
        if not pending:
            break
    else:
        saturated = last_depth < max_depth
    if pending:
        i, j = sorted(pending)[0]
        return NotMonadic((carrier[i], carrier[j]), saturated, explored)
    pos = {a: set() for a in carrier}
    neg = {a: set() for a in carrier}
    for f, profile, hits in found:
        for i, j, s in hits:
            if s == 1:
                pos[carrier[i]].add(f)
                neg[carrier[j]].add(f)
            else:
                neg[carrier[i]].add(f)
                pos[carrier[j]].add(f)
    return Discriminator(
        {a: frozenset(v) for a, v in pos.items()},
        {a: frozenset(v) for a, v in neg.items()},
    )


_ARG_VARS = [var(n) for n in ("p", "q", "r", "p1", "p2", "p3")]


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


def _rule_subsumes(small, big):
    """True when a variable renaming embeds small's antecedent and succedent
    into big's (big is then a dilution of small)."""
    small_vars = sorted(
        {v.head for f in small.antecedent | small.succedent for v in subformulas(f) if v.is_var}
    )
    big_vars = sorted(
        {v.head for f in big.antecedent | big.succedent for v in subformulas(f) if v.is_var}
    )
    if not small_vars:
        return (
            small.antecedent <= big.antecedent
            and small.succedent <= big.succedent
        )
    for target in product(big_vars or ["p"], repeat=len(small_vars)):
        rho = {sv: var(tv) for sv, tv in zip(small_vars, target)}
        ant = {substitute(f, rho) for f in small.antecedent}
        succ = {substitute(f, rho) for f in small.succedent}
        if ant <= big.antecedent and succ <= big.succedent:
            return True
    return False


def subsume_simplify(rules):
    """Drop dilutions: any rule another kept rule embeds into under a
    variable renaming.  Output order follows the input."""
    rules = list(rules)
    keep = []
    for i, r in enumerate(rules):
        dropped = False
        for j, other in enumerate(rules):
            if i == j:
                continue
            if _rule_subsumes(other, r):
                # mutual subsumption (renamed duplicates): keep the first
                if _rule_subsumes(r, other) and i < j:
                    continue
                dropped = True
                break
        if not dropped:
            keep.append(r)
    return keep

