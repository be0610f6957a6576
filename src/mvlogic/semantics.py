"""Finite multialgebras, PNmatrices, valuation search and consequence."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod

from . import kernel
from .errors import ArityError, FrameworkMismatch, UnknownConnective, ValueAbsent
from .formula import canon_key, subformulas

SET_SET = "set-set"
SET_FMLA = "set-fmla"


class MultiAlgebra:
    """Finite carrier plus one table per connective mapping each tuple of
    values at its arity to a set of values; a table with a missing entry or
    a key outside the carrier is a ValueAbsent.  Empty output sets encode
    partiality; non-singletons encode non-determinism."""

    def __init__(self, name, carrier, interp):
        self.name = name
        self.carrier = tuple(carrier)
        self.interp = {
            conn: {k: frozenset(v) for k, v in table.items()}
            for conn, table in interp.items()
        }
        self._index = {v: i for i, v in enumerate(self.carrier)}
        values = set(self.carrier)
        for conn, table in self.interp.items():
            n = self.arity(conn)
            if table.keys() != set(product(self.carrier, repeat=n)):
                raise ValueAbsent(
                    "table for %r needs one entry per %d-tuple of the carrier"
                    % (conn, n)
                )
            if not all(out <= values for out in table.values()):
                raise ValueAbsent(
                    "table for %r outputs values outside the carrier" % conn
                )

    def arity(self, conn):
        table = self.interp[conn]
        if not table:
            return 0
        return len(next(iter(table)))

    @property
    def connectives(self):
        return {conn: self.arity(conn) for conn in self.interp}

    def is_deterministic(self):
        return all(
            len(out) == 1 for table in self.interp.values() for out in table.values()
        )

    def is_total(self):
        return all(
            len(out) >= 1 for table in self.interp.values() for out in table.values()
        )

    def sort_values(self, values):
        return sorted(values, key=self._index.__getitem__)

    def __repr__(self):
        return "MultiAlgebra(%r)" % (self.name,)


class PNMatrix:
    def __init__(self, name, algebra, designated):
        self.name = name
        self.algebra = algebra
        self.designated = frozenset(designated)
        if not self.designated <= set(algebra.carrier):
            raise ValueAbsent("designated values outside the carrier")

    @property
    def carrier(self):
        return self.algebra.carrier

    def __repr__(self):
        return "PNMatrix(%r)" % (self.name,)


@dataclass(frozen=True)
class CheckStats:
    """The work behind a consequence answer.  path is "bitset" when every
    component visited was decided by the bitset kernel and "backtrack" when
    some needed solve_valuations; assignments counts the variable
    assignments decided, up to the witness when there is one."""

    path: str
    components: int
    assignments: int


@dataclass(frozen=True)
class Holds:
    stats: CheckStats = field(default=None, compare=False)


@dataclass(frozen=True)
class Fails:
    matrix_index: int
    witness: dict
    stats: CheckStats = field(default=None, compare=False)


# a rule is sound when its consequence holds
Sound, Unsound = Holds, Fails


@dataclass
class ConsequenceProblem:
    models: list
    premises: frozenset
    conclusions: frozenset
    mode: str = SET_SET


def eval_multiop(alg, conn, args):
    if conn not in alg.interp:
        raise UnknownConnective("no interpretation for %r" % conn)
    table = alg.interp[conn]
    key = tuple(args)
    if key not in table:
        raise ArityError("no entry for %r%r" % (conn, key))
    return table[key]


_EXHAUSTED = object()


def solve_valuations(m, domain, constraints, limit=None):
    """Legal valuations on a subformula-closed domain, restricted by the
    constraint sets; deterministic order from the carrier order and the
    canonical formula order.  This backtracking search is the general path:
    it handles non-deterministic and partial tables, where the bitset kernel
    needs single-valued ones."""
    alg = m.algebra
    order = sorted(domain, key=canon_key)
    results = []
    assign = {}

    def allowed(f):
        if f.is_var:
            opts = alg.carrier
        else:
            opts = eval_multiop(alg, f.head, tuple(assign[a] for a in f.args))
            opts = alg.sort_values(opts)
        cons = constraints.get(f)
        if cons is None:
            return list(opts)
        return [v for v in opts if v in cons]

    if limit is not None and limit <= 0:
        return results
    if not order:
        return [{}]
    # depth-first, without recursion: choices[i] iterates order[i]'s values
    choices = [iter(allowed(order[0]))]
    while choices:
        v = next(choices[-1], _EXHAUSTED)
        if v is _EXHAUSTED:
            choices.pop()
            continue
        assign[order[len(choices) - 1]] = v
        if len(choices) < len(order):
            choices.append(iter(allowed(order[len(choices)])))
            continue
        results.append(dict(assign))
        if limit is not None and len(results) >= limit:
            break
    return results


def total_components(m):
    """Maximal carrier subsets on which every restricted entry is non-empty,
    each in carrier order, sorted by their members' carrier positions."""
    k = kernel.compiled(m.algebra)
    return [tuple(k.carrier[i] for i in k.members(c)) for c in k.components()]


def _restrict_constraints(m, domain, base_constraints, component):
    comp = frozenset(component)
    cons = {}
    for f in domain:
        c = base_constraints.get(f)
        cons[f] = comp if c is None else (comp & c)
    return cons


def _first_valuation(m, order, variables, base, comp, tables):
    """solve_valuations(..., limit=1) on a component (a mask) where every
    table restricts to single values: the lowest-ranked variable assignment
    meeting the constraints, found with bitsets, and the assignments
    decided."""
    k = kernel.compiled(m.algebra)
    digits = [
        tuple(k.members(comp & k.mask_of(base.get(x, k.carrier))))
        for x in variables
    ]
    wanted = [
        (f, k.mask_of(c)) for f, c in base.items() if not f.is_var
    ]

    def select(bitsets):
        good = bitsets.full
        for f, allowed in wanted:
            good &= bitsets.where(f, allowed)
            if not good:
                break
        return good

    hit = next(kernel.satisfying(tables, k.n, variables, digits, select), None)
    if hit is None:
        return None, prod(map(len, digits))
    rank, values = hit
    index = dict(zip(variables, values))
    witness = {}
    for f in order:
        if not f.is_var:
            index[f] = tables[f.head][tuple(index[a] for a in f.args)]
        witness[f] = m.carrier[index[f]]
    return witness, rank + 1


def _backtrack(m, domain, variables, base, comp):
    cons = _restrict_constraints(m, domain, base, comp)
    found = solve_valuations(m, domain, cons, limit=1)
    k = kernel.compiled(m.algebra)
    digits = [tuple(k.members(k.mask_of(cons[x]))) for x in variables]
    if not found:
        return None, prod(map(len, digits))
    values = [k.carrier.index(found[0][x]) for x in variables]
    return found[0], kernel.rank(digits, values) + 1


def check_consequence(problem):
    """Set-Set (or Set-Fmla) consequence over the problem's matrices: Holds,
    or Fails with the first matrix and the first valuation, in
    solve_valuations' order, that designates every premise and no
    conclusion.  Components whose tables restrict to single values are
    decided by the bitset kernel, the others by solve_valuations."""
    premises = frozenset(problem.premises)
    conclusions = frozenset(problem.conclusions)
    if problem.mode == SET_FMLA and len(conclusions) != 1:
        raise FrameworkMismatch("Set-Fmla problems need exactly one conclusion")
    domain = subformulas(premises | conclusions)
    for m in problem.models:
        kernel.check_signature(m.algebra, domain)
    order = sorted(domain, key=canon_key)
    variables = [f for f in order if f.is_var]
    path, visited, covered = "bitset", 0, 0
    for idx, m in enumerate(problem.models):
        base = {}
        for f in premises:
            base[f] = m.designated
        undes = frozenset(m.carrier) - m.designated
        for f in conclusions:
            base[f] = base.get(f, frozenset(m.carrier)) & undes
        if any(not c for c in base.values()):
            continue
        k = kernel.compiled(m.algebra)
        for comp in k.components():
            visited += 1
            tables = k.single_valued(comp)
            if tables is None:
                path = "backtrack"
                witness, n = _backtrack(m, domain, variables, base, k.values(comp))
            else:
                witness, n = _first_valuation(m, order, variables, base, comp, tables)
            covered += n
            if witness is not None:
                return Fails(idx, witness, CheckStats(path, visited, covered))
    return Holds(CheckStats(path, visited, covered))


def check_rule_soundness(rule, models):
    return check_consequence(
        ConsequenceProblem(models, rule.antecedent, rule.succedent, SET_SET)
    )


def refine_matrix(m, deletions, name=None):
    interp = {
        conn: {k: set(v) for k, v in table.items()}
        for conn, table in m.algebra.interp.items()
    }
    for conn, key, value in deletions:
        key = tuple(key)
        if conn not in interp or key not in interp[conn]:
            raise ValueAbsent("no entry %r%r" % (conn, key))
        if value not in interp[conn][key]:
            raise ValueAbsent("value %r not present in entry %r%r" % (value, conn, key))
        interp[conn][key].discard(value)
    alg = MultiAlgebra(name or (m.algebra.name + "'"), m.algebra.carrier, interp)
    return PNMatrix(name or (m.name + "'"), alg, m.designated)
