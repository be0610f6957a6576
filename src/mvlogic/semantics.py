"""Finite multialgebras, PNmatrices, valuation search and consequence."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import kernel
from .errors import ArityError, FrameworkMismatch, RepeatedValue, UnknownConnective, ValueAbsent
from .formula import canon_key, subformulas

SET_SET = "set-set"
SET_FMLA = "set-fmla"


class MultiAlgebra:
    """Finite carrier plus one table per connective mapping each tuple of
    values at its arity to a set of values; a value listed twice in the
    carrier is a RepeatedValue, and an empty carrier, or a table with a
    missing entry or a key outside the carrier, is a ValueAbsent.  Empty
    output sets encode partiality; non-singletons encode non-determinism."""

    def __init__(self, name, carrier, interp):
        self.name = name
        self.carrier = tuple(carrier)
        if not self.carrier:
            raise ValueAbsent("a carrier needs at least one value")
        self.interp = {
            conn: {k: frozenset(v) for k, v in table.items()}
            for conn, table in interp.items()
        }
        self._index = {v: i for i, v in enumerate(self.carrier)}
        for i, v in enumerate(self.carrier):
            if self._index[v] != i:
                raise RepeatedValue("value %r is listed twice in the carrier" % (v,))
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
    some needed solve_valuations; assignments counts the assignments of
    component values to the variables decided, up to any witness; shapes
    counts the sets of bitset rows evaluated, one per group of visited
    single-valued components that share a plan."""

    path: str
    components: int
    assignments: int
    shapes: int


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


class _Visit:
    """One total component of one matrix, as check_consequence visits it.
    plans, values, inside and outside are the component's part of the
    matrix's designation, set up once per designated set and kept on the
    algebra's compiled form (:meth:`kernel.Compiled.designation`): a
    position is the index of a member of the component in carrier order,
    values maps each position to its value, and plans is None when some
    table keeps other than one value on the component.  Premises must take
    a value in inside and conclusions one in outside: tuples of positions
    when there are plans, which read values by position, and sets of
    values otherwise."""

    __slots__ = ("idx", "m", "plans", "values", "wants")

    def __init__(self, idx, m, part, premises, conclusions):
        self.idx, self.m = idx, m
        self.plans, self.values, inside, outside = part
        self.wants = (premises, inside), (conclusions, outside)

    def select(self, bitsets):
        """The assignments meeting every constraint."""
        good = bitsets.full
        for formulas, allowed in self.wants:
            for f in formulas:
                good &= bitsets.where(f, allowed)
                if not good:
                    return 0
        return good

    def backtrack(self, domain, variables):
        """The first valuation solve_valuations finds on the component and
        the rank of its variables' values, or (None, None)."""
        wanted = {f: allowed for formulas, allowed in self.wants for f in formulas}
        everywhere = frozenset(self.values)
        cons = {f: wanted.get(f, everywhere) for f in domain}
        found = solve_valuations(self.m, domain, cons, limit=1)
        if not found:
            return None, None
        values = [self.values.index(found[0][x]) for x in variables]
        return found[0], kernel.rank(len(self.values), values)


def check_consequence(problem):
    """Set-Set (or Set-Fmla) consequence over the problem's matrices: Holds,
    or Fails with the first matrix and the first valuation, in
    solve_valuations' order, that designates every premise and no
    conclusion.

    Each matrix is searched on its total components in turn.  Components
    whose tables restrict to single values are decided by the bitset
    kernel, the others by solve_valuations.  What a matrix needs of its
    components (plans, member values, designated and undesignated positions
    or values) is set up on its first check and kept on the algebra's
    compiled form, so a call pays only for its formulas.  Rows are shared
    per component shape: every component of one algebra whose restricted
    tables are equal once its values are renamed to their positions has
    one plan, and every matrix over such a component (a class of filters
    on one algebra, or the like components of one PNmatrix) reads the same
    rows, of every assignment of positions to the variables: each formula
    is evaluated once per chunk, and each visit only selects what it
    wants."""
    premises = frozenset(problem.premises)
    conclusions = frozenset(problem.conclusions)
    if problem.mode == SET_FMLA and len(conclusions) != 1:
        raise FrameworkMismatch("Set-Fmla problems need exactly one conclusion")
    domain = subformulas(premises | conclusions)
    for alg in dict.fromkeys(m.algebra for m in problem.models):
        kernel.check_signature(alg, domain)
    order = sorted(domain, key=canon_key)
    variables = [f for f in order if f.is_var]
    visits = []
    # a formula on both sides can be neither designated nor undesignated
    if not premises & conclusions:
        for idx, m in enumerate(problem.models):
            k = kernel.compiled(m.algebra)
            # no premise can be designated, or no conclusion undesignated
            if (premises and not m.designated) or (conclusions and len(m.designated) == k.n):
                continue
            visits.extend(_Visit(idx, m, part, premises, conclusions)
                          for part in k.designation(m.designated))
    # the visits that read the same rows: one group per plan
    shared = {}
    for i, v in enumerate(visits):
        if v.plans is not None:
            shared.setdefault(id(v.plans), []).append(i)
    # the earliest visit with a witness: (position, witness, rank)
    hit = None
    for i, v in enumerate(visits):
        if hit is not None and i >= hit[0]:
            break
        if v.plans is None:
            witness, rank = v.backtrack(domain, variables)
            if witness is not None:
                hit = i, witness, rank
            continue
        # a group is searched at its first visit, for its visits before hit
        group = [j for j in shared.pop(id(v.plans), ())
                 if hit is None or j < hit[0]]
        if not group:
            continue
        selects = [visits[j].select for j in group]
        found = kernel.first_hit(v.plans, len(v.values), variables, selects, order)
        if found is not None:
            j, rank, values = found
            own = visits[group[j]].values
            hit = group[j], dict(zip(order, map(own.__getitem__, values))), rank
    decided = visits if hit is None else visits[:hit[0] + 1]
    # the assignments of positions to the variables, per visit
    sizes = [len(v.values) ** len(variables) for v in decided]
    path, shapes = "bitset", set()
    for v in decided:
        if v.plans is None:
            path = "backtrack"
        else:
            shapes.add(id(v.plans))
    if hit is None:
        return Holds(CheckStats(path, len(decided), sum(sizes), len(shapes)))
    # the last visit counts its assignments up to the witness's
    covered = sum(sizes) - sizes[-1] + hit[2] + 1
    return Fails(decided[-1].idx, hit[1], CheckStats(path, len(decided), covered, len(shapes)))


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
