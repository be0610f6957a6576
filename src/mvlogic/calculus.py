"""Set-Set Hilbert calculi, proving by clause learning and proof search,
countermodels for saturated partitions (a model's valuation that designates
exactly Ω among the sequent's subformulas, found by check_consequence), and
the Set-Fmla disjunction transform."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations, product

from . import kernel, semantics
from .errors import (
    ClassificationError,
    DuplicateRuleName,
    FrameworkMismatch,
    MissingDisjunction,
    SignatureMismatch,
)
from .formula import (
    app,
    big_or,
    canon_key,
    generalized_subformulas,
    render_formula,
    subformulas,
    substitute,
    var,
    variables,
)
from .semantics import (
    SET_FMLA,
    SET_SET,
    ConsequenceProblem,
    Holds,
    check_consequence,
)


@dataclass(frozen=True)
class Rule:
    name: str
    antecedent: frozenset
    succedent: frozenset


@dataclass
class Calculus:
    name: str
    rules: list
    xi: tuple = None
    framework: str = SET_SET
    source: "Calculus" = None
    models: list = None

    def __post_init__(self):
        # instances, proof trees and their checks look a rule up by name
        seen = set()
        for r in self.rules:
            if r.name in seen:
                raise DuplicateRuleName("%s has two rules named %r" % (self.name, r.name))
            seen.add(r.name)


@dataclass(slots=True, eq=False, repr=False)
class TreeNode:
    """A derivation step.  A node's label is the union of `adds` on the
    path from the root: the root adds the premises, each child of a rule
    step adds its one branch formula, and a star child adds nothing.

    The tree of a Proved answer may share subtrees: a node that closes by
    the same steps as an earlier one holds that node's children list.  It
    is then a DAG, and every walk (validation, export, equality, node
    counts) unfolds it into a tree.
    Trees can be thousands of levels deep, so equality walks them with a
    work list and repr shows the root's step and its number of children."""

    adds: frozenset = frozenset()
    rule: str = None
    subst: dict = None
    children: list = field(default_factory=list)
    star: bool = False
    closed: bool = False

    def __eq__(self, other):
        if not isinstance(other, TreeNode):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if (a.adds, a.rule, a.subst, a.star, a.closed, len(a.children)) != (
                b.adds, b.rule, b.subst, b.star, b.closed, len(b.children)
            ):
                return False
            pairs.extend(zip(a.children, b.children))
        return True

    def __repr__(self):
        return "TreeNode(adds=%r, rule=%r, children=%d)" % (
            self.adds, self.rule, len(self.children)
        )


@dataclass(frozen=True)
class ProveStats:
    """The work behind a prove answer.  route is "model" when a valuation
    of the calculus's models refuted the sequent before any grounding,
    "cdcl" when the clause set of the ground instances was solved (and a
    proof tree searched over its unsatisfiable core), "replay" when a
    Set-Fmla answer came from the source calculus, and "closed" when the
    premises meet the goal: the root closes before any grounding, so every
    count is 0 but the one node.
    universe is |Λ|, Λ = sub(premises ∪ goal), on route "model", the size
    of the analyticity set's universe on route "cdcl", and None without an
    analyticity set or work.  core counts the instances in the minimal
    unsatisfiable core, steps the tree search's steps, nodes the proof
    tree's nodes (its unfolding, when subtrees are shared) and reused the
    branch children closed by a subtree the search had closed before.
    assignments (those of the core's minimization included) plus steps
    count against budget_nodes.  valuations counts the valuations the
    check on the models decided, up to the witness, and is 0 when that
    check was skipped; it counts against no budget."""

    route: str
    universe: int
    instances: int
    assignments: int = 0
    conflicts: int = 0
    core: int = 0
    steps: int = 0
    nodes: int = 0
    reused: int = 0
    valuations: int = 0


@dataclass
class Proved:
    tree: TreeNode
    stats: ProveStats = field(default=None, compare=False)


@dataclass
class SaturatedPartition:
    omega: frozenset
    omega_bar: frozenset
    base: frozenset
    universe: frozenset


@dataclass
class Refuted:
    """A refutation: the saturated partition and, on route "model", the
    countermodel (matrix, valuation of Λ, the sequent's subformulas) that
    Ω was read off, the one countermodel(models, partition) returns.  On
    that route the partition's universe is Λ and Ω the formulas of Λ the
    valuation designates; on route "cdcl" it is the analyticity set's
    universe.  countermodel is None on the other routes."""

    partition: SaturatedPartition
    stats: ProveStats = field(default=None, compare=False)
    countermodel: tuple = field(default=None, compare=False)


@dataclass
class OutOfBudget:
    stats: ProveStats = field(default=None, compare=False)


@dataclass
class Inconclusive:
    """No proof and no refutation, which no budget changes: the calculus's
    ground instances over the sequent's subformulas, with the formulas
    those instances build, do not derive the sequent, and either its models
    do not interpret every connective of the sequent, or it has no
    analyticity set, so that a model of those instances is no countermodel
    and the calculus may still derive the sequent.  Its models, where they
    could be checked, do not refute the sequent."""

    stats: ProveStats = field(default=None, compare=False)


@lru_cache(maxsize=1024)
def _compiled_rule(rule):
    """A rule's variables, sorted, and its grounding function, generated
    once.  ground(tids, size, seen, seen_add, emit, record, name, *tables)
    takes the rule's connectives' tables (see _build_instances) in
    _rule_heads order and binds the variables in order, one nested loop
    each over the target ids and their positions.  A constant's table is
    its id; a unary subterm's id is table.get(argument id), a binary one's
    row.get(second argument id), its row table.get(first argument id)
    fetched in the loop that binds the first argument, so a loop that
    binds only the second does one lookup and builds no key.  A lookup
    runs as soon as its variables are bound: before the loops, once per
    target before them for one variable (whose loop then runs over the
    targets that passed), else in the loop of its last variable, in
    canon_key order.  A missing id or row, or a rule formula's id not below
    size (a missing one reads as size), drops the assignment and its
    extensions, as does an instance whose sides meet (only formulas of
    the two sides that unify are compared).  Otherwise its clause, the
    sorted literals 2*id + 1 of its antecedent and 2*id of its succedent,
    each once, goes to emit and (name, target positions) to record, unless
    seen holds it already.  Two literals are ordered by one comparison; a
    longer clause is a list sorted in place that goes through a set only
    when two formulas of one side that unify have taken one id.  The source
    splices in only generated names."""
    sides = rule.antecedent | rule.succedent
    vs = sorted(variables(sides))
    level = {v: j for j, v in enumerate(vs)}
    table = {h: "t%d" % k for k, h in enumerate(_rule_heads(rule))}
    local, rows, free = {}, {}, {}  # free: each subterm's variables
    pre, solo, deep = [], [[] for _ in vs], [[] for _ in vs]

    def place(name, test, needs):  # needs: the variables test reads
        if not needs:
            pre.append(test)
        elif len(needs) == 1:
            solo[level[min(needs)]].append((name, test))
        else:
            deep[max(map(level.get, needs))].append(test)

    for g in sorted(subformulas(sides), key=canon_key):
        if g.args is None:
            local[g], free[g] = "x%d" % level[g.head], {g.head}
            continue
        free[g] = set().union(*map(free.get, g.args))
        node = table[(g.head, len(g.args))]
        for k in range(1, len(g.args)):
            key = (g.head, len(g.args), g.args[:k])
            if key not in rows:
                rows[key] = "r%d" % len(rows)
                place(rows[key], "(%s := %s.get(%s)) is None" % (
                    rows[key], node, local[g.args[k - 1]]
                ), set().union(*map(free.get, g.args[:k])))
            node = rows[key]
        if not g.args:
            local[g] = node
            if g in sides:
                place(None, "%s >= size" % node, ())
            continue
        local[g] = name = "y%d" % len(local)
        if g in sides:  # a missing id reads as size
            test = "(%s := %s.get(%s, size)) >= size"
        else:
            test = "(%s := %s.get(%s)) is None"
        test %= (name, node, local[g.args[-1]])
        place(name, test, free[g])
    lines = [
        "def ground(%s):" % ", ".join(
            ["tids", "size", "seen", "seen_add", "emit", "record", "name"]
            + list(table.values())
        ),
    ]
    lines += ["    if %s: return" % test for test in pre]
    loops = []
    for j, stage in enumerate(solo):
        names = ", ".join(["i%d" % j, "x%d" % j] + [n for n, _ in stage])
        if not stage:
            loops.append("for %s in enumerate(tids):" % names)
            continue
        lines += ["    c%d = []" % j, "    for i%d, x%d in enumerate(tids):" % (j, j)]
        lines += ["        if %s: continue" % test for _, test in stage]
        lines.append("        c%d.append((%s))" % (j, names))
        loops.append("for %s in c%d:" % (names, j))
    pad, skip = "    ", "return"
    for j, loop in enumerate(loops):
        lines.append(pad + loop)
        pad, skip = pad + "    ", "continue"
        lines += ["%sif %s: %s" % (pad, test, skip) for test in deep[j]]
    meets = [
        "%s == %s" % (local[a], local[s])
        for a in rule.antecedent for s in rule.succedent if _unifiable(a, s)
    ]
    if meets:
        lines.append("%sif %s: %s" % (pad, " or ".join(meets), skip))
    lits = [(local[f], "2 * %s + 1" % local[f]) for f in rule.antecedent]
    lits += [(local[f], "2 * %s" % local[f]) for f in rule.succedent]
    merges = [
        "%s == %s" % (local[f], local[g])
        for side in (rule.antecedent, rule.succedent)
        for f, g in combinations(side, 2) if _unifiable(f, g)
    ]
    if len(lits) == 2:
        (x, a), (y, b) = lits
        key = "(%s, %s) if %s < %s else (%s, %s)" % (a, b, x, y, b, a)
        if merges:
            key += " if %s < %s else (%s,)" % (y, x, a)
        lines.append(pad + "key = " + key)
    elif len(lits) < 2:
        lines.append(pad + "key = (%s)" % "".join(lit + "," for _, lit in lits))
    else:
        lines.append(pad + "clause = [%s]" % ", ".join(lit for _, lit in lits))
        if merges:
            lines.append("%sif %s: clause = [*{*clause}]" % (pad, " or ".join(merges)))
        lines += [pad + "clause.sort()", pad + "key = tuple(clause)"]
    lines += [
        pad + "if key in seen: %s" % skip,
        pad + "seen_add(key)",
        pad + ("emit(clause)" if len(lits) > 2 else "emit([*key])"),
        pad + "record((name, (%s)))" % "".join("i%d, " % j for j in range(len(vs))),
    ]
    scope = {}
    exec("\n".join(lines), scope)
    return tuple(vs), scope["ground"]


class _Ground(list):
    """Ground instances: self[k] is instance k's (rule name, target
    positions of the rule's sorted variables) and clauses[k] its clause,
    a list of the sorted literals 2*id + 1 of its antecedent and 2*id of
    its succedent, each once (see _compiled_rule for when that takes a
    set).  formulas[i] is the formula with id i; a universe's formulas
    come first, in canon_key order, so an id below its size is the
    formula's SAT variable; without a universe every id is one, and the
    formulas the tables build on lookup come after the closure."""

    def __init__(self, targets, formulas):
        super().__init__()
        self.targets = targets
        self.formulas = formulas
        self.clauses = []
        self.rule_variables = {}

    def instance(self, k):
        """Instance k as (rule name, substitution, antecedent, succedent)."""
        name, values = self[k]
        fs, targets = self.formulas, self.targets
        vs = self.rule_variables[name]
        subst = dict(zip(vs, [targets[t] for t in values]))
        clause = self.clauses[k]
        return name, subst, frozenset([fs[q >> 1] for q in clause if q & 1]), (
            frozenset([fs[q >> 1] for q in clause if not q & 1])
        )


@lru_cache(maxsize=1024)
def _rule_heads(rule):
    """The connectives of a rule's formulas as (name, arity), in the
    canon_key order of the first formula each heads."""
    heads = {}
    for f in sorted(subformulas(rule.antecedent | rule.succedent), key=canon_key):
        if f.args is not None:
            heads.setdefault((f.head, len(f.args)))
    return tuple(heads)


def _unifiable(f, g):
    """Whether some substitution of formulas for the variables makes f and
    g one formula."""
    env, pairs = {}, [(f, g)]
    while pairs:
        a, b = pairs.pop()
        while a.args is None and a.head in env:
            a = env[a.head]
        while b.args is None and b.head in env:
            b = env[b.head]
        if b.args is None:
            a, b = b, a
        if a is b:
            continue
        if a.args is not None:
            if a.head != b.head or len(a.args) != len(b.args):
                return False
            pairs.extend(zip(a.args, b.args))
            continue
        stack = [b]  # a variable bound to a formula containing it
        while stack:
            t = stack.pop()
            if t.args is not None:
                stack.extend(t.args)
            elif t.head == a.head:
                return False
            elif t.head in env:
                stack.append(env[t.head])
        env[a.head] = b
    return True


class _Built(dict):
    """The tables of _build_instances without a universe: a lookup that
    misses numbers the formula it names, or makes the row, and returns it.
    The top level (head None) is keyed by (connective, arity), a row by the
    id of its connective's next argument."""

    def get(self, key, default=None):
        return self[key]

    def __init__(self, formulas, head=None, arity=0, prefix=()):
        super().__init__()
        self.formulas, self.head, self.arity, self.prefix = formulas, head, arity, prefix

    def __missing__(self, key):
        head, arity, args = self.head, self.arity, self.prefix + (key,)
        if head is None:
            (head, arity), args = key, ()
        if len(args) < arity:
            made = _Built(self.formulas, head, arity, args)
        else:
            made = len(self.formulas)
            self.formulas.append(app(head, *[self.formulas[i] for i in args]))
        self[key] = made
        return made


@lru_cache(maxsize=64)
def _sound(rules, models):
    """Whether every rule holds in the models; a rule with a connective
    they do not interpret does not."""
    try:
        return all(
            isinstance(semantics.check_rule_soundness(r, models), Holds)
            for r in rules
        )
    except SignatureMismatch:
        return False


def _build_instances(calc, targets, universe):
    """Ground every rule by mapping its variables into `targets` (a subset
    of `universe`, when given); keep an instance only if all of its
    formulas stay inside the universe, and return them as a _Ground.
    Grounding runs on ids and interns no formula then: the universe, then
    the rest of its subformula closure, is numbered, with one table per
    connective and arity: a constant's is its id, a unary connective's maps
    an argument id to an id, and a binary one's the first argument's id to
    a row that maps the second's to an id.  The generated loops (see
    _compiled_rule) drop a prefix whose subterm is missing, since it lies
    outside the universe.  A rule with a connective and arity that heads
    no numbered formula has no instance, and is skipped before it is
    compiled.  Without a universe the tables are _Built, whose lookups
    build and number a missing subterm.  Assignments come out in product
    order, and each kept instance emits its clause straight from the ids."""
    formulas = sorted(targets if universe is None else universe, key=canon_key)
    ids = {f: i for i, f in enumerate(formulas)}
    build = universe is None
    tables = _Built(formulas) if build else {}
    for i, f in enumerate(formulas):  # also visits the closure appended
        if f.args is None:
            continue
        node, key = tables, (f.head, len(f.args))
        for a in f.args:
            if a not in ids:
                ids[a] = len(formulas)
                formulas.append(a)
            node, key = node[key] if build else node.setdefault(key, {}), ids[a]
        node[key] = i
    size = float("inf") if build else len(universe)
    tids = [ids[t] for t in targets]
    out = _Ground(targets, formulas)
    seen = set()
    add, emit = seen.add, out.clauses.append
    has, table = tables.__contains__, tables.__getitem__
    for rule in calc.rules:
        heads = _rule_heads(rule)
        if not build and not all(map(has, heads)):
            continue
        vs, ground = _compiled_rule(rule)
        out.rule_variables[rule.name] = vs
        ground(tids, size, seen, add, emit, out.append, rule.name, *map(table, heads))
    return out


def _single_valued(models):
    """The compiled algebra of each model, or None when a model's tables
    keep other than one value at some entry."""
    compiled = [kernel.compiled(m.algebra) for m in models]
    if any(k.single_valued(k.all) is None for k in compiled):
        return None
    return compiled


def _interprets(models, formulas):
    """Whether every model interprets every connective of the formulas at
    the arity it is applied with."""
    try:
        for m in models:
            kernel.check_signature(m.algebra, formulas)
    except SignatureMismatch:
        return False
    return True


def _model_truths(calc, base, formulas):
    """Per formula, the truth rows where it is designated, as a bitmask: a
    row is a (deterministic model, assignment to the variables of base)
    pair, and each model's rows follow the previous models' rows.  Used to
    steer branch selection; None without models, when a model is not
    single-valued or does not interpret every formula and subformula, or
    when all models' rows together are more than one kernel chunk."""
    models = calc.models
    compiled = models and _single_valued(models)
    if not compiled:
        return None
    vs = [var(v) for v in sorted(variables(base))]
    if sum(k.n ** len(vs) for k in compiled) > kernel.CHUNK:
        return None
    # a row is computed from the rows of every subformula
    if not _interprets(models, subformulas(formulas)):
        return None
    masks = dict.fromkeys(formulas, 0)
    # one Bitsets per algebra, read by every model over it
    shared = {}
    shift = 0
    for m, k in zip(models, compiled):
        bitsets = shared.get(k)
        if bitsets is None:
            # at most CHUNK assignments: one bitset covers them all
            digits = [tuple(range(k.n))] * len(vs)
            bitsets = shared[k] = kernel.Bitsets(k.single_valued(k.all), k.n, vs, digits)
        des = k.mask_of(m.designated)
        for f in formulas:
            masks[f] |= bitsets.where(f, des) << shift
        shift += bitsets.size
    return masks


class _Searcher:
    """Depth-first search for a proof tree from ground instances, built top
    down in one work-list loop and never backtracking.  Each node first
    applies the applicable instances with at most one succedent formula,
    one unit step per child, then branches on the one candidate that phase
    2 picks.  When a branch saturates (no instance left to apply), its label
    satisfies every instance with the premises true and the goal false, so
    no tree over these instances exists: saturated is set and the search
    ends.

    The search runs on bitsets: the instances' formulas are numbered, a
    label is an int with the bits of its formulas, and instance i applies
    to a label when ant[i] & ~label and succ[i] & label are both 0.

    Closed subtrees are reused (global caching, Goré & Nguyen, TABLEAUX
    2007, keyed on the formulas used as in Horrocks & Patel-Schneider, JLC
    1999).  When a branch child's subtree closes, the formulas of its label
    that the subtree's steps use (needed: the antecedents applied in it,
    less the formulas added in it) and those added in it are kept.  A later
    branch child whose label holds every needed formula and no added one
    closes by the same steps, so it takes that child's rule, substitution
    and children list instead of a search; reused counts such children.
    The tree is then a DAG whose unfolding is a tree.  An entry is filed
    under each of its needed formulas, and a child looks only under its own
    branch formula.

    Growing the top of a subtree (the root or a branch child) puts an end
    marker on the work list below the children the subtree branches into,
    so the marker comes off once all of them have closed, or at once when
    the top's unit steps close it.  The subtree's record, on the path of
    open records, holds its top, the antecedents applied in it, the
    formulas added below its top and the node count before it.  At the
    marker the subtree is filed, and its antecedents and added formulas
    join its parent's record."""

    def __init__(self, instances, goal, budget, truths=None):
        self.budget = budget
        self.truths = truths
        self.steps = 0
        self.nodes = 0
        self.reused = 0
        self.saturated = False
        self.names = [i[0] for i in instances]
        self.substs = [i[1] for i in instances]
        self.number = {}
        self.formulas = []
        # per antecedent bit, the instances with at most one succedent
        # formula, which phase 1 applies
        self.by_ant = []
        self.ant = []
        self.succ = []
        self.succ_sorted = []
        for idx, (_, _, ant, succ) in enumerate(instances):
            ant = [self._bit(f) for f in ant]
            succ = [self._bit(f) for f in sorted(succ, key=canon_key)]
            self.ant.append(sum(1 << b for b in ant))
            self.succ.append(sum(1 << b for b in succ))
            self.succ_sorted.append(succ)
            if len(succ) < 2:
                for b in ant:
                    self.by_ant[b].append(idx)
        self.units = [i for i, s in enumerate(self.succ_sorted) if len(s) < 2]
        self.branching = [i for i, s in enumerate(self.succ_sorted) if len(s) > 1]
        # per number: the formula as a node's adds, and whether it is a
        # goal formula
        self.adds = [frozenset({f}) for f in self.formulas]
        self.in_goal = [f in goal for f in self.formulas]

    def _bit(self, f):
        b = self.number.get(f)
        if b is None:
            b = self.number[f] = len(self.formulas)
            self.formulas.append(f)
            self.by_ant.append([])
        return b

    def run(self, premises):
        """The proof tree of premises that do not meet the goal, or None
        when the budget ran out or a branch saturated.  nodes counts the
        tree's nodes, unfolded, and stays 0 without a tree; steps counts
        the searched steps only, so a reused subtree costs no budget."""
        ants, succs, adds, in_goal = self.ant, self.succ, self.adds, self.in_goal
        label = 0
        for f in premises:
            if f in self.number:
                label |= 1 << self.number[f]
        # the truth rows designating every formula of the label, carried
        # down the tree: -1 (every row) for an empty label, and 0 without
        # truth rows, where every formula's rows are 0 too
        alive, rows = 0, [0] * len(self.formulas)
        if self.truths is not None:
            alive = -1
            for f in premises:
                alive &= self.truths[f]
            rows = [self.truths[f] for f in self.formulas]
        root = TreeNode(frozenset(premises))
        nodes = 1
        # per formula bit, the closed subtrees (needed, added, nodes below
        # the top, top) whose needed formulas include it
        cache = [[] for _ in self.formulas]
        # the records of the open subtrees on the path to the node grown,
        # the root's parent first: the subtree's top, the bits of the
        # antecedents applied in it and of the formulas added below its
        # top, and the node count before its top was grown
        path = [[None, 0, 0, 0]]
        # a node to grow, the bit of the formula it adds to its parent's
        # label (none for the root), that label and its truth rows; or
        # None, the end marker of the subtree of path[-1]
        work = [(root, -1, label, alive)]
        while work:
            item = work.pop()
            if item is None:
                top, used, added, before = path.pop()
                needed = used & ~added
                entry = (needed, added, nodes - before, top)
                while needed:
                    low = needed & -needed
                    cache[low.bit_length() - 1].append(entry)
                    needed ^= low
                path[-1][1] |= used
                path[-1][2] |= added
                continue
            node, b, label, alive = item
            if b < 0:
                queue = self.units[:]
            else:
                label |= 1 << b
                for needed, added, below, top in cache[b]:
                    if not needed & ~label and not added & label:
                        node.rule, node.subst = top.rule, top.subst
                        node.children = top.children
                        nodes += below
                        self.reused += 1
                        path[-1][1] |= needed
                        path[-1][2] |= added
                        break
                if node.children:  # taken from a closed subtree
                    continue
                alive &= rows[b]
                queue = self.by_ant[b][:]
            top, start, used, before = node, label, 0, nodes
            work.append(None)
            self.steps += 1
            if self.steps > self.budget:
                return None
            # phase 1: close under the applicable unit instances
            while queue:
                i = queue.pop()
                if succs[i] & label or ants[i] & ~label:
                    continue
                node.rule, node.subst = self.names[i], self.substs[i]
                used |= ants[i]
                nodes += 1
                succ = self.succ_sorted[i]
                if not succ:
                    node.children = [TreeNode(star=True)]
                    break
                b = succ[0]
                label |= 1 << b
                alive &= rows[b]
                queue += self.by_ant[b]
                node.children = [TreeNode(adds[b])]
                node = node.children[0]
                self.steps += 1
                if self.steps > self.budget:
                    return None
                if in_goal[b]:
                    node.closed = True
                    break
            path.append([top, used, label & ~start, before])
            if node.closed or node.children:
                continue
            # phase 2: branch on the candidate first in order of its
            # children that some truth row of the label still designates (a
            # child no row designates should close), those children's row
            # weight, the formulas it adds, and its index; without truth
            # rows, or with no row left, the first two are 0
            candidates = [
                i for i in self.branching
                if not ants[i] & ~label and not succs[i] & label
            ]
            if not candidates:
                self.saturated = True
                return None
            weight = {}

            def w(b):
                got = weight.get(b)
                if got is None:
                    got = (alive & rows[b]).bit_count() if alive else 0
                    weight[b] = got
                return got

            def score(i):
                succ = self.succ_sorted[i]
                weights = [w(b) for b in succ if not in_goal[b] and w(b)]
                return (len(weights), sum(weights), len(succ), i)

            best = min(candidates, key=score)
            node.rule, node.subst = self.names[best], self.substs[best]
            succ = self.succ_sorted[best]
            node.children = [TreeNode(adds[b], closed=in_goal[b]) for b in succ]
            nodes += len(succ)
            path[-1][1] |= ants[best]
            path[-1][2] |= succs[best]
            # reversed, so that the first open child is grown first
            for child, b in zip(node.children[::-1], succ[::-1]):
                if not child.closed:
                    work.append((child, b, label, alive))
        self.nodes = nodes
        return root


def prove(calc, premises, goal, budget_nodes=1_000_000):
    """Proved with a derivation tree, Refuted with a saturated partition,
    Inconclusive, or OutOfBudget; `stats` records the route and its work.
    Premises that meet the goal close the root at once, on every route.

    A calculus with models first checks the sequent on them (see
    _refute_on_models): a valuation that designates the premises and no
    goal formula, on a calculus sound for its models, is returned at once
    as the Refuted on route "model", carrying that valuation as its
    countermodel, before any grounding, analyticity set or none.  Its
    valuations count against no budget.

    Every other sequent is decided as a clause set: each ground instance Γ ▷ Δ is
    the clause ¬Γ ∨ Δ, premises are true and goal formulas false, so the
    models are exactly the saturated partitions.  The rules' variables range
    over the subformulas of the sequent; with an analyticity set an
    instance must also stay inside the universe.  A model is then the
    refutation (Ω its true formulas) when the calculus's models interpret
    every connective of the sequent, and Inconclusive otherwise, since no
    countermodel exists.  Without an analyticity set a model is always
    Inconclusive: it shows only that these instances do not derive the
    sequent, and the calculus may derive it through other formulas.
    Unsatisfiable, the core the solver used is shrunk until every instance
    in it is needed, and the proof tree is searched over those instances
    only.  The solver's assignments and the search's steps
    share budget_nodes; a decided sequent whose tree does not fit stays
    OutOfBudget.

    A calculus made by to_set_fmla_calculus from an analytic source is
    never decided itself: the source's Set-Set proof of the goal is
    replayed with the disjunction rules, and the source's refutation is
    passed on.  With a non-analytic source the replay is only tried after
    the calculus's own clause set, since the source may be unable to break
    up a premise that the disjunction rules can; the source's refutation
    is passed on then too, and the answer is Inconclusive when both are."""
    premises = frozenset(premises)
    goal = frozenset(goal)
    if calc.framework == SET_FMLA and len(goal) != 1:
        raise FrameworkMismatch("Set-Fmla proving needs exactly one goal formula")
    if premises & goal:
        stats = ProveStats("closed", None, 0, nodes=1)
        return Proved(TreeNode(premises, closed=True), stats)
    if calc.source is not None and calc.source.xi is not None:
        return _prove_by_simulation(calc, premises, goal, budget_nodes)
    base = premises | goal
    targets = sorted(subformulas(base), key=canon_key)
    res, valuations = _refute_on_models(calc, premises, goal, targets, budget_nodes)
    if res is not None:
        return res
    universe = None
    if calc.xi is not None:
        universe = frozenset(generalized_subformulas(base, calc.xi))
    ground = _build_instances(calc, targets, universe)
    res = _decide(calc, premises, goal, universe, ground, budget_nodes, valuations)
    if calc.source is None or isinstance(res, Proved):
        return res
    replayed = _prove_by_simulation(calc, premises, goal, budget_nodes)
    if isinstance(replayed, (Proved, Refuted)):
        return replayed
    if isinstance(res, Inconclusive) and isinstance(replayed, Inconclusive):
        return res
    return OutOfBudget(res.stats)


def _refute_on_models(calc, premises, goal, targets, budget_nodes):
    """The refutation of a sequent by a valuation of the calculus's models,
    or None, and the number of valuations the check decided (0 when it was
    skipped).  The check runs when the models interpret the sequent, when
    their valuations of its variables fit budget_nodes, and when every
    model is single-valued: checking one that is not searches valuations
    one at a time, and every sequent the calculus proves would pay that
    search.  A witness refutes when every rule holds in the models.  It is
    a valuation of Λ = targets, the sequent's subformulas, and Ω the
    formulas of Λ it designates, closed under every ground instance inside
    Λ since every rule keeps designation."""
    models = calc.models
    compiled = models and _single_valued(models)
    if not compiled:
        return None, 0
    vs = [f for f in targets if f.is_var]
    if sum(k.n ** len(vs) for k in compiled) > budget_nodes:
        return None, 0
    if not _interprets(models, targets):
        return None, 0
    res = semantics.check_consequence(ConsequenceProblem(models, premises, goal))
    valuations = res.stats.assignments
    if isinstance(res, Holds) or not _sound(tuple(calc.rules), tuple(models)):
        return None, valuations
    m = models[res.matrix_index]
    lam = frozenset(targets)
    omega = frozenset(f for f, v in res.witness.items() if v in m.designated)
    part = SaturatedPartition(omega, lam - omega, premises | goal, lam)
    stats = ProveStats("model", len(lam), 0, valuations=valuations)
    return Refuted(part, stats, (m, res.witness)), valuations


def _decide(calc, premises, goal, universe, ground, budget_nodes, valuations=0):
    """Solve the clause set of a sequent's ground instances; search for the
    proof tree over a minimal unsatisfiable core.  The clauses are the
    instances' own, on ids that are the SAT variables (the universe's
    formulas, or every numbered formula without a universe), in the
    instances' order, so runs repeat; the premises' and goal's unit clauses
    follow.  Only the core's instances are turned back into formulas.
    valuations is the count of the check on the models before, for the
    stats."""
    from . import sat

    order = ground.formulas
    if universe is not None:
        order = order[:len(universe)]
    clauses = ground.clauses + [
        [2 * i] for i, f in enumerate(order) if f in premises
    ]
    clauses += [[2 * i + 1] for i, f in enumerate(order) if f in goal]
    out = sat.solve(len(order), clauses, budget_nodes)
    stats = ProveStats(
        "cdcl", None if universe is None else len(universe), len(ground),
        out.assignments, out.conflicts, valuations=valuations,
    )
    base = premises | goal
    if out.model is not None:
        # without analyticity a model of these instances is no countermodel
        if universe is None or not _interprets(calc.models or (), ground.targets):
            return Inconclusive(stats)
        omega = frozenset(f for f, true in zip(order, out.model) if true)
        return Refuted(
            SaturatedPartition(omega, universe - omega, base, universe), stats
        )
    if out.core is None:
        return OutOfBudget(stats)
    # a smaller core leaves the search fewer instances to branch on
    least = sat.minimize(
        clauses, out.core, len(ground), budget_nodes - out.assignments
    )
    stats = replace(
        stats,
        assignments=out.assignments + least.assignments,
        conflicts=out.conflicts + least.conflicts,
    )
    if least.core is None:
        return OutOfBudget(stats)
    core = [ground.instance(i) for i in least.core if i < len(ground)]
    # rows only for what the search can look up: the premises and the
    # formulas of the core's instances
    read = set(premises)
    for _, _, ant, succ in core:
        read |= ant | succ
    truths = _model_truths(calc, base, read)
    searcher = _Searcher(core, goal, budget_nodes - stats.assignments, truths)
    tree = searcher.run(premises)
    # a label closed under the core's instances would satisfy the core
    assert not searcher.saturated
    stats = replace(
        stats, core=len(core), steps=searcher.steps, nodes=searcher.nodes,
        reused=searcher.reused,
    )
    return OutOfBudget(stats) if tree is None else Proved(tree, stats)


def _or_spine(f):
    parts = []
    while not f.is_var and f.head == "or":
        parts.append(f.args[0])
        f = f.args[1]
    parts.append(f)
    return parts


def _prove_by_simulation(calc, premises, goal, budget_nodes):
    """Prove the one goal formula g of a transformed calculus by replaying
    the source's Set-Set proof of it: of g's disjuncts when g is their
    sorted disjunction, else of g itself.  The proof is condensed, then
    replayed (see _Simulation) as a chain of Set-Fmla steps, whose nodes
    stats counts under route "replay"; the source's last answer is passed
    on when neither is proved."""
    (g,) = goal
    splits = []
    parts = _or_spine(g)
    if len(parts) > 1:
        psis = frozenset(parts)
        if big_or(sorted(psis, key=canon_key)) is g:
            splits.append(psis)
    splits.append(frozenset({g}))
    for psis in splits:
        res = prove(calc.source, premises, psis, budget_nodes)
        if isinstance(res, Proved):
            spec = _condense(calc.source, res.tree, psis)
            steps = _Simulation(calc, calc.source, psis).run(spec, premises)
            stats = replace(res.stats, route="replay", nodes=len(steps) + 1)
            return Proved(_chain_tree(premises, steps), stats)
    # the last attempt had the goal {g}: the source refuting it refutes g
    return replace(res, stats=replace(res.stats, route="replay"))


def _condense(calc, tree, goal):
    """Prune a derivation tree to the steps it actually uses: drop
    expansions whose succedent formula is never consumed and replace a
    branch by any child that ignores its branch formula.  Returns the
    root's spec, a nested tuple: ("closed", goal formula), ("star", rule,
    subst, antecedent) or ("rule", rule, subst, antecedent, kids), where
    kids maps each branch formula to its branch's (spec, needed, leaves):
    needed holds the formulas of the branch's label that its steps use and
    leaves counts its closed leaves.  A node shared by several parents is
    condensed once: results keeps each node's spec under its id."""
    rules = {r.name: r for r in calc.rules}
    results = {}
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            if id(node) in results:
                continue
            if not node.children:
                # a closed leaf adds its goal formula, or it is the root
                # and its premises meet the goal
                pick = min(node.adds & goal, key=canon_key)
                results[id(node)] = (("closed", pick), frozenset({pick}), 1)
                continue
            if len(node.children) == 1 and node.children[0].star:
                rule = rules[node.rule]
                ant = frozenset(
                    substitute(f, node.subst) for f in rule.antecedent
                )
                results[id(node)] = (("star", node.rule, node.subst, ant), ant, 0)
                continue
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
            continue
        rule = rules[node.rule]
        ant = frozenset(substitute(f, node.subst) for f in rule.antecedent)
        kids = {}
        shortcut = None
        for child in node.children:
            (phi,) = child.adds
            kids[phi] = results[id(child)]
            if phi not in kids[phi][1] and shortcut is None:
                # the branch formula went unused: splice the child in
                shortcut = kids[phi]
        if shortcut is not None:
            results[id(node)] = shortcut
            continue
        needed = ant.union(*(n - {phi} for phi, (_, n, _) in kids.items()))
        leaves = sum(k[2] for k in kids.values())
        results[id(node)] = (
            ("rule", node.rule, node.subst, ant, kids), needed, leaves
        )
    return results[id(tree)][0]


class _Simulation:
    """Replays a condensed Set-Set derivation of Phi |> Psi as a chain of
    Set-Fmla steps deriving G, the disjunction of Psi, with the four base
    rules and the transformed source rules.

    Each branch has a context: a disjunction C that contains G, with the
    levels that built it from G, each a disjunct w put before (w | C') or
    after (C' | w) the context C' below it.  The root's context is G, and
    a branch's target is its context itself.  amap maps each formula chi
    that the branch needs, premises aside, to a derived chi | C; a premise
    is weakened into chi | C by one or_intro where it is used.

    A rule step derives (w1 | ... | wn) | C.  At a split (w1 | R) | C one
    side keeps C and its needed formulas as they are; the other gets C
    with one more disjunct, w1's side R | C or R's side C | w1, and only
    its needed formulas are lifted, once each.  C stays on the side whose
    lifts and closed leaves would cost more steps.  A closed leaf g | C
    weakens g into G at the head, rebuilds C's levels around it and
    contracts C | C.  _walk and _split are generators, driven by the loop
    in run, so that a deep derivation does not recurse in Python."""

    def __init__(self, rv, source, psis):
        self.rules = {r.name: r for r in rv.rules}
        self.src_rules = {r.name: r for r in source.rules}
        self.s_name = _fresh_variable(source)
        self.goal_parts = sorted(psis, key=canon_key)
        self.big_goal = big_or(self.goal_parts)
        self.steps = []
        self.derived = set()

    # -- primitive steps ---------------------------------------------------
    def _emit(self, phi, rule, subst):
        if phi not in self.derived:
            self.derived.add(phi)
            self.steps.append((phi, rule, subst))
        return phi

    def _intro(self, x, e):
        return self._emit(app("or", x, e), "or_intro", {"p": x, "q": e})

    def _comm(self, f):
        x, y = f.args
        return self._emit(app("or", y, x), "or_comm", {"p": x, "q": y})

    def _assoc(self, f):
        x, rest = f.args
        y, z = rest.args
        return self._emit(
            app("or", app("or", x, y), z),
            "or_assoc",
            {"p": x, "q": y, "r": z},
        )

    def _contract(self, f):
        x = f.args[0]
        return self._emit(x, "or_contr", {"p": x})

    def _unassoc(self, f):
        # (x | y) | z  yields  x | (y | z) by cycling at the root
        f = self._comm(f)
        f = self._assoc(f)
        f = self._comm(f)
        f = self._assoc(f)
        return self._comm(f)

    # -- derived rearrangements --------------------------------------------
    def _lift(self, f, w, after):
        # x | C  yields  x | (C | w) when after, else x | (w | C)
        if after:
            return self._unassoc(self._intro(f, w))
        f = self._comm(self._intro(self._comm(f), w))
        return self._comm(self._assoc(f))

    def _grow(self, f, w, after):
        # X | C  yields  (X | w) | C when after, else (w | X) | C
        if after:
            return self._assoc(self._lift(f, w, False))
        return self._assoc(self._comm(self._intro(f, w)))

    def _have(self, amap, chi, c):
        # chi | C, from amap or, for a premise, by weakening
        f = amap.get(chi)
        return self._intro(chi, c) if f is None else f

    # -- the replay ----------------------------------------------------------
    def run(self, spec, premises):
        """The chain's (formula, rule, substitution) steps, up to the one
        that derives G."""
        self.derived = set(premises)
        goal = self.big_goal
        stack = [self._walk(spec, (goal, ()), {})]
        while stack:
            try:
                stack.append(stack[-1].send(None))
            except StopIteration:
                stack.pop()
        steps = self.steps
        for i, (phi, _, _) in enumerate(steps):
            if phi is goal:
                return steps[: i + 1]

    def _walk(self, spec, ctx, amap):
        """Derive the context C of ctx = (C, levels), given amap for the
        formulas spec needs.  Yields the generators of the sub-walks, which
        run finishes first; a C already derived needs nothing."""
        c, levels = ctx
        if c in self.derived:
            return
        kind = spec[0]
        if kind == "closed":
            g = spec[1]
            f = self._have(amap, g, c)
            gs = self.goal_parts
            j = gs.index(g)
            if j + 1 < len(gs):
                f = self._grow(f, big_or(gs[j + 1 :]), True)
            for w in reversed(gs[:j]):
                f = self._grow(f, w, False)
            for w, after in levels:
                f = self._grow(f, w, after)
            self._contract(f)
            return
        name, subst, ant = spec[1:4]
        for chi in sorted(ant, key=canon_key):
            self._have(amap, chi, c)
        if kind == "star":
            self._emit(c, name + "_v", {**subst, self.s_name: c})
            return
        kids = spec[4]
        if name + "_v" not in self.rules:
            # an axiom kept verbatim by the transform
            ((psi, (kid, _, _)),) = kids.items()
            self._emit(psi, name, subst)
            yield self._walk(kid, ctx, {**amap, psi: self._intro(psi, c)})
            return
        full = {**subst, self.s_name: c}
        (rule_succ,) = self.rules[name + "_v"].succedent
        f = self._emit(substitute(rule_succ, full), name + "_v", full)
        ws = [
            substitute(s, subst)
            for s in sorted(self.src_rules[name].succedent, key=canon_key)
        ]
        yield from self._split(ws, kids, f, ctx, amap)

    def _split(self, ws, kids, f, ctx, amap):
        """Derive C from a derived f = W | C, W the disjunction of ws, with
        kids[w] the (spec, needed, leaves) of w's branch."""
        if len(ws) == 1:
            (w,) = ws
            yield self._walk(kids[w][0], ctx, {**amap, w: f})
            return
        levels = ctx[1]
        w, rest = ws[0], ws[1:]
        spec, needed, leaves = kids[w]
        head = sorted(amap.keys() & (needed - {w}), key=canon_key)
        tail = amap.keys() & frozenset().union(*(kids[x][1] - {x} for x in rest))
        tail = sorted(tail, key=canon_key)
        tail_leaves = sum(kids[x][2] for x in rest)
        # steps to give w's side R | C, against R's side C | w
        if 5 + 5 * len(head) + 3 * leaves <= 4 + 6 * len(tail) + 6 * tail_leaves:
            r = f.args[0].args[1]
            f = self._unassoc(f)
            inner = (f.args[1], levels + ((r, False),))
            sub = {chi: self._lift(amap[chi], r, False) for chi in head}
            yield self._walk(spec, inner, {**sub, w: f})
            # that walk derived R | C
            yield from self._split(rest, kids, inner[0], ctx, amap)
        else:
            f = self._comm(self._assoc(self._comm(f)))
            inner = (f.args[1], levels + ((w, True),))
            sub = {chi: self._lift(amap[chi], w, True) for chi in tail}
            yield from self._split(rest, kids, f, inner, sub)
            # that split derived C | w
            yield self._walk(spec, ctx, {**amap, w: self._comm(inner[0])})


def _chain_tree(premises, steps):
    root = node = TreeNode(frozenset(premises))
    for phi, rule, subst in steps:
        child = TreeNode(frozenset({phi}))
        node.rule = rule
        node.subst = subst
        node.children = [child]
        node = child
    node.closed = True
    return root


def validate_tree(calc, tree, premises, goal):
    """None if the tree derives goal from premises, else the first node
    found at fault.  One label set serves the whole walk: a node's adds
    join it on entry and leave it on exit, and every child is checked to
    add exactly one new formula before it is entered.  A leaf must be
    closed, with a goal formula in its label.  A star node is legal only as
    the one child of a step whose instance has no succedent formula: that
    step checks it and does not enter it.  A shared subtree is
    checked once per path to it, in the label of that path, so the walk
    covers the tree's unfolding.

    Nodes made from one ground instance share its substitution dict, so a
    dict's substituted sides are kept under its id once a second node
    uses it, and reused while the entry holds that very dict and rule.  A
    dict used once, as each step of a Set-Fmla replay chain has, is not
    kept."""
    premises = frozenset(premises)
    goal = frozenset(goal)
    rules = {r.name: r for r in calc.rules}
    if not tree.adds <= premises:
        return tree
    sides = {}
    used = set()
    label = set()
    stack = [(tree, False)]
    while stack:
        node, leaving = stack.pop()
        if leaving:
            label -= node.adds
            continue
        label |= node.adds
        stack.append((node, True))
        if not node.children:
            if node.closed and not label.isdisjoint(goal):
                continue
            return node
        rule = rules.get(node.rule)
        if rule is None:
            return node
        subst = node.subst
        hit = sides.get(id(subst))
        if hit is not None and hit[0] is subst and hit[1] is rule:
            ant, succ = hit[2], hit[3]
        else:
            ant = frozenset(substitute(f, subst) for f in rule.antecedent)
            succ = frozenset(substitute(f, subst) for f in rule.succedent)
            if id(subst) in used:
                sides[id(subst)] = (subst, rule, ant, succ)
            else:
                used.add(id(subst))
        if not ant <= label:
            return node
        if not succ:
            kids = node.children
            if len(kids) != 1 or not kids[0].star or kids[0].adds:
                return node
            continue
        expected = {phi for phi in succ if phi not in label}
        if len(node.children) != len(expected):
            return node
        for child in node.children:
            if len(child.adds) != 1 or not child.adds <= expected:
                return node
            expected -= child.adds
            stack.append((child, False))
    return None


# --- countermodel extraction ---------------------------------------------

VARIANT_UP = "up"
VARIANT_LEQ = "leq"


def countermodel(models, part):
    """The matrix and valuation that realize a saturated partition: on the
    first of models that has one, the lowest-ranked valuation designating
    exactly Ω's formulas in Λ = sub(base), which check_consequence finds as
    the witness against Ω ∩ Λ ⊢ Λ ∖ Ω.  Raises ClassificationError when no
    model realizes the partition."""
    lam = subformulas(part.base)
    res = check_consequence(
        ConsequenceProblem(models, part.omega & lam, lam - part.omega)
    )
    if isinstance(res, Holds):
        raise ClassificationError("no model realizes the saturated partition")
    return models[res.matrix_index], res.witness


def countermodel_from_partition(part, variant):
    """A PP6⇒H valuation on Λ realizing an r-up or r-leq partition, and the
    value a whose principal filter designates it: a countermodel on the
    calculus's models, so for the `leq` variant a is never t."""
    from .registry import MAT_PP6H, VARIANT_CLASS

    if variant not in VARIANT_CLASS:
        raise ValueError("variant must be %r or %r" % (VARIANT_UP, VARIANT_LEQ))
    m, valuation = countermodel(VARIANT_CLASS[variant], part)
    return valuation, next(a for a, x in MAT_PP6H.items() if x is m)


# --- Set-Fmla transform --------------------------------------------------

def _fresh_variable(calc):
    used = set()
    for r in calc.rules:
        used |= variables(r.antecedent | r.succedent)
    # shortest first, then lexicographic
    import itertools
    import string

    for length in itertools.count(1):
        for letters in product(string.ascii_lowercase, repeat=length):
            name = "".join(letters)
            if name not in used:
                return name


def to_set_fmla_calculus(calc):
    if calc.framework != SET_SET:
        raise FrameworkMismatch("%s is not a Set-Set calculus" % calc.name)
    for m in calc.models or ():
        if "or" not in m.algebra.interp:
            raise MissingDisjunction("%s does not interpret or" % m.name)
    p, q, r = var("p"), var("q"), var("r")
    base = [
        Rule("or_intro", frozenset({p}), frozenset({app("or", p, q)})),
        Rule(
            "or_comm",
            frozenset({app("or", p, q)}),
            frozenset({app("or", q, p)}),
        ),
        Rule(
            "or_assoc",
            frozenset({app("or", p, app("or", q, r))}),
            frozenset({app("or", app("or", p, q), r)}),
        ),
        Rule("or_contr", frozenset({app("or", p, p)}), frozenset({p})),
    ]
    s = var(_fresh_variable(calc))
    out = list(base)
    for rule in calc.rules:
        ant = sorted(rule.antecedent, key=canon_key)
        succ = sorted(rule.succedent, key=canon_key)
        if not ant and len(succ) == 1:
            out.append(Rule(rule.name, rule.antecedent, rule.succedent))
        elif not succ:
            out.append(
                Rule(
                    rule.name + "_v",
                    frozenset(app("or", f, s) for f in ant),
                    frozenset({s}),
                )
            )
        else:
            out.append(
                Rule(
                    rule.name + "_v",
                    frozenset(app("or", f, s) for f in ant),
                    frozenset({app("or", big_or(succ), s)}),
                )
            )
    return Calculus(calc.name + "-v", out, None, SET_FMLA, source=calc)


# --- proof-tree export ---------------------------------------------------

def _label_text(label):
    return ", ".join(render_formula(f) for f in sorted(label, key=canon_key))


def _subst_text(subst):
    if not subst:
        return ""
    return "; ".join(
        "%s:=%s" % (k, render_formula(v)) for k, v in sorted(subst.items())
    )


def _flatten(tree):
    """The tree's nodes in breadth-first order, root first, and per node
    the range of its children's positions in that order."""
    order, kids = [tree], []
    for node in order:
        kids.append(range(len(order), len(order) + len(node.children)))
        order += node.children
    return order, kids


def tree_to_dot(tree):
    """Graphviz text with one box per node, showing the formulas the node
    adds, and one edge per child, labelled with the parent's rule step."""
    lines = ["digraph proof {", '  node [shape=box, fontname="monospace"];']
    order, kids = _flatten(tree)
    for i, node in enumerate(order):
        text = "*" if node.star else _label_text(node.adds)
        if node.closed:
            text += "  [closed]"
        lines.append('  n%d [label="%s"];' % (i, text.replace('"', "'")))
        if node.children:
            edge = node.rule or ""
            st = _subst_text(node.subst)
            if st:
                edge += " @ " + st
            edge = edge.replace('"', "'")
            for c in kids[i]:
                lines.append('  n%d -> n%d [label="%s"];' % (i, c, edge))
    lines.append("}")
    return "\n".join(lines)


def tree_to_json(tree):
    """The tree as flat JSON data: "label" is the root's label, its
    premises, and "nodes" lists every node, root first, each with the
    formulas it adds, its rule step and the positions of its children in
    the list.  A node's label is the union of adds on its path."""
    order, kids = _flatten(tree)
    nodes = []
    for node, children in zip(order, kids):
        out = {"adds": sorted(render_formula(f) for f in node.adds)}
        if node.star:
            out["star"] = True
        if node.closed:
            out["closed"] = True
        if node.rule:
            out["rule"] = node.rule
            out["substitution"] = {
                k: render_formula(v) for k, v in sorted((node.subst or {}).items())
            }
        if children:
            out["children"] = list(children)
        nodes.append(out)
    return {"label": nodes[0]["adds"], "nodes": nodes}
