"""A small deterministic CDCL solver that reports an unsatisfiable core.

Variables are ``0..n-1``; literal ``2*v`` says v is true and ``2*v + 1``
that it is false.  The solver follows Eén & Sörensson, *An extensible
SAT-solver* (MiniSat, SAT 2003): two watched literals per clause, 1UIP
conflict analysis and decisions by variable activity, each decision trying
"false" first.  There are no restarts and no clause deletion.  Ties in
activity go to the lowest variable, so a run depends only on the input.

Each learnt clause remembers the clauses it was resolved from and the
level-0 variables whose literals analysis dropped.  An unsatisfiable answer
walks these back from the final conflict to the input clauses it used,
after Zhang & Malik, *Extracting small unsatisfiable cores from
unsatisfiable Boolean formulas* (SAT 2003).  ``minimize`` shrinks such a
core by deletion, and rotates the model of each satisfiable trial to find
further needed clauses without solving for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

_DECAY = 1 / 0.95


@dataclass(frozen=True)
class Outcome:
    """``model`` (a bool per variable) when the clauses are satisfiable,
    ``core`` (sorted input clause indices) when they are not, neither when
    the assignments ran past the budget.  ``assignments`` counts decisions
    and implied literals."""

    model: list = None
    core: list = None
    assignments: int = 0
    conflicts: int = 0


def solve(nvars, clauses, budget):
    """Decide a list of clauses (lists of literals, no variable twice in a
    clause, which grounding guarantees) within ``budget`` assignments."""
    solver = _Solver(nvars, clauses)
    out = solver.run(budget)
    if solver.assignments > budget:
        out = None
    model, core = out if out else (None, None)
    return Outcome(model, core, solver.assignments, solver.conflicts)


def minimize(clauses, core, droppable, budget):
    """Shrink an unsatisfiable core (sorted indices into ``clauses``) until
    leaving out any of its clauses below index ``droppable`` makes it
    satisfiable.  Each such clause in turn is left out, and an
    unsatisfiable rest is cut to its own core.  A satisfiable rest's model
    is rotated (see _rotate): every clause the rotation shows to be needed
    is kept later without a solve, since a clause needed in a core stays
    needed in every smaller core that holds it.  So the core is the one
    deletion alone would find, with fewer assignments.  The Outcome's core
    is None past the budget; its counts add up every solve."""
    i = used = conflicts = 0
    needed = set()
    while i < len(core):
        if core[i] >= droppable:
            break
        if core[i] in needed:
            i += 1
            continue
        trial = core[:i] + core[i + 1:]
        # number the trial's variables afresh, in the same order
        names = sorted({q >> 1 for ci in trial for q in clauses[ci]})
        new = {v: k for k, v in enumerate(names)}
        out = solve(
            len(names),
            [[2 * new[q >> 1] | q & 1 for q in clauses[ci]] for ci in trial],
            budget - used,
        )
        used += out.assignments
        conflicts += out.conflicts
        if out.core is not None:
            core = [trial[k] for k in out.core]
        elif out.model is not None:
            # per variable, the core's clauses that hold it
            occurs = {}
            for ci in core:
                for q in clauses[ci]:
                    occurs.setdefault(q >> 1, []).append(ci)
            needed.add(core[i])
            _rotate(clauses, occurs, dict(zip(names, out.model)), core[i],
                    droppable, needed)
            i += 1
        else:
            return Outcome(None, None, used, conflicts)
    return Outcome(None, core, used, conflicts)


def _rotate(clauses, occurs, model, start, droppable, needed):
    """Recursive model rotation (Marques-Silva & Lynce, *On improving MUS
    extraction algorithms*, SAT 2011; Belov & Marques-Silva, *Accelerating
    MUS extraction with recursive model rotation*, FMCAD 2011).  ``model``
    (variable -> bool) falsifies exactly the core's clause ``start``.
    Flipping the variable of one of its literals satisfies it; when the
    flipped model falsifies exactly one other clause of the core, that
    clause is needed.  A droppable one not yet in ``needed`` is added and
    rotated from in turn, depth first, before the variable flips back.  The
    work list holds (clause, position of the next literal to flip)."""
    work = [(start, 0)]
    while work:
        ci, k = work.pop()
        c = clauses[ci]
        if k:
            v = c[k - 1] >> 1
            model[v] = not model[v]
        if k == len(c):
            continue
        v = c[k] >> 1
        model[v] = not model[v]
        work.append((ci, k + 1))
        false = [
            cj for cj in occurs[v]
            if cj != ci and not any(model[q >> 1] != q & 1 for q in clauses[cj])
        ]
        if len(false) == 1 and false[0] < droppable and false[0] not in needed:
            needed.add(false[0])
            work.append((false[0], 0))


class _Solver:
    def __init__(self, nvars, clauses):
        self.clauses = [list(c) for c in clauses]
        self.ninput = len(clauses)
        # per literal: 1 true, -1 false, 0 unassigned
        self.value = [0] * (2 * nvars)
        self.level = [0] * nvars
        self.reason = [-1] * nvars
        self.trail = []
        self.limits = []  # trail length when each decision level began
        self.qhead = 0
        self.watches = [[] for _ in range(2 * nvars)]
        self.activity = [0.0] * nvars
        self.inc = 1.0
        self.heap = [(-0.0, v) for v in range(nvars)]
        self.seen = bytearray(nvars)
        # learnt clause index -> (clauses resolved, level-0 variables dropped)
        self.learnt_from = {}
        self.assignments = 0
        self.conflicts = 0

    def run(self, budget):
        """(model, None), (None, core), or None past the budget."""
        clauses, value = self.clauses, self.value
        units = []
        for ci, c in enumerate(clauses):
            if not c:
                return None, [ci]
            if len(c) == 1:
                units.append(ci)
            else:
                self.watches[c[0]].append(ci)
                self.watches[c[1]].append(ci)
        for ci in units:
            lit = clauses[ci][0]
            if value[lit] < 0:
                return None, self._core(ci)
            if value[lit] == 0:
                self._assign(lit, ci)
        while self.assignments <= budget:
            confl = self._propagate()
            if confl >= 0:
                self.conflicts += 1
                if not self.limits:
                    return None, self._core(confl)
                learnt, back, chain = self._analyze(confl)
                self._backtrack(back)
                ci = len(clauses)
                clauses.append(learnt)
                self.learnt_from[ci] = chain
                if len(learnt) > 1:
                    self.watches[learnt[0]].append(ci)
                    self.watches[learnt[1]].append(ci)
                self._assign(learnt[0], ci)
                self.inc *= _DECAY
                continue
            v = self._pick()
            if v is None:
                return [value[2 * v] > 0 for v in range(len(self.level))], None
            self.limits.append(len(self.trail))
            self._assign(2 * v + 1, -1)
        return None

    def _assign(self, lit, reason):
        v = lit >> 1
        self.value[lit] = 1
        self.value[lit ^ 1] = -1
        self.level[v] = len(self.limits)
        self.reason[v] = reason
        self.trail.append(lit)
        self.assignments += 1

    def _propagate(self):
        """Assign what the trail implies; the index of a clause all of whose
        literals are false, or -1.  A clause watches its first two
        literals, and the literal a clause implies is put first."""
        value, watches, clauses, trail = (
            self.value, self.watches, self.clauses, self.trail,
        )
        while self.qhead < len(trail):
            false_lit = trail[self.qhead] ^ 1
            self.qhead += 1
            ws = watches[false_lit]
            keep = []
            for n, ci in enumerate(ws):
                c = clauses[ci]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if value[first] > 0:
                    keep.append(ci)
                    continue
                for k in range(2, len(c)):
                    if value[c[k]] >= 0:
                        c[1], c[k] = c[k], false_lit
                        watches[c[1]].append(ci)
                        break
                else:
                    keep.append(ci)
                    if value[first] < 0:
                        keep.extend(ws[n + 1:])
                        watches[false_lit] = keep
                        return ci
                    self._assign(first, ci)
            watches[false_lit] = keep
        return -1

    def _analyze(self, confl):
        """The 1UIP clause learnt from a conflict (asserting literal first,
        then a literal of the backjump level), that level, and what the
        clause was resolved from."""
        level, reason, trail, seen = self.level, self.reason, self.trail, self.seen
        current = len(self.limits)
        learnt = [-1]
        used = [confl]
        zeros = []
        touched = []
        pending = 0
        ci, lit, idx = confl, -1, len(trail)
        while True:
            c = self.clauses[ci]
            # a reason clause holds the literal it implied first
            for q in c if lit < 0 else c[1:]:
                v = q >> 1
                if seen[v]:
                    continue
                seen[v] = 1
                touched.append(v)
                if level[v] == 0:
                    zeros.append(v)
                    continue
                self._bump(v)
                if level[v] == current:
                    pending += 1
                else:
                    learnt.append(q)
            idx -= 1
            while not seen[trail[idx] >> 1]:
                idx -= 1
            lit = trail[idx]
            pending -= 1
            if not pending:
                break
            ci = reason[lit >> 1]
            used.append(ci)
        for v in touched:
            seen[v] = 0
        learnt[0] = lit ^ 1
        back = 0
        if len(learnt) > 1:
            k = max(range(1, len(learnt)), key=lambda k: level[learnt[k] >> 1])
            learnt[1], learnt[k] = learnt[k], learnt[1]
            back = level[learnt[1] >> 1]
        return learnt, back, (tuple(used), tuple(zeros))

    def _bump(self, v):
        activity = self.activity
        activity[v] += self.inc
        if activity[v] > 1e100:
            for u in range(len(activity)):
                activity[u] *= 1e-100
            self.inc *= 1e-100
            self.heap = [(-activity[u], u) for u in range(len(activity))
                         if not self.value[2 * u]]
            heapify(self.heap)
        else:
            heappush(self.heap, (-activity[v], v))

    def _backtrack(self, lvl):
        start = self.limits[lvl]
        value, activity, heap = self.value, self.activity, self.heap
        for lit in self.trail[start:]:
            v = lit >> 1
            value[lit] = value[lit ^ 1] = 0
            self.reason[v] = -1
            heappush(heap, (-activity[v], v))
        del self.trail[start:]
        del self.limits[lvl:]
        self.qhead = start

    def _pick(self):
        """The unassigned variable of highest activity, or None.  A heap
        entry is stale once its variable is assigned or bumped again."""
        heap, value, activity = self.heap, self.value, self.activity
        while heap:
            a, v = heappop(heap)
            if not value[2 * v] and -a == activity[v]:
                return v
        return None

    def _core(self, confl):
        """Sorted indices of the input clauses that the refutation ending in
        the level-0 conflict ``confl`` depends on."""
        clauses, reason = self.clauses, self.reason
        core = []
        done_clauses, done_vars = set(), set()
        todo_clauses = [confl]
        todo_vars = [q >> 1 for q in clauses[confl]]
        while todo_clauses or todo_vars:
            if todo_vars:
                # every literal of a level-0 clause is false but its own
                v = todo_vars.pop()
                if v in done_vars:
                    continue
                done_vars.add(v)
                r = reason[v]
                todo_clauses.append(r)
                todo_vars.extend(q >> 1 for q in clauses[r] if q >> 1 != v)
                continue
            ci = todo_clauses.pop()
            if ci in done_clauses:
                continue
            done_clauses.add(ci)
            if ci < self.ninput:
                core.append(ci)
            else:
                used, zeros = self.learnt_from[ci]
                todo_clauses.extend(used)
                todo_vars.extend(zeros)
        return sorted(core)
