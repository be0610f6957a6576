"""Independent reference answers for the benchmark.

Nothing here calls mvlogic's semantics, prover or axiomatizer.  Verdicts come
from brute force over the models' interpretation tables; the monadicity
answers are the paper's, transcribed.  Formulas are plain terms: a variable
is its name, an application is a tuple ``(connective, arg, ...)``.  Program
formulas are converted with :func:`term_of`.
"""

from itertools import product


class Mismatch(Exception):
    """A program answer disagrees with the reference."""


def term_of(f):
    """A program formula as a plain term, read through ``head``/``args``."""
    if f.args is None:
        return f.head
    return (f.head,) + tuple(term_of(a) for a in f.args)


def term_vars(terms):
    out = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.add(t)
        else:
            stack.extend(t[1:])
    return sorted(out)


def subterms(terms):
    """Every subterm, each listed after its arguments."""
    order = []
    seen = set()

    def visit(t):
        if t in seen:
            return
        if not isinstance(t, str):
            for a in t[1:]:
                visit(a)
        seen.add(t)
        order.append(t)

    for t in terms:
        visit(t)
    return order


def _det_tables(alg):
    tables = {}
    for conn, table in alg.interp.items():
        row = {}
        for key, out in table.items():
            if len(out) != 1:
                raise ValueError("%s is not deterministic" % alg.name)
            (row[key],) = out
        tables[conn] = row
    return tables


def det_counterexample(matrices, premises, conclusions):
    """Brute force over deterministic matrices: the first (matrix index,
    assignment) making every premise designated and every conclusion
    undesignated, or None when the consequence holds."""
    vs = term_vars(list(premises) + list(conclusions))
    by_alg = {}
    for idx, m in enumerate(matrices):
        by_alg.setdefault(id(m.algebra), []).append((idx, m))
    found = []
    for group in by_alg.values():
        alg = group[0][1].algebra
        tables = _det_tables(alg)
        rows = list(product(alg.carrier, repeat=len(vs)))
        n = len(rows)
        vec = {v: [r[i] for r in rows] for i, v in enumerate(vs)}
        for t in subterms(list(premises) + list(conclusions)):
            if isinstance(t, str):
                continue
            table = tables[t[0]]
            args = [vec[a] for a in t[1:]]
            if not args:
                vec[t] = [table[()]] * n
            elif len(args) == 1:
                vec[t] = [table[(x,)] for x in args[0]]
            else:
                vec[t] = [table[xy] for xy in zip(*args)]
        for idx, m in group:
            des = m.designated
            for i in range(n):
                if all(vec[p][i] in des for p in premises) and not any(
                    vec[c][i] in des for c in conclusions
                ):
                    found.append((idx, dict(zip(vs, rows[i]))))
                    break
    return min(found, key=lambda x: x[0]) if found else None


def nd_counterexample(matrix, premises, conclusions):
    """Depth-first search for a legal valuation of a total Nmatrix (every
    table entry non-empty) that designates every premise and no conclusion.
    On a total Nmatrix every legal valuation of a subterm-closed set extends
    to the whole language, so this decides the consequence."""
    interp = matrix.algebra.interp
    if any(not out for table in interp.values() for out in table.values()):
        raise ValueError("%s is not total" % matrix.name)
    des = matrix.designated
    want = {}
    for p in premises:
        want[p] = True
    for c in conclusions:
        if want.get(c) is True:
            return None
        want[c] = False
    terms = subterms(list(premises) + list(conclusions))
    vals = {}

    def rec(i):
        if i == len(terms):
            return True
        t = terms[i]
        if isinstance(t, str):
            options = matrix.carrier
        else:
            options = interp[t[0]][tuple(vals[a] for a in t[1:])]
        w = want.get(t)
        for v in options:
            if w is not None and (v in des) != w:
                continue
            vals[t] = v
            if rec(i + 1):
                return True
        vals.pop(t, None)
        return False

    return dict(vals) if rec(0) else None


def holds(matrices, premises, conclusions):
    """Reference verdict on a class of deterministic or total matrices."""
    premises, conclusions = list(premises), list(conclusions)
    det = [m for m in matrices if _is_det(m)]
    if det and det_counterexample(det, premises, conclusions):
        return False
    return all(
        nd_counterexample(m, premises, conclusions) is None
        for m in matrices
        if not _is_det(m)
    )


def _is_det(m):
    return all(
        len(out) == 1 for table in m.algebra.interp.values() for out in table.values()
    )


def check_valuation(matrix, valuation, premises, conclusions):
    """Re-check a countermodel: a map from program formulas to values that is
    legal under the matrix tables wherever it is defined on all arguments,
    designates every premise and no conclusion."""
    interp = matrix.algebra.interp
    for f, v in valuation.items():
        if v not in matrix.carrier:
            raise Mismatch("value %r outside %s" % (v, matrix.name))
        if f.args is None:
            continue
        if not all(a in valuation for a in f.args):
            raise Mismatch("valuation not subformula-closed at %r" % (f,))
        if v not in interp[f.head][tuple(valuation[a] for a in f.args)]:
            raise Mismatch("illegal value %r for %r on %s" % (v, f, matrix.name))
    for p in premises:
        if p not in valuation or valuation[p] not in matrix.designated:
            raise Mismatch("premise %r not designated" % (p,))
    for c in conclusions:
        if c not in valuation or valuation[c] in matrix.designated:
            raise Mismatch("conclusion %r not undesignated" % (c,))


# --- the paper's answers for the monadicity workload ---------------------

# depth-3 discriminator of pp6-ub (value: pos formulas, neg formulas)
PP6_UB_DISCRIMINATOR = {
    "hf": ({("circ", "p")}, {"p"}),
    "f": ({("neg", "p")}, {("circ", "p"), "p"}),
    "n": (set(), {"p", ("circ", "p"), ("neg", "p")}),
    "b": ({"p", ("neg", "p")}, {("circ", "p")}),
    "t": ({"p"}, {("circ", "p"), ("neg", "p")}),
    "ht": ({"p", ("circ", "p")}, set()),
}
M_LEQ_NOT_MONADIC = (("nm", "bm"), True, 432)
LETK_RULE_COUNT = 72
CIP_CLONE_SIZE = 192


def clone_size(alg):
    """Pointwise closure of the unary term functions of a deterministic
    algebra, starting from the identity and the constants."""
    tables = _det_tables(alg)
    carrier = alg.carrier
    funcs = {tuple(carrier)}
    for conn, table in tables.items():
        if () in table:
            funcs.add(tuple(table[()] for _ in carrier))
    frontier = set(funcs)
    while frontier:
        fresh = set()
        for conn, table in tables.items():
            if () in table:
                continue
            k = len(next(iter(table)))
            if k == 1:
                for f in frontier:
                    fresh.add(tuple(table[(x,)] for x in f))
            else:
                for f in funcs:
                    for g in frontier:
                        fresh.add(tuple(table[xy] for xy in zip(f, g)))
                        fresh.add(tuple(table[xy] for xy in zip(g, f)))
        frontier = fresh - funcs
        funcs |= frontier
    return len(funcs)
