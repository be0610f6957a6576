"""Shared helpers: seeded random formula and sequent generators, every
formula up to a size, a hypothesis formula strategy, a proof-tree copier
for tamper tests, and ground instances in formula form."""

import random
from itertools import product

from hypothesis import strategies as st

from mvlogic.calculus import TreeNode
from mvlogic.formula import app, canon_key, var


def random_formula(rng, conns, names, depth):
    """A random formula over the given connective/arity map, with the
    given variable names and a connective-depth bound."""
    if depth == 0 or rng.random() < 0.3:
        return var(rng.choice(names))
    conn = rng.choice(sorted(conns))
    k = conns[conn]
    if k == 0:
        return app(conn)
    return app(
        conn, *(random_formula(rng, conns, names, depth - 1) for _ in range(k))
    )


def random_sequent(rng, conns, names, depth=2, max_side=2):
    n_prem = rng.randint(0, max_side)
    n_conc = rng.randint(1, max_side)
    premises = frozenset(
        random_formula(rng, conns, names, depth) for _ in range(n_prem)
    )
    conclusions = frozenset(
        random_formula(rng, conns, names, depth) for _ in range(n_conc)
    )
    return premises, conclusions


def formulas(sig, names_, max_leaves=5):
    """Formulas over the connectives of sig (name -> arity)."""
    leaves = st.sampled_from(names_).map(var)
    consts = [c for c, k in sig.items() if k == 0]
    if consts:
        leaves = leaves | st.sampled_from(sorted(consts)).map(app)

    def extend(children):
        return st.one_of(
            *(
                st.tuples(*([children] * k)).map(lambda args, c=c: app(c, *args))
                for c, k in sorted(sig.items())
                if k > 0
            )
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def all_formulas(conns, names, n):
    """Every formula of at most n nodes over the connective/arity map and
    the given variable names, in canon_key order."""
    leaves = [var(x) for x in names] + [app(c) for c, k in conns.items() if k == 0]
    by_size = [[], leaves]
    for size in range(2, n + 1):
        by_size.append([
            app(c, *args)
            for c, k in conns.items() if k
            for sizes in product(range(1, size), repeat=k) if sum(sizes) == size - 1
            for args in product(*(by_size[s] for s in sizes))
        ])
    return sorted((f for fs in by_size for f in fs), key=canon_key)


def make_rng(seed):
    return random.Random(seed)


def copy_tree(node):
    """Fresh TreeNode structure, built with a work list; the added formulas
    stay shared since they are immutable."""
    def fresh(n):
        return TreeNode(n.adds, n.rule, n.subst, [], n.star, n.closed)

    root = fresh(node)
    stack = [(node, root)]
    while stack:
        old, new = stack.pop()
        for child in old.children:
            copy = fresh(child)
            new.children.append(copy)
            stack.append((child, copy))
    return root


def materialized(ground):
    """Every instance of a _build_instances result as (rule name,
    substitution, antecedent, succedent) over formulas."""
    return [ground.instance(k) for k in range(len(ground))]
