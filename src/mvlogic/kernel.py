"""The evaluation kernel: formulas over a compiled finite multialgebra.

An algebra is compiled once, on first use, and the result is kept on the
algebra object.  Carrier values become indices ``0..n-1`` in carrier order,
value sets become int bitmasks (bit ``i`` for the ``i``-th value), and every
table is keyed by index tuples.  Two evaluators share that form.

* :class:`Bitsets` evaluates formulas under *every* assignment to a list of
  variables at once, on a single-valued restriction of the algebra.  Every
  variable ranges over all ``n`` values, the first ones optionally fixed to
  one value each, and the assignments are numbered in base ``n``: first
  free variable most significant, values in carrier order.  A formula's
  row holds, per value, one Python int whose bit ``i`` is set when the
  formula takes that value under assignment ``i``.  The restriction is
  compiled once per component into a plan grouped by the arguments but the
  last (:meth:`Compiled.single_valued`): a binary node takes, per value of
  its first argument whose row is not empty, one ``&`` per output value,
  with the second argument's rows for that output summed (they are
  disjoint), and none when every second value gives the same output.  A
  plan reads a component's values as positions, its members in carrier
  order, and is shared by every component of the algebra with the same
  restricted tables under that renaming: one per component shape.
  :func:`first_hit` lets several selections, one per matrix over a
  component of that shape, read the same rows, one chunk of assignments
  at a time, and :func:`satisfying` lists what one selection marks.  Both
  read the values they return off the rows, a witness's with
  :meth:`Bitsets.value` and the marked assignments' with
  :meth:`Bitsets.values`, and drop a chunk's rows before the next chunk's
  are built.
* :meth:`Compiled.row` is the one set-valued memo: a connective with the
  masks of every argument but the last fixed, at one carrier position,
  maps the last argument's mask to the mask of every output on argument
  values drawn from the masks, computed from the table on a miss.
  :meth:`Compiled.combine` applies a connective to set-valued arguments,
  one mask per carrier position, through those rows; this is the
  evaluation of unary profiles.  :func:`enumerate_unary` walks the unary
  clone with each profile cut into blocks of ``BLOCK`` consecutive carrier
  positions.  A block's value (its tuple of masks) is interned once per
  walk, a profile is its short tuple of block ids, and a candidate profile
  is one memo lookup per block, filled on a miss from the rows.

:meth:`Compiled.components` gives the maximal total components as masks,
found by closure: from the whole carrier, a set with a table entry over its
members that keeps no value in it goes on without each of that entry's
arguments in turn.  :meth:`Compiled.designation` keeps, per designated set
of a matrix, what a consequence check reads of each component (its plans,
member values and designated and undesignated positions), and
:meth:`Bitsets.where` ORs the rows at such positions.  All of these fill on
first use and live on the compiled form, so they go with the algebra.
"""

from __future__ import annotations

from itertools import product, repeat

from .errors import SignatureMismatch
from .formula import app, render_formula, var

# Most assignments one bitset covers.  Larger inputs fix the leading
# variables' values outside the bitset, in lexicographic order.  Big-int
# operations are cheapest per bit while the ints stay in the processor's
# cache, and a row takes n ints of CHUNK bits per formula: on a 2-vCPU
# x86-64 VM (CPython 3.11) the 10-variable De Morgan ladder on dm4-bt took
# 0.10 s at 2**16, 0.22 s at 2**18 and 0.68 s at 2**20, the last with 21 MB
# more peak memory.
CHUNK = 1 << 16

# Carrier positions per block of a profile in the unary-clone walk.  The
# clone's profiles take few distinct masks per position (m-leq's ten take
# 2 to 6 each), so blocks of a few positions take few distinct values and
# the per-walk block memos fill after few misses: at 4, m-leq's blocks take
# 30, 108 and 10 values, and its walk evaluates 374,544 candidates with
# 32,870 block evaluations.  On a 2-vCPU x86-64 VM (CPython 3.11), median
# of 7 saturated walks: m-leq 0.17 s at 4, 0.16 s at 2, 0.19 s at 3,
# 0.29 s at 1 and 0.33 s at 5 (0.57 s with one row lookup per position);
# pp6h-ut (six positions) 0.026 s at 4 and 3, 0.029 s at 2, 0.054 s at 5.
BLOCK = 4


class _Row(dict):
    """One connective at one carrier position with every argument but the
    last fixed: the last argument's mask maps to the mask of every output
    on argument values drawn from the masks."""

    __slots__ = ("table", "members", "fixed")

    def __init__(self, table, members, fixed):
        super().__init__()
        self.table = table
        self.members = members
        self.fixed = fixed

    def __missing__(self, mask):
        out = 0
        for key in product(*map(self.members, self.fixed + (mask,))):
            out |= self.table[key]
        self[mask] = out
        return out


class Compiled:
    """A MultiAlgebra with values as indices and value sets as masks."""

    def __init__(self, alg):
        self.carrier = alg.carrier
        self.n = len(alg.carrier)
        index = {v: i for i, v in enumerate(alg.carrier)}
        self.arity = {conn: alg.arity(conn) for conn in alg.interp}
        self.tables = {
            conn: {
                tuple(index[a] for a in key): self.mask(index[v] for v in out)
                for key, out in table.items()
            }
            for conn, table in alg.interp.items()
        }
        self.symmetric = {
            conn
            for conn, table in self.tables.items()
            if self.arity[conn] == 2
            and all(table.get((b, a)) == out for (a, b), out in table.items())
        }
        self.all = (1 << self.n) - 1
        self.identity = tuple(1 << i for i in range(self.n))
        self._rows = {}
        self._restricted = {}
        self._shapes = {}
        self._components = None
        self._designations = {}

    @staticmethod
    def mask(indices):
        out = 0
        for i in indices:
            out |= 1 << i
        return out

    def mask_of(self, values):
        return self.mask(self.carrier.index(v) for v in values)

    def members(self, mask):
        return [i for i in range(self.n) if mask >> i & 1]

    def values(self, mask):
        return frozenset(self.carrier[i] for i in self.members(mask))

    def row(self, conn, fixed):
        """The memoised row of conn with its arguments but the last fixed to
        the masks in the tuple fixed: the last argument's mask maps to the
        output mask."""
        row = self._rows.get((conn, fixed))
        if row is None:
            row = self._rows[conn, fixed] = _Row(self.tables[conn], self.members, fixed)
        return row

    def combine(self, conn, profiles):
        """Set-valued application of conn, position by position, to argument
        profiles (one mask per carrier value each), read off its rows."""
        if not profiles:
            return (self.tables[conn][()],) * self.n
        return tuple(self.row(conn, args[:-1])[args[-1]] for args in zip(*profiles))

    def components(self):
        """Maximal masks on which every table entry over their members keeps
        a value, sorted by their members.

        Found by closure from the whole carrier.  A set with an entry over
        its members that keeps no value in it has no such subset holding
        all of that entry's arguments, so the search goes on from the set
        without each of them in turn.  Entries are tried fewest distinct
        arguments first, so a set that one value spoils loses just that
        value.  A set met before, or inside one found, is passed over."""
        if self._components is None:
            # each entry as (mask of its arguments, output mask), once
            entries = {}
            for table in self.tables.values():
                for key, out in table.items():
                    entries[self.mask(key), out] = None
            entries = sorted(entries, key=lambda entry: entry[0].bit_count())
            found, seen, stack = [], set(), [self.all]
            while stack:
                comp = stack.pop()
                if comp in seen or any(comp & c == comp for c in found):
                    continue
                seen.add(comp)
                spoilt = next(
                    (key for key, out in entries if key & comp == key and not out & comp),
                    None,
                )
                if spoilt is None:
                    found.append(comp)
                else:
                    stack.extend(comp & ~(1 << i) for i in self.members(spoilt)
                                 if comp != 1 << i)
            # a set found early may lie inside one found later
            found = [c for c in found if not any(c != d and c & d == c for d in found)]
            self._components = sorted(found, key=self.members)
        return self._components

    def designation(self, designated):
        """How a matrix designating the frozenset designated reads the
        algebra, made on first use and kept per designated set: per total
        component in order, (plans, values, inside, outside).  plans is the
        component's :meth:`single_valued` plans and values lists its
        members' values by position.  When plans is not None, which read
        values by position, inside and outside are the ascending tuples of
        the positions of its designated and undesignated members, as
        :meth:`Bitsets.where` takes them; otherwise they are the frozensets
        of those members' values."""
        got = self._designations.get(designated)
        if got is None:
            parts = []
            for comp in self.components():
                plans = self.single_valued(comp)
                values = tuple(self.carrier[i] for i in self.members(comp))
                inside = tuple(j for j, v in enumerate(values) if v in designated)
                outside = tuple(j for j, v in enumerate(values) if v not in designated)
                if plans is None:
                    inside = designated.intersection(values)
                    outside = frozenset(values) - designated
                parts.append((plans, values, inside, outside))
            got = self._designations[designated] = tuple(parts)
        return got

    def single_valued(self, comp):
        """The tables restricted to the values in the mask comp, in the
        layout :class:`Bitsets` evaluates them by, or None when an entry
        keeps other than one value there.  Values are the component's
        positions ``0..m-1``, its members in carrier order, so on the whole
        carrier they are the carrier indices; components whose restricted
        tables are equal under that renaming get one plan object.

        Per connective, a tuple of (whole, singles, multis), one per
        prefix, a tuple of values for every argument but the last, in
        product order.  whole is the output when every value of the last
        argument gives the same one after that prefix, and None otherwise;
        then singles pairs each output that one last value gives with that
        value, and multis each output that several give with the tuple of
        them."""
        if comp not in self._restricted:
            plans = self._restrict(comp)
            if plans is not None:
                # a plan shows its component's size in its number of
                # prefixes: only an algebra with a connective of arity 2 or
                # more has more than one component
                plans = self._shapes.setdefault(tuple(plans.items()), plans)
            self._restricted[comp] = plans
        return self._restricted[comp]

    def _restrict(self, comp):
        inside = self.members(comp)
        positions = range(len(inside))
        position = dict(zip(inside, positions))
        out = {}
        for conn, table in self.tables.items():
            arity = self.arity[conn]
            plan = []
            for prefix in product(positions, repeat=max(arity - 1, 0)):
                keys = [prefix + (x,) for x in positions] if arity else [()]
                groups = {}
                for key in keys:
                    got = table[tuple(inside[x] for x in key)] & comp
                    if not got or got & (got - 1):
                        return None
                    groups.setdefault(position[got.bit_length() - 1], []).extend(key[-1:])
                if len(groups) == 1:
                    plan.append((next(iter(groups)), (), ()))
                    continue
                singles = tuple((v, xs[0]) for v, xs in groups.items() if len(xs) == 1)
                multis = tuple((v, tuple(xs)) for v, xs in groups.items() if len(xs) > 1)
                plan.append((None, singles, multis))
            out[conn] = tuple(plan)
        return out


def compiled(alg):
    """The compiled form of a MultiAlgebra, built on first use."""
    got = getattr(alg, "_kernel", None)
    if got is None:
        got = alg._kernel = Compiled(alg)
    return got


class _Interned(dict):
    """The values of one block of carrier positions met in a walk, tuples
    of masks, numbered in the order first met."""

    __slots__ = ("values",)

    def __init__(self):
        super().__init__()
        self.values = []

    def __missing__(self, value):
        out = self[value] = len(self.values)
        self.values.append(value)
        return out


class _Block(dict):
    """One connective on one block of carrier positions with the head's
    block values fixed: the last argument's block id maps to the result's
    block id, filled from rows, one :meth:`Compiled.row` per position."""

    __slots__ = ("rows", "interned")

    def __init__(self, rows, interned):
        super().__init__()
        self.rows = rows
        self.interned = interned

    def __missing__(self, last):
        masks = map(dict.__getitem__, self.rows, self.interned.values[last])
        out = self[last] = self.interned[tuple(masks)]
        return out


class UnaryWalk:
    """The walk of :func:`enumerate_unary`; candidates counts the
    candidate profiles evaluated so far."""

    def __init__(self, alg, max_depth=None):
        self.alg = alg
        self.max_depth = max_depth
        self.candidates = 0

    def __iter__(self):
        k = compiled(self.alg)
        conns = sorted(k.arity, key=lambda c: (k.arity[c], c))
        blocks = [_Interned() for _ in range(0, k.n, BLOCK)]
        # columns[b][i] is the id of formula i's profile on block b
        columns = [[] for _ in blocks]
        formulas, seen, memos = [], set(), {}

        def split(profile):
            return tuple(
                interned[profile[s:s + BLOCK]]
                for s, interned in zip(range(0, k.n, BLOCK), blocks)
            )

        def keep(f, ids):
            """Record the new formula f by its block ids; its profile."""
            seen.add(ids)
            formulas.append(f)
            profile = ()
            for column, interned, i in zip(columns, blocks, ids):
                column.append(i)
                profile += interned.values[i]
            return profile

        def memo(conn, b, head):
            """The _Block of conn on block b for the formulas in head."""
            ids = tuple(columns[b][i] for i in head)
            key = (conn, b) + ids
            got = memos.get(key)
            if got is None:
                values = blocks[b].values
                if ids:
                    fixed = zip(*(values[i] for i in ids))
                else:
                    fixed = repeat((), len(values[0]))
                rows = [k.row(conn, masks) for masks in fixed]
                got = memos[key] = _Block(rows, blocks[b])
            return got

        p = var("p")
        yield 0, p, keep(p, split(k.identity))
        for conn in conns:
            if k.arity[conn] == 0:
                ids = split(k.combine(conn, ()))
                if ids not in seen:
                    f = app(conn)
                    yield 0, f, keep(f, ids)
        # the formulas of the previous depth are the list's suffix from `start`
        start = depth = 0
        while self.max_depth is None or depth < self.max_depth:
            depth += 1
            size = len(formulas)
            for conn in conns:
                arity = k.arity[conn]
                if arity == 0:
                    continue
                symmetric = conn in k.symmetric
                for head in product(range(size), repeat=arity - 1):
                    low = 0 if head and max(head) >= start else start
                    if symmetric:
                        low = max(low, head[0])
                    lasts = [
                        map(memo(conn, b, head).__getitem__, column[low:size])
                        for b, column in enumerate(columns)
                    ]
                    candidates = list(zip(*lasts))
                    self.candidates += len(candidates)
                    if seen.issuperset(candidates):
                        continue
                    for last, ids in enumerate(candidates, low):
                        if ids not in seen:
                            args = [formulas[i] for i in head]
                            f = app(conn, *args, formulas[last])
                            yield depth, f, keep(f, ids)
            if len(formulas) == size:
                return
            start = size


def enumerate_unary(alg, max_depth=None):
    """Formulas in the variable p by increasing connective depth, one per
    profile on alg: yields (depth, formula, profile), the profile one mask
    of values per carrier value.  Depth 0 is p and the constants; depth d
    applies each connective, in (arity, name) order, to argument tuples in
    product order over the earlier formulas that contain one of depth d-1.
    A formula is built only for a profile not seen before.  Stops after
    max_depth or, when that is None, at the first depth that adds nothing,
    where the clone is saturated.

    The walk keeps each profile column-major as a tuple of ids, one per
    block of ``BLOCK`` consecutive carrier positions (the last block may be
    shorter); a block's value is interned on first sight, so equal ids are
    equal profiles.  The arguments but the last form a *head*.  On each
    block, the connective and the head's block ids key a memo from the last
    argument's block id to the result's, filled on a miss from
    :meth:`Compiled.row`; the memos live as long as the walk.  All
    candidates of a head are built in C from those memos, and a head whose
    candidates were all seen is skipped.  A binary connective with a
    symmetric table starts the last argument at the head: the pair (h, l)
    with l < h was evaluated as (l, h) at this depth, or lies outside its
    product."""
    return iter(UnaryWalk(alg, max_depth))


def check_signature(alg, formulas):
    """Raise SignatureMismatch unless every connective in the formulas is
    interpreted by alg at the arity it is applied with."""
    arity = compiled(alg).arity
    used = {(f.head, len(f.args)) for f in formulas if f.args is not None}
    if used <= arity.items():
        return
    for f in formulas:
        if not f.is_var and arity.get(f.head) != len(f.args):
            raise SignatureMismatch(
                "no interpretation for %r with %d arguments in %s (in %s)"
                % (f.head, len(f.args), alg.name, render_formula(f))
            )


def bits(mask):
    """Positions of the set bits of mask, ascending."""
    s = bin(mask)[:1:-1]
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


class Bitsets:
    """Rows of formulas under every assignment of the n values to the
    variables, the first len(fixed) of them fixed to the value indices in
    fixed, evaluated by the plans of :meth:`Compiled.single_valued`.  An
    assignment's bit is its rank in base n over the free variables."""

    def __init__(self, plans, n, variables, fixed=()):
        self.plans = plans
        self.n = n
        self.size = stride = n ** (len(variables) - len(fixed))
        self.full = (1 << stride) - 1
        self.rows = {}
        for x, v in zip(variables, fixed):
            self.rows[x] = [self.full if u == v else 0 for u in range(n)]
        for x in variables[len(fixed):]:
            period, stride = stride, stride // n
            # one bit at the start of every period, times the first value's
            # block; each later value's blocks are those shifted
            first = self.full // ((1 << period) - 1) * ((1 << stride) - 1)
            self.rows[x] = [first << (v * stride) for v in range(n)]

    def row(self, f):
        rows = self.rows
        got = rows.get(f)
        if got is not None:
            return got
        full = self.full
        stack = [f]
        while stack:
            g = stack.pop()
            head = list(map(rows.get, g.args))
            if None in head:
                # g comes back once its arguments have rows
                stack.append(g)
                stack.extend(a for a, got in zip(g.args, head) if got is None)
                continue
            if g in rows:
                # pushed again while waiting for an argument
                continue
            last = head.pop() if head else None
            # the assignments of each prefix, in product order
            gots = [full]
            for a in head:
                gots = [got & r for got in gots for r in a]
            row = [0] * self.n
            for got, (whole, singles, multis) in zip(gots, self.plans[g.head]):
                if not got:
                    continue
                if whole is not None:
                    row[whole] |= got
                    continue
                for v, x in singles:
                    row[v] |= got & last[x]
                for v, xs in multis:
                    some = 0
                    for x in xs:
                        some |= last[x]
                    row[v] |= got & some
            rows[g] = row
        # f comes off the stack last
        return row

    def where(self, f, positions):
        """Assignments under which f takes a value at one of the positions."""
        row = self.rows.get(f) or self.row(f)
        out = 0
        for v in positions:
            out |= row[v]
        return out

    def values(self, f, mask):
        """The value index f takes under each assignment in mask, keyed by
        the assignment."""
        return {at: v for v, row in enumerate(self.row(f)) for at in bits(row & mask)}

    def value(self, f, one):
        """The value index f takes under the one assignment in the mask one."""
        for v, row in enumerate(self.row(f)):
            if row & one:
                return v


def _chunks(n, count):
    """(offset, fixed) of each chunk of at most CHUNK assignments of n
    values to count variables, by increasing rank: the values of the
    leading variables fixed one tuple at a time, in lexicographic order."""
    split, size = count, 1
    while split and size * n <= CHUNK:
        split -= 1
        size *= n
    for j, fixed in enumerate(product(range(n), repeat=split)):
        yield j * size, fixed


def satisfying(plans, n, variables, select, formulas):
    """(rank, values) for every assignment that select(bitsets) marks, by
    increasing rank in base n, values the value indices of the formulas
    there.  Like :func:`first_hit`, it reads the values off the rows of one
    chunk of at most CHUNK assignments at a time and drops the chunk's rows
    before the next chunk's are built."""
    for offset, fixed in _chunks(n, len(variables)):
        chunk = Bitsets(plans, n, variables, fixed)
        good = select(chunk)
        ranks = list(bits(good))
        columns = [map(chunk.values(f, good).__getitem__, ranks) for f in formulas]
        found = list(zip(ranks, *columns))
        del chunk
        for hit in found:
            yield offset + hit[0], hit[1:]


def first_hit(plans, n, variables, selects, formulas):
    """The first of the selects, in list order, that marks an assignment of
    the n values to the variables, the lowest-ranked assignment it marks
    and the value indices of the formulas there, as (index, rank, values);
    or None.  Every select reads the same rows, one chunk at a time: a
    chunk's rows are evaluated once for all of them, and the values read
    off them, before the rows are dropped and the next chunk's built.  Once
    select i marks an assignment the selects after it are out of play, and
    the search ends when none before it is left."""
    live, best = len(selects), None
    for offset, fixed in _chunks(n, len(variables)):
        chunk = Bitsets(plans, n, variables, fixed)
        for i in range(live):
            good = selects[i](chunk)
            if good:
                low = good & -good
                at = low.bit_length() - 1
                values = tuple(chunk.value(f, low) for f in formulas)
                live, best = i, (i, offset + at, values)
                break
        del chunk
        if not live:
            break
    return best


def rank(n, values):
    """Base-n index of an assignment of value indices, first most significant."""
    out = 0
    for v in values:
        out = out * n + v
    return out
