"""Formulas, parsing, rendering and subformula machinery.

Formulas are immutable and hash-consed: building the same tree twice yields
the same object, so equality tests and set membership are cheap pointer
operations.  All construction goes through ``var`` and ``app``.
"""

from __future__ import annotations

import re
import zlib
from itertools import product

from .errors import ArityError, FormulaSyntaxError, UnknownConnective


class Formula:
    """A variable (args is None) or a connective application (args a tuple).
    depth is the number of applications with arguments on the longest path
    from the root to a leaf, so a variable or a constant has depth 0."""

    __slots__ = ("head", "args", "size", "depth", "_hash", "_text")
    _table = {}

    def __new__(cls, head, args):
        key = (head, args)
        hit = cls._table.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.head = head
        self.args = args
        if args is None:
            self.size, self.depth = 1, 0
        else:
            self.size = 1 + sum(a.size for a in args)
            self.depth = 1 + max([a.depth for a in args], default=-1)
        # the same in every process: a str hash depends on PYTHONHASHSEED,
        # and hash(None) on an address before CPython 3.12
        name = zlib.crc32(head.encode())
        self._hash = name if args is None else hash((name, args))
        self._text = None
        cls._table[key] = self
        return self

    @property
    def is_var(self):
        return self.args is None

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return canon_key(self) < canon_key(other)

    def __repr__(self):
        return "Formula(%s)" % render_formula(self)


def var(name):
    return Formula(name, None)


def app(head, *args):
    return Formula(head, tuple(args))


def substitute(f, mapping):
    args = f.args
    if args is None:
        return mapping.get(f.head, f)
    if not args:
        return f
    return Formula(f.head, tuple([substitute(a, mapping) for a in args]))


def canon_key(f):
    """Deterministic ordering key used everywhere a formula order is needed."""
    return (f.size, render_formula(f))


# --- derived connectives -------------------------------------------------

_P = var("p")
_Q = var("q")

MACROS = {
    "up": (("p",), app("circ", app("imp", app("neg", _P), _P))),
    "down": (("p",), app("circ", app("imp", _P, app("neg", _P)))),
    "hneg": (("p",), app("imp", _P, app("neg", app("imp", _P, _P)))),
    "nabla": (("p",), app("or", _P, app("neg", app("circ", _P)))),
    "wimp": (
        ("p", "q"),
        app("or", app("or", app("neg", _P), app("neg", app("circ", _P))), _Q),
    ),
    "iff": (("p", "q"), app("and", app("imp", _P, _Q), app("imp", _Q, _P))),
}


def expand(name, *args):
    """The macro name applied to args, one per parameter: expand("up", f)
    is the formula the parser reads for up(f)."""
    params, body = MACROS[name]
    return substitute(body, dict(zip(params, args)))


# delta(p) is hneg applied to neg p
MACROS["delta"] = (("p",), expand("hneg", app("neg", _P)))


# --- parsing -------------------------------------------------------------

_TOKEN = re.compile(r"\s*(=>|[a-z][a-z0-9_]*|[~@&|(),])")

_KEYWORDS = {"top", "bot"}

# The parser rejects input nested more than this many levels deep: prefix
# operators, brackets, macro calls and right-nested implications in the
# text, and connectives in the formula it builds.  Parsing recurses at most
# six frames per level of the text, and render_formula and substitute two
# and one per level of the formula, so every accepted formula stays well
# inside Python's default recursion limit of 1000.  Macros repeat their
# arguments, so nested macro calls double a formula's size at each level;
# a formula of more than MAX_SIZE nodes, counted as a tree, is rejected too,
# which bounds the length of its rendering.
MAX_NESTING = 100
MAX_SIZE = 100_000


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise FormulaSyntaxError(
                "unexpected character %r" % rest[0], len(text) - len(rest)
            )
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


_PREFIX = {"~": "neg", "@": "circ"}


class _Parser:
    """Reads formulas from the whole text; every error position is an
    offset into it."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i][0]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, sym):
        tok, pos = self.take()
        if tok != sym:
            raise FormulaSyntaxError("expected %r, found %r" % (sym, tok), pos)

    def formulas(self, parse):
        """What parse() reads, repeated while a comma follows."""
        out = [parse()]
        while self.peek() == ",":
            self.take()
            out.append(parse())
        return out

    def end(self):
        tok, pos = self.take()
        if tok is not None:
            raise FormulaSyntaxError("trailing input %r" % tok, pos)

    def _nested(self, parse, pos):
        """What parse() reads one level deeper in the text."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise FormulaSyntaxError(
                "nested more than %d levels deep" % MAX_NESTING, pos
            )
        f = parse()
        self.nesting -= 1
        return f

    def _bounded(self, f, pos):
        if f.depth > MAX_NESTING:
            raise FormulaSyntaxError(
                "nested more than %d levels deep" % MAX_NESTING, pos
            )
        if f.size > MAX_SIZE:
            raise FormulaSyntaxError(
                "more than %d connectives and variables once macros are expanded"
                % MAX_SIZE, pos
            )
        return f

    def formula(self):
        left = self.or_term()
        if self.peek() == "=>":
            _, pos = self.take()
            right = self._nested(self.formula, pos)
            return self._bounded(app("imp", left, right), pos)
        return left

    def or_term(self):
        f = self.and_term()
        while self.peek() == "|":
            _, pos = self.take()
            f = self._bounded(app("or", f, self.and_term()), pos)
        return f

    def and_term(self):
        f = self.unary()
        while self.peek() == "&":
            _, pos = self.take()
            f = self._bounded(app("and", f, self.unary()), pos)
        return f

    def unary(self):
        tok = self.peek()
        if tok in _PREFIX:
            _, pos = self.take()
            arg = self._nested(self.unary, pos)
            return self._bounded(app(_PREFIX[tok], arg), pos)
        return self.atom()

    def atom(self):
        tok, pos = self.take()
        if tok == "(":
            f = self._nested(self.formula, pos)
            self.expect(")")
            return f
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", pos)
        if not tok[0].isalpha():
            raise FormulaSyntaxError("unexpected token %r" % tok, pos)
        if tok in _KEYWORDS:
            return app(tok)
        if self.peek() == "(":
            return self.macro_call(tok, pos)
        return var(tok)

    def macro_call(self, name, pos):
        if name not in MACROS:
            raise UnknownConnective("unknown macro %r" % name, pos)
        params = MACROS[name][0]
        self.expect("(")
        args = self.formulas(lambda: self._nested(self.formula, pos))
        self.expect(")")
        if len(args) != len(params):
            raise ArityError(
                "macro %r expects %d arguments, got %d"
                % (name, len(params), len(args)),
                pos,
            )
        return self._bounded(expand(name, *args), pos)


def parse_formula(text):
    """One formula in the built-in syntax.  Every built-in connective is
    read; the matrix that evaluates a formula decides which it may use."""
    p = _Parser(text)
    f = p.formula()
    p.end()
    return f


def parse_formula_set(text):
    """Comma-separated formulas; blank text is the empty set."""
    p = _Parser(text)
    if p.peek() is None:
        return frozenset()
    out = p.formulas(p.formula)
    p.end()
    return frozenset(out)


# --- rendering -----------------------------------------------------------

_PREC = {"imp": 1, "or": 2, "and": 3, "neg": 4, "circ": 4}
_SYM = {"neg": "~", "circ": "@", "and": " & ", "or": " | ", "imp": " => "}


def render_formula(f):
    """The text of f, which parse_formula reads back to f; made on the first
    call and kept on f, so it lives as long as the formula does."""
    text = f._text
    if text is None:
        text = f._text = _render(f)
    return text


def _render(f):
    if f.is_var:
        return f.head
    head = f.head
    if head in ("top", "bot"):
        return head
    if head not in _PREC:
        # a connective outside the built-in signature, in prefix form
        return "%s(%s)" % (head, ", ".join(map(render_formula, f.args)))
    if head in ("neg", "circ"):
        arg = f.args[0]
        body = render_formula(arg)
        if not arg.is_var and _PREC.get(arg.head, 4) < 4:
            body = "(" + body + ")"
        return _SYM[head] + body
    prec = _PREC[head]
    left, right = f.args
    ls = render_formula(left)
    rs = render_formula(right)
    # imp is right-associative; & and | are left-associative
    if _needs_parens(left, prec, left_side=True, assoc_right=(head == "imp")):
        ls = "(" + ls + ")"
    if _needs_parens(right, prec, left_side=False, assoc_right=(head == "imp")):
        rs = "(" + rs + ")"
    return ls + _SYM[head] + rs


def _needs_parens(child, parent_prec, left_side, assoc_right):
    if child.is_var or child.head not in _PREC:
        return False
    cp = _PREC[child.head]
    if cp > parent_prec:
        return False
    if cp < parent_prec:
        return True
    # equal precedence: parenthesize against the associativity direction
    return left_side if assoc_right else not left_side


# --- structural operations -----------------------------------------------

def subformulas(fs):
    """Subformula closure of a formula or an iterable of formulas."""
    if isinstance(fs, Formula):
        fs = (fs,)
    out = set()
    stack = list(fs)
    while stack:
        f = stack.pop()
        if f in out:
            continue
        out.add(f)
        if f.args:
            stack.extend(f.args)
    return out


def variables(fs):
    return {g.head for g in subformulas(fs) if g.is_var}


def generalized_subformulas(base, xi):
    """sub(base) plus all instantiations of xi members into sub(base)."""
    subs = subformulas(base)
    ordered = sorted(subs, key=canon_key)
    out = set(subs)
    for phi in sorted(xi, key=canon_key):
        vs = sorted(variables(phi))
        if not vs:
            out.add(phi)
            continue
        for combo in product(ordered, repeat=len(vs)):
            out.add(substitute(phi, dict(zip(vs, combo))))
    return out


def big_and(fs):
    """Right-associated conjunction; empty set yields top."""
    items = list(fs)
    if not items:
        return app("top")
    out = items[-1]
    for f in reversed(items[:-1]):
        out = app("and", f, out)
    return out


def big_or(fs):
    """Right-associated disjunction; empty set yields bot."""
    items = list(fs)
    if not items:
        return app("bot")
    out = items[-1]
    for f in reversed(items[:-1]):
        out = app("or", f, out)
    return out
