"""Parsing, rendering, macros and subformula machinery."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import formulas, make_rng, random_formula
from mvlogic.errors import ArityError, FormulaSyntaxError, UnknownConnective
from mvlogic.formula import (
    MAX_NESTING,
    MAX_SIZE,
    app,
    big_and,
    big_or,
    generalized_subformulas,
    parse_formula,
    parse_formula_set,
    render_formula,
    subformulas,
    substitute,
    var,
    variables,
)
from mvlogic.registry import ALG_PP6H


def test_parse_basic():
    f = parse_formula("~(p & q)")
    assert f == app("neg", app("and", var("p"), var("q")))


def test_imp_right_associative():
    f = parse_formula("p => q => r")
    assert f == app("imp", var("p"), app("imp", var("q"), var("r")))


def test_precedence():
    f = parse_formula("~p & q | r => s")
    expected = app(
        "imp",
        app("or", app("and", app("neg", var("p")), var("q")), var("r")),
        var("s"),
    )
    assert f == expected


def test_constants():
    assert parse_formula("top") == app("top")
    assert parse_formula("bot") == app("bot")


def test_macro_up():
    f = parse_formula("up(p)")
    assert f == app("circ", app("imp", app("neg", var("p")), var("p")))


def test_macro_down():
    f = parse_formula("down(p)")
    assert f == app("circ", app("imp", var("p"), app("neg", var("p"))))


def test_macro_hneg_delta():
    p = var("p")
    hneg = parse_formula("hneg(p)")
    assert hneg == app("imp", p, app("neg", app("imp", p, p)))
    # delta(p) is hneg applied to ~p
    delta = parse_formula("delta(p)")
    assert delta == substitute(hneg, {"p": app("neg", p)})


def test_macro_wimp_iff_nabla():
    p, q = var("p"), var("q")
    assert parse_formula("nabla(p)") == app(
        "or", p, app("neg", app("circ", p))
    )
    assert parse_formula("wimp(p, q)") == app(
        "or", app("or", app("neg", p), app("neg", app("circ", p))), q
    )
    assert parse_formula("iff(p, q)") == app(
        "and", app("imp", p, q), app("imp", q, p)
    )


def test_macro_arguments_are_formulas():
    f = parse_formula("up(p & q)")
    pq = app("and", var("p"), var("q"))
    assert f == app("circ", app("imp", app("neg", pq), pq))


def test_parse_errors():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p &")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(p")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p q")
    with pytest.raises(UnknownConnective):
        parse_formula("frobnicate(p)")
    with pytest.raises(ArityError):
        parse_formula("wimp(p)")


def test_parse_error_names_the_character_after_whitespace():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p == q")
    assert str(err.value) == "unexpected character '=' (at position 2)"
    assert err.value.position == 2


def test_nesting_bound():
    # at the bound parsing, rendering and substituting fit in the default
    # recursion limit; one level past it is a syntax error, not a crash
    n = MAX_NESTING
    h = n // 2  # a prefix operator and a bracket per step
    q = var("q")
    for deep, too_deep in [
        ("~" * n + "p", "~" * (n + 1) + "p"),
        ("(" * n + "p" + ")" * n, "(" * (n + 1) + "p" + ")" * (n + 1)),
        ("~(" * h + "p" + ")" * h, "~(" * h + "~p" + ")" * h),
        (" & ".join(["p"] * (n + 1)), " & ".join(["p"] * (n + 2))),
        (" => ".join(["p"] * (n + 1)), " => ".join(["p"] * (n + 2))),
    ]:
        f = parse_formula(deep)
        assert f.depth <= n
        assert parse_formula(render_formula(f)) is f
        g = substitute(f, {"p": q})
        assert render_formula(g) == render_formula(f).replace("p", "q")
        with pytest.raises(FormulaSyntaxError, match="nested more than"):
            parse_formula(too_deep)
    assert parse_formula_set(", ".join(["~" * n + "p"] * 2))
    with pytest.raises(FormulaSyntaxError):
        parse_formula_set("q, " + "~" * 3000 + "p")


def test_size_bound():
    # up(p) repeats p, so each nested call doubles the size: 2 ** (k + 2) - 3
    # nodes at k calls
    assert parse_formula("up(" * 14 + "p" + ")" * 14).size == 2 ** 16 - 3
    assert 2 ** 17 - 3 > MAX_SIZE
    with pytest.raises(FormulaSyntaxError, match="more than"):
        parse_formula("up(" * 15 + "p" + ")" * 15)


def test_parse_formula_set():
    fs = parse_formula_set("p, q & r, up(p)")
    assert len(fs) == 3
    assert parse_formula("q & r") in fs
    assert parse_formula_set("") == frozenset()
    # commas inside parentheses do not split
    fs = parse_formula_set("wimp(p, q), r")
    assert len(fs) == 2
    assert parse_formula_set("  ") == frozenset()


def test_parse_formula_set_error_positions_count_in_the_whole_text():
    for text, message, position in [
        ("p, q &", "unexpected end of input", 6),
        ("p, , q", "unexpected token ','", 3),
        ("p,", "unexpected end of input", 2),
        ("p, q )", "trailing input ')'", 5),
        ("p, (q, r)", "expected ')', found ','", 5),
    ]:
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula_set(text)
        assert str(err.value) == "%s (at position %d)" % (message, position)
        assert err.value.position == position


# text inserted into one element of a list to make it malformed
_JUNK = ["=", "#", "(", ")", "&", "|", "=>", "~", "q", "top"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(
        formulas(ALG_PP6H.connectives, ["p", "q", "p1", "x_y"], 8),
        min_size=1,
        max_size=4,
    ),
    st.data(),
)
def test_parse_formula_set_reads_the_list_in_one_pass_property(fs, data):
    texts = [render_formula(f) for f in fs]
    assert parse_formula_set(", ".join(texts)) == frozenset(fs)
    i = data.draw(st.integers(0, len(texts) - 1))
    at = data.draw(st.integers(0, len(texts[i])))
    texts[i] = texts[i][:at] + data.draw(st.sampled_from(_JUNK)) + texts[i][at:]
    try:
        parse_formula(texts[i])
        alone = None
    except FormulaSyntaxError as exc:
        alone = exc.position
    except UnknownConnective:  # a variable followed by "(" calls a macro
        alone = None
    assume(alone is not None)
    # the element fails where it fails alone, counted in the whole text
    offset = sum(len(t) + len(", ") for t in texts[:i])
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula_set(", ".join(texts))
    assert err.value.position == offset + alone


def test_render_examples():
    assert render_formula(parse_formula("p => q => r")) == "p => q => r"
    assert render_formula(parse_formula("~(p & q)")) == "~(p & q)"
    assert render_formula(app("top")) == "top"
    assert render_formula(parse_formula("(p => q) => r")) == "(p => q) => r"
    assert render_formula(parse_formula("(p | q) & r")) == "(p | q) & r"


def test_parse_render_round_trip_random():
    rng = make_rng(7)
    conns = dict(ALG_PP6H.connectives)
    for _ in range(300):
        f = random_formula(rng, conns, ["p", "q", "r"], 4)
        assert parse_formula(render_formula(f)) == f


@settings(max_examples=500, deadline=None, derandomize=True)
@given(formulas(ALG_PP6H.connectives, ["p", "q", "p1", "p123", "x_y"], 12))
def test_parse_render_round_trip_property(f):
    assert parse_formula(render_formula(f)) is f


def test_structural_equality_is_identity():
    a = parse_formula("~(p & q)")
    b = parse_formula("~(p & q)")
    assert a is b


def test_subformulas_of_up():
    p = var("p")
    f = parse_formula("up(p)")
    subs = subformulas(f)
    assert subs == {
        p,
        app("neg", p),
        app("imp", app("neg", p), p),
        f,
    }


def test_subformulas_closure():
    f = parse_formula("(p & q) | ~r")
    subs = subformulas(f)
    for g in subs:
        if g.args:
            for arg in g.args:
                assert arg in subs


def test_variables_and_substitute():
    f = parse_formula("(p & q) => p")
    assert variables(f) == {"p", "q"}
    g = substitute(f, {"p": parse_formula("r | s")})
    assert variables(g) == {"q", "r", "s"}
    assert substitute(var("p"), {"p": var("p")}) is var("p")


def test_substitute_homomorphic_random():
    rng = make_rng(11)
    conns = dict(ALG_PP6H.connectives)
    for _ in range(100):
        f = random_formula(rng, conns, ["p", "q"], 3)
        s = {
            "p": random_formula(rng, conns, ["r"], 2),
            "q": random_formula(rng, conns, ["s"], 2),
        }
        got = variables(substitute(f, s))
        expected = set()
        for v in variables(f):
            expected |= variables(s[v])
        assert got == expected


def test_generalized_subformulas():
    base = {parse_formula("p & q")}
    xi = {parse_formula("@x")}
    got = generalized_subformulas(base, xi)
    p, q, pq = var("p"), var("q"), parse_formula("p & q")
    assert got == {
        p, q, pq, app("circ", p), app("circ", q), app("circ", pq)
    }
    assert generalized_subformulas({var("p")}, set()) == {var("p")}
    got = generalized_subformulas(
        {var("p")}, {parse_formula("@(x => y)")}
    )
    assert got == {var("p"), parse_formula("@(p => p)")}


def test_generalized_subformulas_monotone():
    base1 = {parse_formula("p")}
    base2 = {parse_formula("p & q")}
    xi = {parse_formula("@x"), parse_formula("@(x => y)")}
    assert generalized_subformulas(base1, xi) <= generalized_subformulas(
        base2, xi
    )


def test_big_and_big_or():
    assert big_and([]) == app("top")
    assert big_or([]) == app("bot")
    p, q, r = var("p"), var("q"), var("r")
    assert big_or([p, q, r]) == app("or", p, app("or", q, r))
    assert big_and([p, q]) == app("and", p, q)
