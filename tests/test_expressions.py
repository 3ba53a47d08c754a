"""Expression grammar: round trips, scalars, fields, and syntax errors."""

import pytest

import leavitt as L
from leavitt import Element, ExpressionSyntaxError, Graph, Monomial, Path, UnknownIdentifier
from leavitt import expressions
from leavitt.expressions import MAX_NESTING

from conftest import (
    corpus_graphs,
    item_sorting_format_element,
    one_pass_scan_parse_element,
    random_element,
    random_graph,
    raw_monomials,
    reference_parse_element,
    rose_power_product,
    seeded,
)


def test_scalars_and_signs(toeplitz):
    x = L.parse_element(toeplitz, "2*v - 3/2*e")
    assert L.format_element(x) == "2*v - 3/2*e"
    assert L.parse_element(toeplitz, "-v") == -Element.vertex(toeplitz, "v")
    assert L.parse_element(toeplitz, "  v+ w ") == Element.identity(toeplitz)


def test_zero_round_trip(toeplitz):
    zero = L.parse_element(toeplitz, "0")
    assert zero.is_zero()
    assert L.format_element(zero) == "0"
    assert L.parse_element(toeplitz, "v - v").is_zero()


def test_primes_and_parentheses(toeplitz):
    assert L.parse_element(toeplitz, "(e*f)''") == L.parse_element(toeplitz, "e*f")
    assert L.parse_element(toeplitz, "(v + e)'") == L.parse_element(toeplitz, "v + e'")
    ghost = L.parse_element(toeplitz, "f'")
    assert list(ghost.terms)[0].ghost.edges == ("f",)
    for depth in (50, MAX_NESTING):
        nested = "(" * depth + "e" + ")'" * depth
        assert L.parse_element(toeplitz, nested) == L.parse_element(toeplitz, "e'" if depth % 2 else "e")


def test_print_parse_round_trip_random():
    rng = seeded("roundtrip")
    for g in corpus_graphs():
        pool = raw_monomials(g)
        for _ in range(25):
            x = random_element(g, rng, pool)
            assert L.parse_element(g, L.format_element(x)) == x


def test_round_trip_over_prime_field(toeplitz):
    field = L.GF(5)
    x = L.parse_element(toeplitz, "3*v + 4*e*e'", field)
    printed = L.format_element(x)
    assert L.parse_element(toeplitz, printed, field) == x
    # -1 = 4 in F_5, printed as a plain residue
    y = L.parse_element(toeplitz, "-v", field)
    assert L.format_element(y) == "4*v"


def test_division_scalar(toeplitz):
    x = L.parse_element(toeplitz, "1/3*v")
    assert x.coefficient(list(x.terms)[0]) == L.QQ.from_fraction(1, 3)
    f5 = L.GF(5)
    y = L.parse_element(toeplitz, "1/3*v", f5)  # 3^-1 = 2 mod 5
    assert L.format_element(y) == "2*v"


def test_syntax_errors(toeplitz):
    too_deep = ["(" * depth + "v" + ")" * depth for depth in (MAX_NESTING + 1, 2000)]
    for bad in ["", "v +", "2*", "(v", "v)", "2", "3/0*v", "v ** w", "$"] + too_deep:
        with pytest.raises(ExpressionSyntaxError):
            L.parse_element(toeplitz, bad)
    with pytest.raises(UnknownIdentifier):
        L.parse_element(toeplitz, "v + zz")


def test_noncomposable_product_is_zero_not_error(toeplitz):
    assert L.parse_element(toeplitz, "v*w").is_zero()
    assert L.parse_element(toeplitz, "f*e").is_zero()


# ---------------------------------------------------------------------------
# The word fold against the per-atom reference parser


def _outcome(parse, g, text, field):
    try:
        x = parse(g, text, field)
    except Exception as exc:  # the error type and message are part of the outcome
        return type(exc), str(exc)
    return x.terms


def _generators(g):
    """(text, left vertex, right vertex) of every vertex, edge and ghost edge."""
    out = [(v, v, v) for v in g.vertices]
    out += [(e.name, e.src, e.dst) for e in g.edges]
    out += [(e.name + "'", e.dst, e.src) for e in g.edges]
    return out


def _random_word(g, rng, depth):
    """Mostly composable generators, so that many words survive; now and then
    a parenthesised expression, an unknown identifier or extra primes."""
    gens = _generators(g)
    at, factors = rng.choice(g.vertices), []
    for _ in range(rng.randint(1, 7)):
        roll = rng.random()
        if roll < 0.01:
            factors.append("zz")
            continue
        if depth and roll < 0.12:
            inner = _random_expression(g, rng, depth - 1)
            factors.append(f"({inner})" + "'" * rng.randint(0, 3))
            continue
        nxt = [x for x in gens if x[1] == at] if roll < 0.85 else gens
        text, _, at = rng.choice(nxt or gens)
        factors.append(text + "''" * rng.choice((0, 0, 0, 1, 2)))
    coeff = rng.choice(["", "", "", "0*", "7*", "2*", "3/4*", "5/3*", "14/2*"])
    return coeff + "*".join(factors)


def _random_expression(g, rng, depth=2):
    text = ("-" if rng.random() < 0.2 else "") + _random_word(g, rng, depth)
    for _ in range(rng.randint(0, 3)):
        text += rng.choice([" + ", " - "]) + _random_word(g, rng, depth)
    return text


def _mutate(text, rng):
    """One character inserted or deleted: syntax errors, in their order. The
    inserted ones include a bad character, a non-ASCII digit (Arabic-Indic
    three) and whitespace other than a space (no-break space, tab)."""
    i = rng.randrange(len(text) + 1)
    if rng.random() < 0.5:
        return text[:i] + rng.choice("()*+-'/0 $\u0663\u00a0\t") + text[i:]
    return text[:i] + text[i + 1:]


def _flat_outcome(parse, g, text, field):
    """The normal form as its stored (key, coefficient) items, in dict order,
    or the error type and message."""
    try:
        x = parse(g, text, field)
    except Exception as exc:
        return type(exc), str(exc)
    return list(x._flat.items())


def _assert_parsers_agree(g, text, field):
    """The normal form of the per-atom reference parser, and the stored items,
    in order, of the one-pass scan the token-list parser replaced."""
    assert _outcome(L.parse_element, g, text, field) == _outcome(
        reference_parse_element, g, text, field
    ), (g.to_dsl(), text, field)
    assert _flat_outcome(L.parse_element, g, text, field) == _flat_outcome(
        one_pass_scan_parse_element, g, text, field
    ), (g.to_dsl(), text, field)


_FIELDS = [L.QQ, L.GF(7), L.GF(2)]


def test_word_fold_matches_reference_parser():
    """Random expressions, each also with one character inserted or deleted,
    and printed random elements, over QQ, F_7 and F_2."""
    rng = seeded("word-fold")
    for _ in range(60):
        g = random_graph(rng)
        pool = raw_monomials(g, max_len=2)
        texts = []
        for _ in range(12):
            text = _random_expression(g, rng)
            texts += [text, _mutate(text, rng)]
        texts += [L.format_element(random_element(g, rng, pool)) for _ in range(4)]
        for text in texts:
            for field in _FIELDS:
                _assert_parsers_agree(g, text, field)


_NEST = "(" * MAX_NESTING + "e" + ")'" * MAX_NESTING


@pytest.mark.parametrize(
    "text",
    [
        "f*e*zz",  # a zero product, then an unknown identifier
        "w*v*zz*e",
        "f*e*(v + zz)",
        "(f*e)'*zz",
        "0*zz",
        "7*e*zz",
        "e*(zz",
        "e*f*(v)*",
        "v''' + e'''' - (e + f)''*f''' + (v)'",
        "0*(e + f)'' - 7*v + 1/7*e",
        "3/4*e*e' - 2/6*(v + w)*f*f' + 0",
        "-0 + 0*e",
        "((e'*e)*(f'*f))'*v",
        "e*f*f'*e' - e*e' + (e*f)*(e*f)'",
        "zz + $",  # a bad character anywhere wins, also after an unknown identifier
        "(zz $",
        "\u0663*v",  # Arabic-Indic three, a digit to \d
        "v +\tv",
        "e ' '",
        "v 3",  # trailing input at token 3
        "3 /4*v",
        "07*v",
        "1/7*zz",  # over F_7 the zero denominator wins over the unknown identifier
        "e*",
        "v+",
        "   ",
        "(e*f')''",
        "\u0663 / \u0663*e",
        "v\u00a0+ e",  # no-break space
        "\tv\t",
        "0/5",
        "0/5 + e",
        "2/0*e",
        "2/*e",
        "2/e",
        "2 e",
        "2/3/4*e",
        "e*(",
        "e*3*f",
        "--e",
        "+e",
        "'e",
        "(f*e)'*e*zz",
        "e*(v)*f*zz",
        "e (v)",
        "v ** w",
        "12ab",
        "e\u0663",
        pytest.param(_NEST, id="nested-to-the-bound"),
        pytest.param("(" + _NEST + ")", id="nested-past-the-bound"),
        pytest.param(_NEST[:-2] + "*f", id="nested-to-the-bound-unclosed"),
    ],
)
def test_word_fold_matches_reference_on_edge_cases(toeplitz, text):
    for field in _FIELDS:
        _assert_parsers_agree(toeplitz, text, field)


def test_each_expression_is_tokenised_once(monkeypatch):
    """One findall per expression, however many terms, generators or
    parentheses it holds."""
    texts = []
    tokens = expressions._tokens
    monkeypatch.setattr(expressions, "_tokens", lambda text: texts.append(text) or tokens(text))
    g = Graph("rose2", ["v"], [("e1", "v", "v"), ("e2", "v", "v")])
    rng = seeded("tokenised-once")
    word = "*".join(rng.choice(("e1", "e2", "e1'", "e2'")) for _ in range(4000))
    total = " + ".join(f"{k % 9 + 1}*e{k % 2 + 1}*e{k % 3 % 2 + 1}'" for k in range(1000))
    nest = "(" * 50 + "e1 + 2*e2" + ")'" * 50
    for text in (word, total, nest):
        texts.clear()
        L.parse_element(g, text)
        assert texts == [text]


def test_error_messages_of_the_one_pass_scan(toeplitz):
    cases = [
        ("zz + $", L.QQ, ExpressionSyntaxError, "unexpected character '$' at position 5"),
        ("v 3", L.QQ, ExpressionSyntaxError, "trailing input at token 3"),
        ("v +", L.QQ, ExpressionSyntaxError, "expected identifier or '(', got None"),
        ("(v w", L.QQ, ExpressionSyntaxError, "expected ')', got 'w'"),
        ("3 /x*v", L.QQ, ExpressionSyntaxError, "expected positive integer denominator"),
        ("1/7*zz", L.GF(7), L.PreconditionError, "denominator 7 is zero in F_7"),
        ("\u00a0\t", L.QQ, ExpressionSyntaxError, "empty expression"),
    ]
    for text, field, error, message in cases:
        assert _outcome(L.parse_element, toeplitz, text, field) == (error, message), text
    assert L.parse_element(toeplitz, "\u0663*v") == L.parse_element(toeplitz, "3*v")


def test_unknown_identifier_after_a_zero_product():
    g = L.parse_graph("graph Z\nvertex u\nvertex w\nedge e u w\nedge f u w\n")
    assert L.parse_element(g, "e*f").is_zero()
    for text in ("e*f*zz", "(e*f)'*zz"):
        with pytest.raises(UnknownIdentifier, match="unknown identifier 'zz' in graph 'Z'"):
            L.parse_element(g, text)


def test_nesting_bound_message_unchanged(toeplitz):
    text = "(" * (MAX_NESTING + 1) + "v" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ExpressionSyntaxError, match="^parentheses nested deeper than 100$"):
        L.parse_element(toeplitz, text)


def test_long_word_parses_to_one_monomial():
    # 20,000 generators on the two-petal rose: a real path p, ghost edges
    # prepended to q, then real edges cancelling the newer half of q.
    g = Graph("rose2", ["v"], [("e1", "v", "v"), ("e2", "v", "v")])
    rng = seeded("long-word")
    real = [rng.choice(("e1", "e2")) for _ in range(7999)] + ["e1"]
    ghosts = ["e2"] + [rng.choice(("e1", "e2")) for _ in range(7999)]
    text = "*".join(real + [e + "'" for e in ghosts] + ghosts[:3999:-1])
    assert text.count("*") == 19999
    expected = Monomial(Path(g, "v", real), Path(g, "v", ghosts[3999::-1]))
    assert expected.is_basis()
    assert L.parse_element(g, text).terms == {expected: 1}


# -- the printer against the item-sorting printer it replaced ------------------


def test_printer_matches_the_item_sorting_printer_on_random_graphs():
    """Random elements and their products print as the printer that sorted
    (key, coefficient) items did, over QQ and F_7."""
    rng = seeded("key-sorting-printer")
    for field in (L.QQ, L.GF(7)):
        for _ in range(60):
            g = random_graph(rng)
            pool = raw_monomials(g)
            x, y = (random_element(g, rng, pool, size=6, field=field) for _ in "xy")
            for z in (x, y, x * y, x * y.star(), x.star() * y):
                assert L.format_element(z) == item_sorting_format_element(z)


@pytest.mark.parametrize("field", [L.QQ, L.GF(7)], ids=["qq", "f7"])
def test_printer_matches_the_item_sorting_printer_on_the_rose_cube(field):
    z = rose_power_product(4, 3, field)
    assert z.support_size() == 3277
    assert L.format_element(z) == item_sorting_format_element(z)


def test_printer_orders_edges_by_declaration_not_by_name():
    """Edges declared e10, e2, e1: index order is e10 < e2 < e1, while a
    sort by names would put e1 first, and e10 before e2."""
    g = Graph("G", ["v"], [("e10", "v", "v"), ("e2", "v", "v"), ("e1", "v", "v")])
    s = L.parse_element(g, "e10 + 2*e2 - e1")
    for z in (s, s * s, s * s.star(), s.star() * s * s):
        assert L.format_element(z) == item_sorting_format_element(z)
    assert L.format_element(s) == "e10 + 2*e2 - e1"
    assert L.format_element(s * s) == (
        "e10*e10 + 2*e10*e2 - e10*e1 + 2*e2*e10 + 4*e2*e2 - 2*e2*e1 - e1*e10 - 2*e1*e2 + e1*e1"
    )
    assert L.format_element(s * s.star()) == (
        "v + 2*e10*e2' - e10*e1' + 2*e2*e10' + 3*e2*e2' - 2*e2*e1' - e1*e10' - 2*e1*e2'"
    )
