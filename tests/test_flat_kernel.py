"""Elements stored as flat edge-tuple keys, against the Monomial-keyed kernel
they replaced (``conftest.ParentElement``): parsing, products, the
involution, sums, scaling, equality, coefficients, degrees, printing and the
``terms`` view."""

from fractions import Fraction

import pytest

import leavitt as L
from leavitt import Element, Graph, Monomial, Path, algebra
from leavitt.algebra import _key, _normal_form
from leavitt.fields import PrimeFieldElement

from conftest import (
    ParentElement,
    assert_stored_form,
    ParentParser,
    corpus_graphs,
    loop_designated_toeplitz,
    parent_format_element,
    parent_normalize_terms,
    random_graph,
    random_order_normal_form,
    raw_monomials,
    reference_parse_element,
    rose,
    rose_power_product,
    seeded,
    stack_normal_form,
)

FIELDS = [L.QQ, L.GF(7)]
# pairwise coprime denominators, so products need common denominators
SCALARS = [(1, 2), (-1, 3), (1, 5), (3, 7), (5, 6), (-2, 1), (1, 1), (4, 1)]


def graphs(rng):
    return [random_graph(rng) for _ in range(10)] + corpus_graphs() + [L.line_graph(64), rose(4)]


def scalars(field):
    return [field.scalar(n, d) for n, d in SCALARS if field == L.QQ or d % 7]


def raw_terms(rng, pool, field, size=5):
    options = scalars(field)
    return [(rng.choice(pool), rng.choice(options)) for _ in range(rng.randint(1, size))]


def assert_same(x, px):
    """x (flat keys) and px (Monomial keys) are the same element, read
    through every accessor."""
    assert x.terms == px.terms
    assert len(x.terms) == x.support_size() == len(px.terms)
    assert x.is_zero() == px.is_zero()
    for m, c in px.terms.items():
        assert x.coefficient(m) == c and type(x.coefficient(m)) is type(c)
    for m in x.terms:  # every part revalidates through the public constructors
        real, ghost = (Path(x.graph, p.source, p.edges) for p in (m.real, m.ghost))
        assert Monomial(real, ghost) == m
        assert (real.range, ghost.range) == (m.real.range, m.ghost.range)
    assert (x.real_degree(), x.ghost_degree(), x.total_degree()) == (
        px.real_degree(), px.ghost_degree(), px.total_degree()
    )
    assert L.format_element(x) == parent_format_element(px)


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "f7"])
def test_element_arithmetic_matches_the_monomial_kernel(field):
    rng = seeded(f"flat-arithmetic-{field!r}")
    for g in graphs(rng):
        pool = raw_monomials(g)
        for _ in range(12):
            raws = [raw_terms(rng, pool, field) for _ in range(2)]
            x, y = (Element(g, field, raw) for raw in raws)
            px, py = (ParentElement(g, field, raw) for raw in raws)
            c = rng.choice(scalars(field))
            pairs = [
                (x, px), (y, py), (x * y, px * py), (x * y.star(), px * py.star()),
                (y.star() * x, py.star() * px), (x.star(), px.star()), (x + y, px + py),
                (x - y, px - py), (x - x, px - px), (-x, -px), (x.scale(c), px.scale(c)),
                (x * x.star() - x * x.star(), ParentElement.zero(g, field)),
            ]
            for z, pz in pairs:
                assert_same(z, pz)
            assert (x == y) == (px == py)
            assert x == Element(g, field, list(reversed(raws[0])))


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "f7"])
def test_normal_form_in_a_random_order_matches_the_monomial_kernel(field):
    rng = seeded(f"flat-chooser-{field!r}")
    for g in graphs(rng):
        pool = raw_monomials(g)
        for _ in range(8):
            raw = raw_terms(rng, pool, field, size=8)
            expected = parent_normalize_terms(g, raw)
            assert Element(g, field, raw).terms == expected
            chosen = random_order_normal_form(g, raw, rng)
            assert chosen == expected
            assert all(type(m) is Monomial for m in chosen)


def parse_texts(g, rng, field):
    """Printed random elements, and products, sums and stars of them as the
    parser sees them: parenthesised, primed and scaled."""
    pool = raw_monomials(g)
    texts = []
    for _ in range(6):
        tx, ty = (L.format_element(Element(g, field, raw_terms(rng, pool, field))) for _ in "xy")
        n, d = rng.choice([s for s in SCALARS if field == L.QQ or s[1] % 7])
        texts += [tx, f"({tx}) * ({ty})'", f"{abs(n)}/{d}*({tx})' - ({ty}) + ({tx})*({tx})"]
    return texts


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "f7"])
def test_parse_element_matches_the_monomial_kernel(field):
    rng = seeded(f"flat-parse-{field!r}")
    for g in graphs(rng):
        for text in parse_texts(g, rng, field):
            x = L.parse_element(g, text, field)
            px = reference_parse_element(g, text, field, ParentParser)
            assert_same(x, px)
            assert_same(x * x.star(), px * px.star())
            assert L.parse_element(g, L.format_element(x), field) == x


@pytest.mark.parametrize(
    "text, zero",
    [
        ("(1/2*e + 1/3*f) * (1/5*e' + 1/7*f')", False),
        ("1/2*e*e' + 1/3*f*f' - 5/6*v", False),
        ("(5/6*e*e' + 1/7*f*f') * (2/3*v + 1/5*e*e')", False),
        ("(e*e' + f*f' - v) * (1/3*e)", True),
        ("1/5*(v - e*e') * e*e'", True),
        ("(1/2*e*e' + 1/2*f*f') * (2*v) - v", True),
    ],
)
def test_coprime_denominators_and_cancellation_on_the_toeplitz_graph(toeplitz, text, zero):
    x = L.parse_element(toeplitz, text)
    px = reference_parse_element(toeplitz, text, L.QQ, ParentParser)
    assert_same(x, px)
    assert x.is_zero() == zero
    assert_same(x * x.star(), px * px.star())


def test_rose_powers_match_the_monomial_kernel():
    g = rose(4)
    s = "(1/2*e1 + 1/3*e2 - 1/5*e3 + 5/6*e4)"
    for k in (1, 2, 3):
        text = "*".join([s] * k)
        x, px = L.parse_element(g, text), reference_parse_element(g, text, L.QQ, ParentParser)
        assert_same(x, px)
        assert_same(x * x.star(), px * px.star())


def coefficients(x):
    """x's coefficients as its public reads give them; the stored integers
    are checked for the stored invariant."""
    assert_stored_form(x)
    return list(x.terms.values()) + [x.coefficient(m) for m in x.terms]


@pytest.mark.parametrize(
    "texts",
    [
        ("2*e*e' + 3*f*f' - v", "e + 4*f"),  # all coefficients integral
        ("1/2*e*e' + 3*f*f' - 5/6*v", "1/3*e + 7*f + 1/5*v"),  # mixed denominators
    ],
)
def test_rational_coefficients_stay_fractions(toeplitz, texts):
    """Fraction(3) == 3 and their hashes agree, so only the type shows an
    integer that leaks out of the integer arithmetic of a product."""
    x, y = (L.parse_element(toeplitz, t) for t in texts)
    one = L.QQ.one()
    for z in (x, y, x * y, x * y.star(), y.star() * x * y, x * y + y, (x * y).scale(Fraction(2))):
        assert not z.is_zero()
        for c in coefficients(z):
            assert type(c) is Fraction
            assert type(one / c) is Fraction


def test_prime_field_coefficients_stay_residues(toeplitz):
    field = L.GF(7)
    x = L.parse_element(toeplitz, "1/2*e*e' + 3*f*f' - 5/6*v", field)
    y = L.parse_element(toeplitz, "1/3*e + 6*f + 2*v", field)
    for z in (x, y, x * y, x * y.star(), y.star() * x * y, x * y + y):
        assert not z.is_zero()
        for c in coefficients(z):
            assert type(c) is PrimeFieldElement and c.p == 7


# -- the one-loop kernel against the stack kernel it replaced ---------------------


def kernel_graphs(rng):
    """(graph, longest raw path): random graphs, T in both declaration orders,
    a long line, a comb, a ladder, rose(4), and a broom whose line of
    single-exit edges starts at a vertex with a sibling edge."""
    broom = Graph(
        "broom",
        ["y"] + [f"x{i}" for i in range(1, 9)],
        [("b", "x1", "y")] + [(f"a{i}", f"x{i}", f"x{i + 1}") for i in range(1, 8)],
    )
    fixed = [
        (L.toeplitz_graph(), 4), (loop_designated_toeplitz(), 4), (L.line_graph(30), 12),
        (L.comb_graph(5), 4), (L.ladder_graph(4), 6), (rose(4), 4), (broom, 10),
    ]
    return [(random_graph(rng), 3) for _ in range(30)] + fixed


def assert_same_as_the_stack_kernel(g, raw):
    """The same normal form of raw, with the same coefficient types, in the
    same insertion order; the kernel takes the terms in the order the stack
    kernel pops them."""
    got, expected = _normal_form(g, reversed(raw)), stack_normal_form(g, list(raw))
    assert [(k, type(c), c) for k, c in got.items()] == [
        (k, type(c), c) for k, c in expected.items()
    ], g.name


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "f7"])
def test_normal_form_matches_the_stack_kernel_in_value_and_order(field):
    rng = seeded(f"one-loop-raw-{field!r}")
    options = scalars(field) + [field.zero()]
    for g, max_len in kernel_graphs(rng):
        pool = [_key(m) for m in raw_monomials(g, max_len)]
        for _ in range(20):
            size = rng.randint(1, 12)
            assert_same_as_the_stack_kernel(g, [(rng.choice(pool), rng.choice(options)) for _ in range(size)])


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "f7"])
def test_products_normalise_as_the_stack_kernel_did(monkeypatch, field):
    """Every raw list the kernel is handed while elements are built and
    multiplied (integer sums over common denominators for products): random
    elements, rose(4) powers, and the full paths of a long line and their
    stars."""
    raws = []

    def recording(g, terms, *modulus):
        terms = list(terms)
        raws.append((g, terms[::-1]))  # as a stack kernel pops them
        return _normal_form(g, terms, *modulus)

    monkeypatch.setattr(algebra, "_normal_form", recording)
    rng = seeded(f"one-loop-products-{field!r}")
    for g, max_len in kernel_graphs(rng):
        pool = raw_monomials(g, max_len)
        for _ in range(6):
            x, y = (Element(g, field, raw_terms(rng, pool, field)) for _ in "xy")
            x * y, x * y.star(), y.star() * x
    for k in (1, 2, 3):
        rose_power_product(4, k, field)
    g = L.line_graph(64)
    x = Element(g, field, [
        (Monomial(Path(g, f"x{i}", tuple(f"a{j}" for j in range(i, 64))), Path.trivial(g, "x64")), c)
        for i, c in zip(range(1, 64, 7), scalars(field) * 2)
    ])
    x * x.star(), x.star() * x
    monkeypatch.undo()
    assert len(raws) > 1000
    for g, raw in raws:
        assert_same_as_the_stack_kernel(g, raw)
