"""Elements stored as integer numerators over one denominator, against the
scalar-storing operations they replaced (``conftest.ScalarElement`` and its
printer, matrix, window and Laurent images): the same values in the same
stored order, the same text, and the same scalars wherever a caller reads
one, on random graphs over QQ and F_7. Coefficients run past 2^64, sums
cancel over the integers or only mod 7, and results are zero. Also the
scalars ``Element`` and ``scale`` accept, and the basis order."""

import re
from fractions import Fraction

import pytest

import leavitt as L
from leavitt import Element, Monomial, Path, toeplitz
from leavitt.algebra import _key
from leavitt.fields import PrimeFieldElement

from conftest import (
    ScalarElement,
    assert_stored_form,
    loop_designated_toeplitz,
    random_acyclic_graph,
    random_graph,
    raw_monomials,
    scalar_format_element,
    scalar_from_matrix,
    scalar_items,
    scalar_laurent_image,
    scalar_to_matrix,
    scalar_window_rows,
    seeded,
    sort_key_basis_monomials_up_to,
)

F7 = L.GF(7)
FIELDS = [L.QQ, F7]
BIG = 2**80
MERSENNE = 2**61 - 1  # prime, and 1 mod 7
# (numerator, denominator); over F_7 only the denominators prime to 7
SCALARS = [
    (1, 1), (-1, 1), (2, 1), (3, 1), (4, 1), (-3, 1), (1, 2), (-2, 3), (5, 6),
    (BIG, 1), (-BIG, 3), (1, MERSENNE), (MERSENNE, BIG), (-BIG - 1, MERSENNE), (BIG, 7),
]


def options(field):
    return [(n, d) for n, d in SCALARS if field == L.QQ or d % 7]


def coefficient(rng, field):
    """An int, a Fraction or a scalar of the field, for n/d drawn from SCALARS."""
    n, d = rng.choice(options(field))
    kind = rng.randrange(3)
    if kind == 0 and d == 1:
        return n
    return Fraction(n, d) if kind < 2 else field.scalar(n, d)


def pair(g, field, terms):
    """The Element of (Monomial, scalar) terms, and its ScalarElement built by
    the scalar-storing kernel from the same terms as field scalars."""
    old = [(_key(m), field.scalar(*field_pair(c))) for m, c in terms]
    return Element(g, field, terms), ScalarElement._from_raw(g, field, old)


def field_pair(c):
    """(numerator, denominator) of an int, a Fraction or a field scalar."""
    if isinstance(c, PrimeFieldElement):
        return c.residue, 1
    return c.numerator, c.denominator


def random_terms(rng, pool, field, size=5):
    terms = [(rng.choice(pool), coefficient(rng, field)) for _ in range(rng.randint(1, size))]
    if rng.random() < 0.3:  # a monomial whose coefficients sum to 0, or to 7 = 0 in F_7
        m, c = rng.choice(pool), rng.choice([-3, -2, 2, 3, 5])
        terms += [(m, c), (m, (7 if field == F7 and rng.random() < 0.7 else 0) - c)]
        rng.shuffle(terms)
    return terms


def assert_same(x, old):
    """x holds old's normal form, in old's stored order; every read agrees."""
    assert_stored_form(x)
    assert scalar_items(x) == scalar_items(old)
    assert x.is_zero() == old.is_zero()
    assert L.format_element(x) == scalar_format_element(old)
    for m, c in x.terms.items():
        assert type(c) is type(old._flat[_key(m)])
        assert x.coefficient(m) == c and type(x.coefficient(m)) is type(c)


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "f7"])
def test_arithmetic_matches_the_scalar_storing_elements(field):
    rng = seeded(f"integer-storage-{field!r}")
    zeros = cancelled = big = 0
    for _ in range(60):
        g = random_graph(rng)
        pool = raw_monomials(g)
        (x, ox), (y, oy) = (pair(g, field, random_terms(rng, pool, field)) for _ in "xy")
        c = coefficient(rng, field)
        oc = field.scalar(*field_pair(c))
        cases = [
            (x, ox), (y, oy), (x * y, ox * oy), (x * y.star(), ox * oy.star()),
            (y.star() * x, oy.star() * ox), (x.star(), ox.star()), (x + y, ox + oy),
            (x - y, ox - oy), (x - x, ox - ox), (-x, -ox), (x.scale(c), ox.scale(oc)),
            ((x + y) * (x - y).star(), (ox + oy) * (ox - oy).star()),
        ]
        for z, oz in cases:
            assert_same(z, oz)
            zeros += z.is_zero()
            big += any(abs(n) > 2**64 for n in z._flat.values()) or z._den > 2**64
        cancelled += (x - x).is_zero() and not x.is_zero()
    assert zeros > 60 and cancelled > 30 and big > (100 if field == L.QQ else -1)


def test_sums_that_cancel_only_mod_p_leave_no_term():
    """Sums of 7 and 14 vanish in F_7: in a sum, in the raw terms of one
    element, in a product's integer sums (2 e + 5 e e* e) and in a scaling."""
    g = L.toeplitz_graph()
    x = L.parse_element(g, "3*e + 2*f*f' + 4*v", F7)
    y = L.parse_element(g, "4*e + 5*f*f' + 3*v", F7)
    assert (x + y).is_zero() and L.format_element(x + y) == "0"
    assert Element(g, F7, [(m, 7 - c) for m, c in x.terms.items()] + list(x.terms.items())).is_zero()
    z = L.parse_element(g, "2*v + 5*e*e'", F7) * L.parse_element(g, "e", F7)
    assert z.is_zero() and z == Element.zero(g, F7)
    for k in (7, 14, -7 * BIG):
        assert x.scale(k).is_zero() and x.scale(k) == Element.zero(g, F7)
    sx, sy = (ScalarElement.of(e) for e in (x, y))
    assert scalar_items(x * y) == scalar_items(sx * sy)
    assert_stored_form(x * y)


def test_scale_coerces_its_scalar_through_the_field():
    g = L.toeplitz_graph()
    x = L.parse_element(g, "e + 2*f", F7)
    assert L.format_element(x.scale(7)) == "0" and x.scale(7).is_zero()
    assert x.scale(7) == Element.zero(g, F7)
    assert x.scale(Fraction(1, 2)) == x.scale(4) == x.scale(F7.scalar(4))
    assert L.format_element(x.scale(Fraction(1, 2))) == "4*e + f"
    with pytest.raises(L.PreconditionError, match=r"denominator 7 is zero in F_7"):
        x.scale(Fraction(1, 7))
    with pytest.raises(L.LeavittError):
        x.scale(L.GF(5).scalar(2))
    with pytest.raises(L.LeavittError):
        L.parse_element(g, "e").scale(F7.one())
    q = L.parse_element(g, "1/2*e + 3*f")
    assert L.format_element(q.scale(Fraction(2, 3))) == "1/3*e + 2*f"
    assert q.scale(0).is_zero() and q.scale(Fraction(0)) == Element.zero(g)


def test_the_constructor_stores_exact_scalars_of_its_field():
    g = L.toeplitz_graph()
    v = Monomial(Path.trivial(g, "v"), Path.trivial(g, "v"))
    e = Monomial(Path(g, "v", ("e",)), Path.trivial(g, "v"))
    x = Element(g, F7, [(v, 9), (e, Fraction(1, 2)), (e, F7.scalar(3))])
    assert L.format_element(x) == "2*v" and x == L.parse_element(g, "2*v", F7)
    assert Element(g, F7, [(v, 7)]).is_zero()
    q = Element(g, L.QQ, [(v, 2), (e, Fraction(4, 6)), (e, Fraction(-1, 6))])
    assert L.format_element(q) == "2*v + 1/2*e"
    assert type(q.coefficient(e)) is Fraction and q.coefficient(e) == Fraction(1, 2)
    for bad in (2.5, L.GF(5).one(), "1"):
        with pytest.raises(L.PreconditionError):
            Element(g, L.QQ, [(v, bad)])
    with pytest.raises(L.PreconditionError, match=r"denominator 14 is zero in F_7"):
        Element(g, F7, [(v, Fraction(1, 14))])


@pytest.mark.parametrize("p", [7, MERSENNE], ids=["f7", "mersenne61"])
def test_prime_field_canonical_reduces_in_place(p):
    """canonical reduces the dict it is given, keeping the order and the
    items of the comprehension it replaced: the nonzero residues."""
    field, rng = L.GF(p), seeded(f"integer-storage-canonical-{p}")
    for _ in range(200):
        size = rng.randint(0, 12)
        flat = {k: rng.choice([0, p, -p, 1, -1, 3 * p + 2, rng.randint(-BIG, BIG)]) for k in range(size)}
        expected = {k: r for k, n in flat.items() if (r := n % p)}
        got, den = field.canonical(flat, 1)
        assert got is flat and den == 1
        assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "f7"])
def test_matrix_images_match_the_scalar_storing_copies(field):
    rng = seeded(f"integer-storage-matrices-{field!r}")
    inverses = 0
    for _ in range(40):
        g = random_acyclic_graph(rng)
        d = L.matrix_decomposition(g)
        pool = [m for m in raw_monomials(g, 4) if m.real.range in g.sinks() or rng.random() < 0.5]
        x, ox = pair(g, field, random_terms(rng, pool, field, size=6))
        bm = L.to_matrix(x, d)
        assert bm == scalar_to_matrix(ox, d)
        for block in bm.blocks:
            for row in block.nonzero_rows.values():
                assert all(type(c) is type(field.one()) and c for c in row.values())
        images = [bm]
        try:
            images.append(bm.group_inverse())
            inverses += 1
        except L.NotGroupInvertible:
            pass
        for image in images:
            back = L.from_matrix(image, d, field)
            assert_same(back, scalar_from_matrix(image, d, field))
        assert L.from_matrix(bm, d, field) == x
    assert inverses > 10


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "f7"])
def test_window_and_laurent_images_match_the_scalar_storing_copies(field):
    rng = seeded(f"integer-storage-windows-{field!r}")
    compared = 0
    for g in (L.toeplitz_graph(), loop_designated_toeplitz()):
        d = L.recognize_toeplitz(g)
        pool = L.basis_monomials_up_to(g, 6)
        for window in range(1, 13):
            for _ in range(6):
                x, ox = pair(g, field, random_terms(rng, pool, field, size=6))
                assert L.laurent_quotient(x) == scalar_laurent_image(ox, d)
                try:
                    expected = scalar_window_rows(ox, d, window)
                except L.PreconditionError as exc:
                    with pytest.raises(L.PreconditionError, match=re.escape(str(exc))):
                        L.rcfm_representation(x, window)
                    continue
                rows = toeplitz._window_rows(x, d, window)
                assert {i: {j: field.scalar(n, x._den) for j, n in r.items()} for i, r in rows.items()} == expected
                matrix = L.rcfm_representation(x, window).matrix
                assert matrix.nonzero_rows == expected
                assert all(type(c) is type(field.one()) for r in matrix.nonzero_rows.values() for c in r.values())
                compared += 1
    assert compared > 100


def test_basis_order_matches_the_sort_key_sort():
    """The basis monomials in the order two Path.sort_key calls per monomial
    gave: on random graphs and on the Toeplitz families T1-T8, E(n, line n)."""
    rng = seeded("basis-order-by-rank")
    graphs = [(random_graph(rng), d) for d in (0, 1, 2, 3, 4) for _ in range(12)]
    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        F = L.line_graph(n)
        graphs += [(L.build_toeplitz_family(n, F, F.vertices), d) for d in (0, 2, 5)]
    checked = 0
    for g, d in graphs:
        try:
            expected = sort_key_basis_monomials_up_to(g, d)
        except L.LimitExceeded:
            continue
        assert L.basis_monomials_up_to(g, d) == expected, (g.name, d)
        checked += len(expected)
    assert checked > 5000
