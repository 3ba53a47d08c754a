"""Expression grammar: round trips, scalars, fields, and syntax errors."""

import pytest

import leavitt as L
from leavitt import Element, ExpressionSyntaxError, UnknownIdentifier
from leavitt.expressions import MAX_NESTING

from conftest import corpus_graphs, random_element, seeded


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
        for _ in range(25):
            x = random_element(g, rng)
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
