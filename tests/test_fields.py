"""Scalar fields: which moduli make a prime field, and F_p arithmetic."""

import time
from fractions import Fraction

import pytest

import leavitt as L
from leavitt.fields import PrimeFieldElement, field_from_name

# Carmichael numbers, a semiprime of two primes near 10^9, and strong
# pseudoprimes to every prime base up to 23 and up to 37 respectively.
COMPOSITES = [
    561,
    1105,
    41041,
    1000000016000000063,
    3825123056546413051,
    318665857834031151167461,
]
PRIMES = [2, 3, 10007, 2**61 - 1, 1000000000000000003, 3317044064679887385961813]


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_small_moduli_match_trial_division():
    for n in range(-3, 3000):
        if trial_division_is_prime(n):
            assert L.GF(n).p == n
        else:
            with pytest.raises(L.PreconditionError):
                L.GF(n)


def test_large_moduli_are_decided_quickly():
    start = time.perf_counter()
    for p in PRIMES:
        assert L.GF(p).p == p
        assert field_from_name(f"fp:{p}") == L.GF(p)
    for n in COMPOSITES:
        with pytest.raises(L.PreconditionError, match="not prime"):
            L.GF(n)
    with pytest.raises(L.PreconditionError, match="too large"):
        L.GF(2**89 - 1)
    assert time.perf_counter() - start < 1.0


def test_a_denominator_divisible_by_p_is_a_precondition_error():
    """scalar(n, d) reads n/d over F_p, and refuses a d that p divides."""
    f7 = L.GF(7)
    assert f7.scalar(3, 2) == f7.scalar(5) and f7.scalar(1, 2) == f7.scalar(4)
    for den in (7, 14, -21):
        with pytest.raises(L.PreconditionError, match=f"denominator {den} is zero in F_7"):
            f7.scalar(1, den)


def test_prime_field_elements_equal_their_residues_and_equal_fields_hash_alike():
    x = PrimeFieldElement(3, 7)
    assert x == 10 and x == 3 and x != 4
    assert repr(x) == "PrimeFieldElement(3, 7)" and str(x) == "3"
    for a, b in ((L.GF(7), L.GF(7)), (L.QQ, type(L.QQ)())):
        assert a == b and a is not b and hash(a) == hash(b)
    assert L.GF(7) != L.GF(5) and L.GF(7) != L.QQ


def test_prime_field_operators_are_residue_arithmetic():
    """Every F_7 operator, with an element or an int on either side, against
    arithmetic on residues mod 7; and the errors of each operand kind."""
    f7 = L.GF(7)

    def residue(x):
        assert type(x) is PrimeFieldElement and x.p == 7
        return x.residue

    ints = list(range(-9, 10)) + [True]
    for a in map(f7.scalar, range(7)):
        r = a.residue
        assert residue(-a) == -r % 7
        for b in map(f7.scalar, range(7)):
            s = b.residue
            assert residue(a + b) == (r + s) % 7
            assert residue(a - b) == (r - s) % 7
            assert residue(a * b) == r * s % 7
            if s:
                assert residue(a / b) == r * pow(s, -1, 7) % 7
        for k in ints:
            assert residue(a + k) == residue(k + a) == (r + k) % 7
            assert residue(a - k) == (r - k) % 7
            assert residue(k - a) == (k - r) % 7
            assert residue(a * k) == residue(k * a) == r * k % 7
            if k % 7:
                assert residue(a / k) == r * pow(k, -1, 7) % 7
        for zero in (0, 7, f7.zero()):
            with pytest.raises(ZeroDivisionError):
                a / zero
        with pytest.raises(L.LeavittError, match="mixed prime fields"):
            a + L.GF(11).one()
        for op in (
            lambda: a + 1.5,
            lambda: 1.5 + a,
            lambda: Fraction(1) + a,
            lambda: a * Fraction(1),
            lambda: 1 / a,
            lambda: a - "x",
        ):
            with pytest.raises(TypeError):
                op()
