"""Scalar fields: which moduli make a prime field."""

import time

import pytest

import leavitt as L
from leavitt.fields import field_from_name

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
    f7 = L.GF(7)
    assert f7.from_fraction(3, 2) == f7.from_int(5)
    for den in (7, 14, -21):
        with pytest.raises(L.PreconditionError, match=f"denominator {den} is zero in F_7"):
            f7.from_fraction(1, den)
