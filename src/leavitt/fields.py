"""Exact scalar fields: the rationals (default) and prime fields F_p.

All coefficient arithmetic in the package is exact; equality of algebra
elements reduces to equality of these scalars, so no floating point is
allowed anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import LeavittError, PreconditionError


class PrimeFieldElement:
    """Residue in F_p: +, - and * with an element of the same field or an
    int on either side, / by one; ``_residue`` coerces for every operator."""

    __slots__ = ("residue", "p")

    def __init__(self, residue, p):
        self.residue = residue % p
        self.p = p

    def _residue(self, other):
        """The residue of an element of this field, an int as itself, or
        None for any other operand; mixing two prime fields raises."""
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise LeavittError(f"mixed prime fields F_{self.p} and F_{other.p}")
            return other.residue
        return other if isinstance(other, int) else None

    def __add__(self, other):
        r = self._residue(other)
        return NotImplemented if r is None else PrimeFieldElement(self.residue + r, self.p)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElement(-self.residue, self.p)

    def __sub__(self, other):
        r = self._residue(other)
        return NotImplemented if r is None else PrimeFieldElement(self.residue - r, self.p)

    def __rsub__(self, other):
        r = self._residue(other)
        return NotImplemented if r is None else PrimeFieldElement(r - self.residue, self.p)

    def __mul__(self, other):
        r = self._residue(other)
        return NotImplemented if r is None else PrimeFieldElement(self.residue * r, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._residue(other)
        if r is None:
            return NotImplemented
        if not r % self.p:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return PrimeFieldElement(self.residue * pow(r, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.residue == other % self.p
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.residue == other.residue
        return NotImplemented

    def __hash__(self):
        return hash((self.residue, self.p))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"PrimeFieldElement({self.residue}, {self.p})"

    def __str__(self):
        return str(self.residue)


class RationalField:
    """The field of rational numbers, backed by fractions.Fraction."""

    name = "q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, numerator, denominator=1):
        return Fraction(numerator, denominator)

    def scaled(self, values):
        """(ns, d): each value as an integer n over d, their least common denominator."""
        d = lcm(*(v.denominator for v in values))
        return [v.numerator * (d // v.denominator) for v in values], d

    def format(self, value):
        # Rational coefficients print with real signs; prime fields do not.
        return str(value)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational-field")

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin primality test, exact for n < _MR_BOUND."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for a prime p below _MR_BOUND (about 3.3e24)."""

    def __init__(self, p):
        if p >= _MR_BOUND:
            raise PreconditionError(f"{p} is too large: primality is exact only below {_MR_BOUND}")
        if not _is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        self.p = p
        self.name = f"fp:{p}"

    def zero(self):
        return PrimeFieldElement(0, self.p)

    def one(self):
        return PrimeFieldElement(1, self.p)

    def from_int(self, n):
        return PrimeFieldElement(n, self.p)

    def from_fraction(self, numerator, denominator=1):
        if not denominator % self.p:
            raise PreconditionError(f"denominator {denominator} is zero in F_{self.p}")
        return PrimeFieldElement(numerator * pow(denominator, -1, self.p), self.p)

    def scaled(self, values):
        """(residues, 1), as ``RationalField.scaled``."""
        return [v.residue for v in values], 1

    def format(self, value):
        return str(value.residue)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def field_from_name(name):
    """Parse a CLI field tag: "q" or "fp:<p>"."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise PreconditionError(f"bad field tag {name!r}") from None
        return PrimeField(p)
    raise PreconditionError(f"bad field tag {name!r} (expected 'q' or 'fp:<p>')")
