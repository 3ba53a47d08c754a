"""Exact scalar fields: the rationals (default) and prime fields F_p.

All coefficient arithmetic is exact: no floating point. Elements store
coefficients as integers n over one denominator d in their field's canonical
form (``canonical``): d > 0 and gcd(d, every n) = 1 over QQ, residues 1..p-1
over d = 1 over F_p. A field turns scalars into (n, d) (``coerce``, ``encode``),
spells a term (``text``) and builds the scalar a caller reads: ``scalar(n, d)``
is n/d, the one way to build one (over F_p, n times the inverse of d mod p,
refused when p divides d).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import LeavittError, PreconditionError, string


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


# Scalars are immutable, so the recently built ones are shared across elements.
_fraction = lru_cache(maxsize=1 << 10)(Fraction)
_residue = lru_cache(maxsize=1 << 10)(PrimeFieldElement)


class _Field:
    """What the two fields share; the encoding of QQ unless overridden."""

    characteristic = 0

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def coerce(self, value):
        """(n, d) for an int, a Fraction or an element of this field, or refused."""
        if isinstance(value, PrimeFieldElement) and value.p == self.characteristic:
            return value.residue, 1
        if isinstance(value, (int, Fraction)):
            return self.encode(*value.as_integer_ratio())
        raise PreconditionError(f"{value!r} is not a scalar of {self!r}")

    def encode_terms(self, terms):
        """(raw, d): (key, scalar) terms as (key, integer) over their least common d."""
        raw, dens = [], []
        for k, c in terms:
            n, e = c.as_integer_ratio() if type(c) in (int, Fraction) else self.coerce(c)
            raw.append((k, n))
            dens.append(e)
        d = lcm(*dens)
        return raw if d == 1 else [(k, n * (d // e)) for (k, n), e in zip(raw, dens)], d

    def encode(self, numerator, denominator=1):
        """(n, d) for numerator/denominator, denominator > 0."""
        return numerator, denominator

    def numerator(self, n):  # an integer sum's canonical numerator
        return n

    def text(self, n, den):
        """str(Fraction(n, den)) without building it."""
        if den == 1:
            return str(n)
        g = gcd(n, den)
        return str(n // g) if g == den else f"{n // g}/{den // g}"

    def __eq__(self, other):
        return type(other) is type(self) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash((type(self).__name__, self.characteristic))


class RationalField(_Field):
    """The field of rational numbers, backed by fractions.Fraction."""

    name = "q"

    def scalar(self, n, den=1):
        return _fraction(n, den)

    def canonical(self, flat, den):
        """The canonical form of {key: nonzero integer} over den > 0, in place."""
        g = gcd(den, *flat.values()) if den != 1 else 1
        if g != 1:
            for k, n in flat.items():
                flat[k] = n // g
        return flat, den // g

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


class PrimeField(_Field):
    """F_p for a prime p below _MR_BOUND (about 3.3e24)."""

    def __init__(self, p):
        if not isinstance(p, int):
            raise PreconditionError(f"a modulus must be an integer, not {p!r}")
        if p >= _MR_BOUND:
            raise PreconditionError(f"{p} is too large: primality is exact only below {_MR_BOUND}")
        if not _is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        self.p = self.characteristic = p
        self.name = f"fp:{p}"

    def scalar(self, n, den=1):
        return _residue(n if den == 1 else self.encode(n, den)[0], self.p)

    def encode(self, numerator, denominator=1):
        """(residue, 1) of numerator/denominator; p | denominator is refused."""
        if not denominator % self.p:
            raise PreconditionError(f"denominator {denominator} is zero in F_{self.p}")
        return numerator * pow(denominator, -1, self.p) % self.p, 1

    def encode_terms(self, terms):
        """(raw, 1): (key, scalar) terms as (key, residue)."""
        p, coerce = self.p, self.coerce
        return [(k, c.residue if type(c) is PrimeFieldElement and c.p == p else coerce(c)[0])
                for k, c in terms], 1

    def canonical(self, flat, den):
        """The canonical form of {key: integer} over 1, in place: the nonzero residues."""
        p = self.p
        for k, n in flat.items():
            flat[k] = n % p
        for k in [k for k, r in flat.items() if not r]:
            del flat[k]
        return flat, 1

    def numerator(self, n):
        return n % self.p

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def common_denominator(parts):
    """(raw, d): the (key, integer) terms of parts [(raw, den)], in order, over d = lcm(dens)."""
    d = lcm(*(den for _, den in parts))
    out = []
    for raw, den in parts:
        out += raw if den == d else [(k, n * (d // den)) for k, n in raw]
    return out, d


def GF(p):
    return PrimeField(p)


def field_from_name(name):
    """Parse a CLI field tag: "q" or "fp:<p>"."""
    string(name, "a field tag")
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise PreconditionError(f"bad field tag {name!r}") from None
        return PrimeField(p)
    raise PreconditionError(f"bad field tag {name!r} (expected 'q' or 'fp:<p>')")
