"""Sparse exact matrices over a field, with the group-inverse machinery.

A matrix is stored as an element is: its nonzero rows as integers
{row: {column: nonzero}} over one denominator, in the field's canonical
form, so every operation costs per nonzero entry, not per row or cell, and
builds no scalar: the views ``nonzero_rows`` and ``rows`` build them where
a caller reads. The images used here (a block per sink of an acyclic graph,
windows onto the Toeplitz action) hold a few nonzeros in few rows.

Everything is exact and runs one Gauss-Jordan kernel, ``_eliminate``, on
the stored integers: rref, rank factorization m = C R (C of full column
rank, R of full row rank), and the group inverse m# = C (RC)^-2 R, which
exists precisely when RC is invertible, i.e. when rank(m^2) = rank(m).

Since m# = m# m# m = m m# m#, the group inverse lives on the rows and
columns where m has a nonzero, so it is computed on that corner alone and
costs per nonzero, not per block size.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import NotGroupInvertible, PreconditionError, size
from .fields import QQ


class Matrix:
    """Immutable exact matrix: ``_rows`` {row: {column: nonzero integer}} over
    ``_den``, in canonical form, so == compares them; the zero matrix has no
    row. ``Matrix(rows, field)`` (dense rows) and ``from_row_dicts`` (one
    {column: scalar} dict per row) encode the entries, refusing a value that
    is no scalar of the field, and drop zeros; ``_trusted`` wraps rows
    uncopied. A matrix is not hashable: its rows are dicts."""

    __slots__ = ("_rows", "_den", "nrows", "ncols", "field")

    def __init__(self, rows, field=QQ):
        rows = [dict(enumerate(r)) for r in rows]
        if any(len(r) != len(rows[0]) for r in rows):
            raise PreconditionError("ragged matrix")
        m = Matrix.from_row_dicts(rows, len(rows[0]) if rows else 0, field)
        self._rows, self._den, self.nrows, self.ncols, self.field = m._rows, m._den, *m.shape, field

    @classmethod
    def _trusted(cls, rows, den, nrows, ncols, field):
        """The matrix of these canonical integer rows over den, not copied."""
        m = cls.__new__(cls)
        m._rows, m._den, m.nrows, m.ncols, m.field = rows, den, nrows, ncols, field
        return m

    @classmethod
    def from_row_dicts(cls, rows, ncols, field=QQ):
        """The matrix of these {column: scalar} rows; columns are checked after
        encoding, so a zero of the field (7 in GF(7)) may be written anywhere."""
        size(ncols, 0, "column count must be nonnegative")
        cells = (((i, j), a) for i, r in enumerate(rows) if r for j, a in r.items())
        raw, den = field.encode_terms(cells)
        out, nrows = {}, len(rows)
        for (i, j), n in raw:
            if n:
                out.setdefault(i, {})[j] = n
        if any(min(r) < 0 or max(r) >= ncols for r in out.values()):
            raise PreconditionError(f"a nonzero entry lies outside the {nrows} x {ncols} matrix")
        return cls._trusted(out, den, nrows, ncols, field)

    @classmethod
    def identity(cls, n, field=QQ):
        size(n, 0, "matrix size must be nonnegative")
        return cls._trusted({i: {i: 1} for i in range(n)}, 1, n, n, field)

    @property
    def nonzero_rows(self):
        """{row: {column: nonzero scalar}}, a new dict on each read."""
        scalar, den = self.field.scalar, self._den
        return {i: {j: scalar(n, den) for j, n in r.items()} for i, r in self._rows.items()}

    @property
    def rows(self):
        z, cols, rows = self.field.zero(), range(self.ncols), self.nonzero_rows
        return tuple(tuple(rows.get(i, {}).get(j, z) for j in cols) for i in range(self.nrows))

    def __add__(self, other):
        if self.shape != other.shape:
            raise PreconditionError(f"shape mismatch: {self.shape} vs {other.shape}")
        d, out = lcm(self._den, other._den), {}
        for m in (self, other):
            for i, r in m._rows.items():
                row, f = out.setdefault(i, {}), d // m._den
                for j, n in r.items():
                    add_entry(row, j, n * f)
        den = _canonical_rows(out, d, self.field.characteristic)
        return Matrix._trusted(out, den, self.nrows, self.ncols, self.field)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise PreconditionError(f"shape mismatch: {self.shape} * {other.shape}")
        out = _product(self._rows, other._rows, self.field.characteristic)
        den = _canonical_rows(out, self._den * other._den)
        return Matrix._trusted(out, den, self.nrows, other.ncols, self.field)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        same = self.shape == other.shape and self.field == other.field
        return same and self._den == other._den and self._rows == other._rows

    def __repr__(self):  # each entry spelled by the field, as an element's are
        text, den, rows = self.field.text, self._den, sorted(self._rows.items())
        body = "".join(f"; {i}: " + " ".join(f"{j}={text(r[j], den)}" for j in sorted(r))
                       for i, r in rows)
        return f"Matrix[{self.nrows}x{self.ncols}{body}]"

    # -- elimination -----------------------------------------------------

    def rref(self):
        """(reduced row echelon form, pivot column list)."""
        rows = {i: dict(r) for i, r in self._rows.items()}
        pivots = _eliminate(rows, self.nrows, self.field.characteristic)
        return Matrix._trusted(*_over_pivots(rows, pivots), *self.shape, self.field), pivots

    def rank_factorization(self):
        """C (nrows x r) and R (r x ncols) with self == C R; C's zero rows are self's."""
        reduced, pivots = self.rref()
        r = len(pivots)
        position = {j: k for k, j in enumerate(pivots)}
        C = {i: {position[j]: a for j, a in row.items() if j in position}
             for i, row in self._rows.items()}
        R = Matrix._trusted(reduced._rows, reduced._den, r, self.ncols, self.field)
        return Matrix._trusted(C, _canonical_rows(C, self._den), self.nrows, r, self.field), R

    def inverse(self):
        if self.nrows != self.ncols:
            raise PreconditionError("only square matrices invert")
        n = self.nrows
        rows, pivots = _beside_identity(self)
        if pivots != list(range(n)):
            raise NotGroupInvertible("matrix is singular")
        return Matrix._trusted(*_over_pivots(rows, pivots, n), n, n, self.field)

    def _corner(self):
        """(S, the S x S corner) for S the sorted rows and columns holding a nonzero."""
        if self.nrows != self.ncols:
            raise PreconditionError(f"only square matrices have a group inverse: {self.shape}")
        rows = self._rows
        support = sorted(set(rows).union(*rows.values()))
        if len(support) == self.nrows:  # every index: the corner is the matrix
            return support, self
        at = {k: n for n, k in enumerate(support)}
        corner = {at[i]: {at[j]: a for j, a in r.items()} for i, r in rows.items()}
        return support, Matrix._trusted(corner, self._den, len(support), len(support), self.field)

    def group_inverse(self):
        """The unique b with aba=a, bab=b, ab=ba; exists iff rank(m)=rank(m^2)."""
        support, corner = self._corner()  # b is zero outside it
        inv, den = _core_inverse(corner, *_beside_identity(corner))
        if corner is not self:
            inv = {support[i]: {support[j]: a for j, a in r.items()} for i, r in inv.items()}
        return Matrix._trusted(inv, den, self.nrows, self.ncols, self.field)

    def is_group_invertible(self):
        try:
            self.group_inverse()
        except NotGroupInvertible:
            return False
        return True


def _eliminate(rows, nrows, p):
    """Gauss-Jordan on integer rows {row: {column: nonzero}} in place, over F_p
    for p > 0 and over QQ for p = 0; the pivot column list.

    ``where[j]`` is the set of rows with a nonzero in column j; a column with
    none never gains one, since a row operation writes only into the pivot
    row's columns. The pivot of a column is the first row at or after
    ``lead`` that holds it. Over F_p the pivot row is scaled to a leading 1.
    Over QQ a row with c in the column of the pivot a becomes
    (a row - c pivot_row) / gcd(a, c), then is divided by its content, so no
    fraction is formed and the integers stay primitive. On return row k <
    len(pivots) is the reduced row echelon form's row k times its entry at
    pivots[k], and every other row is zero.
    """
    where = {}
    for i, r in rows.items():
        for j in r:
            where.setdefault(j, set()).add(i)
    pivots, lead = [], 0
    for col in sorted(where):
        pivot_row = min((i for i in where[col] if i >= lead), default=None)
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows.get(lead, {})
        for j in rows[lead].keys() ^ rows[pivot_row].keys():
            where[j] ^= {lead, pivot_row}
        prow, a = rows[lead], rows[lead][col]
        if p and a != 1:
            inv = pow(a, -1, p)
            prow = rows[lead] = {j: b * inv % p for j, b in prow.items()}
            a = 1
        for i in where[col] - {lead}:
            row = rows[i]
            g = gcd(a, row[col])
            s, t = a // g, row[col] // g
            if s != 1:
                for j in row:
                    row[j] *= s
            for j, b in prow.items():
                x = row[j] - t * b if j in row else -t * b
                if p:
                    x %= p
                if x:
                    row[j] = x
                    where[j].add(i)
                else:
                    del row[j]
                    where[j].discard(i)
            if not p and (g := gcd(*row.values())) > 1:
                for j in row:
                    row[j] //= g
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    return pivots


def _beside_identity(m):
    """(rows, pivots) of [m | I] eliminated, m square: row i enters as its
    integers over m's denominator d, with d at column n + i."""
    n, d = m.nrows, m._den
    aug = {i: {**m._rows.get(i, {}), n + i: d} for i in range(n)}
    return aug, _eliminate(aug, n, m.field.characteristic)


def _over_pivots(rows, pivots, shift=0):
    """(out, den): eliminated row k over its entry at pivots[k], at the columns
    from shift on, as {k: {column - shift: integer}} over one den."""
    d, out = lcm(*(rows[k][col] for k, col in enumerate(pivots))), {}
    for k, col in enumerate(pivots):
        f = d // rows[k][col]
        out[k] = {j - shift: x * f for j, x in rows[k].items() if j >= shift}
    return out, _canonical_rows(out, d)


def _product(left, right, p):
    """The product of integer rows {row: {column: n}}, mod p for p > 0, no zero kept."""
    out = {}
    for i, r in left.items():
        acc = {}
        for k, a in r.items():
            for j, b in right.get(k, {}).items():
                acc[j] = acc.get(j, 0) + a * b
        if p:
            acc = {j: x % p for j, x in acc.items()}
        if acc := {j: x for j, x in acc.items() if x}:
            out[i] = acc
    return out


def _core_inverse(corner, rows, pivots):
    """(out, den): C (RC)^-2 R for the n x n corner = C R, on integers.

    (rows, pivots) is [corner | I] eliminated. At rank n its right half is
    the inverse (R = I, C = corner); below, the left halves of its first r
    rows are the rows of R, each times a scale of its own. With the corner m
    over s, row k of R m sC (sC: m's pivot columns) is row k of (RC)^2 times
    its scale and s^2; solved beside row k of R, it gives Z = (RC)^-2 R / s^2,
    and C (RC)^-2 R = s (sC) Z."""
    m, s, n = corner._rows, corner._den, corner.nrows
    p, r = corner.field.characteristic, sum(j < n for j in pivots)
    if r == n:
        return _over_pivots(rows, pivots, n)
    R = {k: {j: x for j, x in rows[k].items() if j < n} for k in range(r)}
    position = {j: k for k, j in enumerate(pivots[:r])}
    C = {i: {position[j]: x for j, x in row.items() if j in position} for i, row in m.items()}
    square = _product(R, _product(m, C, p), p)
    aug = {k: dict([*square.get(k, {}).items(), *((r + j, x) for j, x in R[k].items())])
           for k in range(r)}
    if _eliminate(aug, r, p) != list(range(r)):
        raise NotGroupInvertible("no group inverse: rank(m^2) < rank(m)")
    Z, d = _over_pivots(aug, range(r), r)
    out = {i: {j: s * x for j, x in row.items()} for i, row in _product(C, Z, p).items()}
    return out, _canonical_rows(out, d)


def _canonical_rows(rows, den, p=None):
    """The canonical den of integer rows {row: {column: int}} over den, their
    entries divided in place by the gcd of den and every entry (den is 1 over
    F_p). Sums, p given (0 over QQ), are first reduced mod p for p > 0, and
    their zeros and emptied rows dropped."""
    for i, row in list(rows.items()) if p is not None else ():
        if p:
            for j, n in row.items():
                row[j] = n % p
        if 0 in row.values():
            for j in [j for j, n in row.items() if not n]:
                del row[j]
            if not row:
                del rows[i]
    g = den
    for row in rows.values():
        g = gcd(g, *row.values()) if g != 1 else 1
    if g != 1:
        for row in rows.values():
            for j, n in row.items():
                row[j] = n // g
    return den // g


def add_entry(row, j, c):
    """row[j] += c in a sparse map; a sum that cancels is left for the caller to drop."""
    row[j] = row[j] + c if j in row else c


class BlockMatrix:
    """Element of a finite direct sum of matrix algebras, blockwise exact."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(blocks)

    @property
    def sizes(self):
        return tuple(b.nrows for b in self.blocks)

    def _match(self, other):
        if self.sizes != other.sizes:
            raise PreconditionError("block structure mismatch")

    def __add__(self, other):
        self._match(other)
        return BlockMatrix(a + b for a, b in zip(self.blocks, other.blocks))

    def __mul__(self, other):
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        self._match(other)
        return BlockMatrix(a * b for a, b in zip(self.blocks, other.blocks))

    def group_inverse(self):
        out = []
        for i, b in enumerate(self.blocks):
            try:
                out.append(b.group_inverse())
            except NotGroupInvertible:
                raise NotGroupInvertible(f"block {i} has no group inverse") from None
        return BlockMatrix(out)

    def is_group_invertible(self):
        return all(b.is_group_invertible() for b in self.blocks)

    def __eq__(self, other):
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return self.blocks == other.blocks

    def __repr__(self):
        return f"BlockMatrix(sizes={list(self.sizes)})"
