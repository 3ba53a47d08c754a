"""Sparse exact matrices over a field, with the group-inverse machinery.

A matrix stores only its nonzero rows, as {row: {column: nonzero scalar}},
so every operation, construction included, costs per nonzero entry, not
per row or cell: the images used here (a block per sink of an acyclic
graph, windows onto the Toeplitz action) hold a few nonzeros in few rows.

Everything is elimination-based and exact: rref, rank factorization
m = C R (C of full column rank, R of full row rank), and the group inverse
m# = C (RC)^-2 R, which exists precisely when RC is invertible, i.e. when
rank(m^2) = rank(m).

All of them run one Gauss-Jordan kernel, ``_eliminate``, on integers, not
on scalars: each row enters through the field's own encoding
(``encode_terms``), over QQ the row times the lcm of its denominators and
eliminated fraction-free, over F_p its residues. Scalars are built only
for the entries a caller gets back, each as n/d for d its row's pivot.

Since m# = m# m# m = m m# m#, the group inverse lives on the rows and
columns where m has a nonzero, so it is computed on that corner alone and
costs per nonzero, not per block size. A corner of full rank has R = I and
C = m, and its group inverse is its ordinary inverse.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import NotGroupInvertible, PreconditionError, size
from .fields import QQ


class Matrix:
    """Immutable exact matrix, stored as ``nonzero_rows`` {row: {column: nonzero}}.

    A row without a nonzero has no entry, so the zero matrix is an empty
    map. ``Matrix(rows, field)`` (dense rows) and ``from_row_dicts`` (one
    {column: scalar} dict per row, the sparse input) drop zeros and check
    indices; results are built by ``_trusted`` from rows already free of
    zeros. ``rows`` is a read-only dense view, built on each access. A
    matrix is not hashable: its rows are dicts.
    """

    __slots__ = ("nonzero_rows", "nrows", "ncols", "field")

    def __init__(self, rows, field=QQ):
        rows = [tuple(r) for r in rows]
        if any(len(r) != len(rows[0]) for r in rows):
            raise PreconditionError("ragged matrix")
        self.nonzero_rows = _nonzero(enumerate(dict(enumerate(r)) for r in rows))
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self.field = field

    @classmethod
    def _trusted(cls, rows, nrows, ncols, field):
        """The matrix with these nonzero rows {row: {column: nonzero}}, not copied."""
        m = cls.__new__(cls)
        m.nonzero_rows, m.nrows, m.ncols, m.field = rows, nrows, ncols, field
        return m

    @classmethod
    def from_row_dicts(cls, rows, ncols, field=QQ):
        """The matrix with these {column: scalar} rows, one dict per row, zeros dropped."""
        size(ncols, 0, "column count must be nonnegative")
        out = _nonzero(enumerate(rows))
        nrows = len(rows)
        if any(min(r) < 0 or max(r) >= ncols for r in out.values()):
            raise PreconditionError(f"a nonzero entry lies outside the {nrows} x {ncols} matrix")
        return cls._trusted(out, nrows, ncols, field)

    @classmethod
    def identity(cls, n, field=QQ):
        size(n, 0, "matrix size must be nonnegative")
        return cls._trusted({i: {i: field.one()} for i in range(n)}, n, n, field)

    @property
    def rows(self):
        z, cols = self.field.zero(), range(self.ncols)
        rows = (self.nonzero_rows.get(i, {}) for i in range(self.nrows))
        return tuple(tuple(r.get(j, z) for j in cols) for r in rows)

    def __add__(self, other):
        self._match(other)
        out = {i: dict(r) for i, r in self.nonzero_rows.items()}
        for i, rb in other.nonzero_rows.items():
            row = out.setdefault(i, {})
            for j, b in rb.items():
                add_entry(row, j, b)
        return Matrix._trusted(_nonzero(out.items()), self.nrows, self.ncols, self.field)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise PreconditionError(f"shape mismatch: {self.shape} * {other.shape}")
        out = _product(self.nonzero_rows, other.nonzero_rows, 0)
        return Matrix._trusted(out, self.nrows, other.ncols, self.field)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def _match(self, other):
        if self.shape != other.shape:
            raise PreconditionError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        same = self.shape == other.shape and self.field == other.field
        return same and self.nonzero_rows == other.nonzero_rows

    def __repr__(self):
        rows = sorted(self.nonzero_rows.items())
        body = "".join(f"; {i}: " + " ".join(f"{j}={r[j]}" for j in sorted(r)) for i, r in rows)
        return f"Matrix[{self.nrows}x{self.ncols}{body}]"

    # -- elimination -----------------------------------------------------

    def rref(self):
        """(reduced row echelon form, pivot column list), eliminated on each
        row's integer encoding."""
        field = self.field
        rows = {i: dict(field.encode_terms(r.items())[0]) for i, r in self.nonzero_rows.items()}
        pivots = _eliminate(rows, self.nrows, field.characteristic)
        return Matrix._trusted(_scalars(rows, pivots, field), self.nrows, self.ncols, field), pivots

    def rank_factorization(self):
        """C (nrows x r) and R (r x ncols) with self == C R; C's zero rows are self's."""
        reduced, pivots = self.rref()
        r = len(pivots)
        position = {j: k for k, j in enumerate(pivots)}
        C = {i: {position[j]: a for j, a in row.items() if j in position}
             for i, row in self.nonzero_rows.items()}
        R = Matrix._trusted(reduced.nonzero_rows, r, self.ncols, self.field)
        return Matrix._trusted(C, self.nrows, r, self.field), R

    def inverse(self):
        if self.nrows != self.ncols:
            raise PreconditionError("only square matrices invert")
        n, field = self.nrows, self.field
        rows, pivots = _beside_identity(self)
        if pivots != list(range(n)):
            raise NotGroupInvertible("matrix is singular")
        return Matrix._trusted(_scalars(rows, pivots, field, n), n, n, field)

    def _corner(self):
        """(S, the S x S corner) for S the sorted rows and columns holding a nonzero."""
        if self.nrows != self.ncols:
            raise PreconditionError(f"only square matrices have a group inverse: {self.shape}")
        rows = self.nonzero_rows
        support = sorted(set(rows).union(*rows.values()))
        at = {k: n for n, k in enumerate(support)}
        corner = {at[i]: {at[j]: a for j, a in r.items()} for i, r in rows.items()}
        return support, Matrix._trusted(corner, len(support), len(support), self.field)

    def group_inverse(self):
        """The unique b with aba=a, bab=b, ab=ba; exists iff rank(m)=rank(m^2).

        One elimination of [corner | I] gives the inverse of a corner of full
        rank (R = I and C = corner), and otherwise R, in its first r rows."""
        support, corner = self._corner()  # b is zero outside it
        rows, pivots = _beside_identity(corner)
        if pivots == list(range(corner.nrows)):
            inv = _scalars(rows, pivots, self.field, corner.nrows)
        else:
            inv = _core_inverse(corner, rows, pivots)
        rows = inv.items()
        out = {support[i]: {support[j]: a for j, a in r.items()} for i, r in rows}
        return Matrix._trusted(out, self.nrows, self.ncols, self.field)

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
    pivots = []
    lead = 0
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
    integer encoding, the row times its scale d, with d at column n + i."""
    n, aug = m.nrows, {}
    for i in range(n):
        raw, d = m.field.encode_terms(m.nonzero_rows.get(i, {}).items())
        aug[i] = dict([*raw, (n + i, d)])
    return aug, _eliminate(aug, n, m.field.characteristic)


def _scalars(rows, pivots, field, shift=0):
    """{k: {column - shift: scalar}}: eliminated row k over its entry at pivots[k],
    at the columns from shift on. These are the only scalars elimination builds."""
    out = {}
    for k, col in enumerate(pivots):
        d = rows[k][col]
        out[k] = {j - shift: field.scalar(x, d) for j, x in rows[k].items() if j >= shift}
    return out


def _product(left, right, p):
    """The product of matrices {row: {column: entry}}, without zeros or empty
    rows: of scalars, or integers, for p = 0; of integers mod p for p > 0."""
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
    """C (RC)^-2 R for the n x n corner = C R of rank r < n, on integers.

    (rows, pivots) is [corner | I] eliminated, so the left halves of its
    first r rows are the rows of R, each times a scale of its own. The corner
    enters once more as m = s corner, s the lcm of all its denominators, so
    that m and sC, m's pivot columns, multiply without rescaling. Row k of
    R m sC is row k of (RC)^2 times its scale and s^2; solved beside row k of
    R times the same scale, it gives Z = (RC)^-2 R / s^2, and the result is
    C (RC)^-2 R = s (sC) Z."""
    field, n = corner.field, corner.nrows
    p, r = field.characteristic, sum(j < n for j in pivots)
    R = {k: {j: x for j, x in rows[k].items() if j < n} for k in range(r)}
    cells = (((i, j), a) for i, row in corner.nonzero_rows.items() for j, a in row.items())
    raw, s = field.encode_terms(cells)
    m = {}
    for (i, j), x in raw:
        m.setdefault(i, {})[j] = x
    position = {j: k for k, j in enumerate(pivots[:r])}
    C = {i: {position[j]: x for j, x in row.items() if j in position} for i, row in m.items()}
    square = _product(R, _product(m, C, p), p)
    aug = {k: dict([*square.get(k, {}).items(), *((r + j, x) for j, x in R[k].items())])
           for k in range(r)}
    if _eliminate(aug, r, p) != list(range(r)):
        raise NotGroupInvertible("no group inverse: rank(m^2) < rank(m)")
    d = lcm(*(aug[k][k] for k in range(r)))
    Z = {k: {j - r: x * (d // aug[k][k]) for j, x in aug[k].items() if j >= r} for k in range(r)}
    return {i: {j: field.scalar(s * x, d) for j, x in row.items()}
            for i, row in _product(C, Z, p).items()}


def add_entry(row, j, c):
    """row[j] += c in a sparse map; a sum that cancels is left for the caller to drop."""
    row[j] = row[j] + c if j in row else c


def _nonzero(rows):
    """{row: {column: nonzero}} from (row, {column: scalar}) pairs: zeros and empty rows dropped."""
    return {i: r for i, r in ((i, {j: a for j, a in r.items() if a}) for i, r in rows if r) if r}


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
