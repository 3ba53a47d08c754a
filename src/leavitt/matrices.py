"""Sparse exact matrices over a field, with the group-inverse machinery.

A matrix stores only its nonzero rows, as {row: {column: nonzero scalar}},
so every operation, construction included, costs per nonzero entry, not
per row or cell: the images used here (a block per sink of an acyclic
graph, windows onto the Toeplitz action) hold a few nonzeros in few rows.

Everything is elimination-based and exact: rref, rank factorization
m = C R (C of full column rank, R of full row rank), and the group inverse
m# = C (RC)^-2 R, which exists precisely when RC is invertible, i.e. when
rank(m^2) = rank(m).

Since m# = m# m# m = m m# m#, the group inverse lives on the rows and
columns where m has a nonzero, so it is computed on that corner alone and
costs per nonzero, not per block size. A corner of full rank has R = I and
C = m, and its group inverse is its ordinary inverse.
"""

from __future__ import annotations

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
        right = other.nonzero_rows
        out = {}
        for i, r in self.nonzero_rows.items():
            acc = out[i] = {}
            for k, a in r.items():
                for j, b in right.get(k, {}).items():
                    add_entry(acc, j, a * b)
        return Matrix._trusted(_nonzero(out.items()), self.nrows, other.ncols, self.field)

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
        """(reduced row echelon form, pivot column list).

        Gauss-Jordan over the nonzeros; ``where[j]``, read off the rows in
        one pass, is the set of rows with a nonzero in column j. A column
        with none never gains one, since a row operation writes only into
        the pivot row's columns. The pivot of a column is the first row at
        or after ``lead`` that holds it.
        """
        rows = {i: dict(r) for i, r in self.nonzero_rows.items()}
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
            inv = self.field.one() / rows[lead][col]
            prow = rows[lead] = {j: a * inv for j, a in rows[lead].items()}
            for i in where[col] - {lead}:
                row = rows[i]
                factor = row[col]
                for j, b in prow.items():
                    a = row[j] - factor * b if j in row else -factor * b
                    if a:
                        row[j] = a
                        where[j].add(i)
                    else:
                        del row[j]
                        where[j].discard(i)
            pivots.append(col)
            lead += 1
            if lead == self.nrows:
                break
        rows = {i: r for i, r in rows.items() if r}  # swaps and cancellations empty some
        return Matrix._trusted(rows, self.nrows, self.ncols, self.field), pivots

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
        n, one, rows = self.nrows, self.field.one(), self.nonzero_rows
        aug = {i: {**rows.get(i, {}), n + i: one} for i in range(n)}
        reduced, pivots = Matrix._trusted(aug, n, 2 * n, self.field).rref()
        if pivots != list(range(n)):
            raise NotGroupInvertible("matrix is singular")
        rows = reduced.nonzero_rows.items()
        inv = {i: {j - n: a for j, a in r.items() if j >= n} for i, r in rows}
        return Matrix._trusted(inv, n, n, self.field)

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
        """The unique b with aba=a, bab=b, ab=ba; exists iff rank(m)=rank(m^2)."""
        support, corner = self._corner()  # b is zero outside it
        try:
            inv = corner.inverse()  # full rank: R = I and C = corner
        except NotGroupInvertible:
            C, R = corner.rank_factorization()
            try:
                core_inv = (R * C).inverse()
            except NotGroupInvertible:
                raise NotGroupInvertible("no group inverse: rank(m^2) < rank(m)") from None
            inv = C * core_inv * core_inv * R
        rows = inv.nonzero_rows.items()
        out = {support[i]: {support[j]: a for j, a in r.items()} for i, r in rows}
        return Matrix._trusted(out, self.nrows, self.ncols, self.field)

    def is_group_invertible(self):
        try:
            self.group_inverse()
        except NotGroupInvertible:
            return False
        return True


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
