"""Sparse exact matrices over a field, with the group-inverse machinery.

A matrix stores each row as a dict {column: nonzero scalar}; zeros are
never stored, so every operation costs per nonzero entry, not per cell.
The matrix images used here (one block per sink of an acyclic graph, and
windows onto the Toeplitz action) hold a handful of nonzeros per row.

Everything is elimination-based and exact: rank, rank factorization
m = C R (C of full column rank, R of full row rank), and the group inverse
m# = C (RC)^-2 R, which exists precisely when RC is invertible, i.e. when
rank(m^2) = rank(m).

Since m# = m# m# m = m m# m#, the group inverse lives on the rows and
columns where m has a nonzero, so it is computed on that corner alone and
costs per nonzero, not per block size. A corner of full rank has R = I and
C = m, and its group inverse is its ordinary inverse.
"""

from __future__ import annotations

from .errors import NotGroupInvertible, PreconditionError
from .fields import QQ


class Matrix:
    """Immutable exact matrix: a tuple of row dicts {column: nonzero scalar}.

    ``Matrix(rows, field, ncols)`` takes dense rows (lists of scalars) and
    drops their zeros; ``ncols`` matters only when there are no rows.
    ``row_dicts`` is the stored form. ``rows`` is a read-only dense view,
    built anew on every access, for printing and tests.
    """

    __slots__ = ("row_dicts", "nrows", "ncols", "field")

    def __init__(self, rows, field=QQ, ncols=None):
        rows = [tuple(r) for r in rows]
        if any(len(r) != len(rows[0]) for r in rows):
            raise PreconditionError("ragged matrix")
        self.row_dicts = tuple({j: a for j, a in enumerate(r) if a} for r in rows)
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else ncols or 0
        self.field = field

    @classmethod
    def from_row_dicts(cls, rows, ncols, field=QQ):
        """The matrix with these {column < ncols: scalar} rows, zeros dropped."""
        m = cls.__new__(cls)
        m.row_dicts = tuple({j: a for j, a in r.items() if a} for r in rows)
        m.nrows = len(m.row_dicts)
        m.ncols = ncols
        m.field = field
        return m

    @classmethod
    def zero(cls, nrows, ncols, field=QQ):
        return cls.from_row_dicts([{}] * nrows, ncols, field)

    @classmethod
    def identity(cls, n, field=QQ):
        o = field.one()
        return cls.from_row_dicts([{i: o} for i in range(n)], n, field)

    @classmethod
    def from_int_rows(cls, rows, field=QQ):
        return cls([[field.from_int(x) for x in r] for r in rows], field)

    @property
    def rows(self):
        z = self.field.zero()
        return tuple(tuple(r.get(j, z) for j in range(self.ncols)) for r in self.row_dicts)

    def __getitem__(self, ij):
        i, j = ij
        if not 0 <= j < self.ncols:
            raise IndexError("matrix column index out of range")
        return self.row_dicts[i].get(j, self.field.zero())

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.row_dicts):
            for j, a in r.items():
                cols[j][i] = a
        return Matrix.from_row_dicts(cols, self.nrows, self.field)

    def __add__(self, other):
        self._match(other)
        out = [dict(r) for r in self.row_dicts]
        for row, rb in zip(out, other.row_dicts):
            for j, b in rb.items():
                add_entry(row, j, b)
        return Matrix.from_row_dicts(out, self.ncols, self.field)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-self.field.one())

    def scale(self, scalar):
        rows = [{j: a * scalar for j, a in r.items()} for r in self.row_dicts]
        return Matrix.from_row_dicts(rows, self.ncols, self.field)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise PreconditionError(f"shape mismatch: {self.shape} * {other.shape}")
        right = other.row_dicts
        out = []
        for r in self.row_dicts:
            acc = {}
            for k, a in r.items():
                for j, b in right[k].items():
                    add_entry(acc, j, a * b)
            out.append(acc)
        return Matrix.from_row_dicts(out, other.ncols, self.field)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self):
        return not any(self.row_dicts)

    def _match(self, other):
        if self.shape != other.shape:
            raise PreconditionError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.field == other.field
            and self.row_dicts == other.row_dicts
        )

    def __hash__(self):
        return hash((self.shape, tuple(frozenset(r.items()) for r in self.row_dicts)))

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Matrix[{body}]"

    # -- elimination -----------------------------------------------------

    def rref(self):
        """(reduced row echelon form, pivot column list).

        Gauss-Jordan over the nonzeros; ``where[j]`` is the set of rows with
        a nonzero in column j. A column with none never gains one, since a
        row operation writes only into the pivot row's columns. The pivot
        of a column is the first row at or after ``lead`` that holds it.
        """
        rows = [dict(r) for r in self.row_dicts]
        where = {j: set(col) for j, col in enumerate(self.transpose().row_dicts) if col}
        pivots = []
        lead = 0
        for col in sorted(where):
            pivot_row = min((i for i in where[col] if i >= lead), default=None)
            if pivot_row is None:
                continue
            rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
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
        return Matrix.from_row_dicts(rows, self.ncols, self.field), pivots

    def rank(self):
        return len(self.rref()[1])

    def rank_factorization(self):
        """C (nrows x r) and R (r x ncols) with self == C R."""
        reduced, pivots = self.rref()
        r = len(pivots)
        position = {j: k for k, j in enumerate(pivots)}
        C = [{position[j]: a for j, a in row.items() if j in position} for row in self.row_dicts]
        R = Matrix.from_row_dicts(reduced.row_dicts[:r], self.ncols, self.field)
        return Matrix.from_row_dicts(C, r, self.field), R

    def inverse(self):
        if self.nrows != self.ncols:
            raise PreconditionError("only square matrices invert")
        n = self.nrows
        aug = [{**r, n + i: self.field.one()} for i, r in enumerate(self.row_dicts)]
        reduced, pivots = Matrix.from_row_dicts(aug, 2 * n, self.field).rref()
        if pivots != list(range(n)):
            raise NotGroupInvertible("matrix is singular")
        inv = [{j - n: a for j, a in r.items() if j >= n} for r in reduced.row_dicts]
        return Matrix.from_row_dicts(inv, n, self.field)

    def _corner(self):
        """(S, the S x S corner) for S the sorted rows and columns holding a nonzero."""
        if self.nrows != self.ncols:
            raise PreconditionError(f"only square matrices have a group inverse: {self.shape}")
        rows = self.row_dicts
        support = sorted({i for i, r in enumerate(rows) if r}.union(*rows))
        at = {k: n for n, k in enumerate(support)}
        corner = [{at[j]: a for j, a in rows[i].items()} for i in support]
        return support, Matrix.from_row_dicts(corner, len(support), self.field)

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
        out = [{}] * self.nrows
        for i, row in zip(support, inv.row_dicts):
            out[i] = {support[j]: a for j, a in row.items()}
        return Matrix.from_row_dicts(out, self.ncols, self.field)

    def is_group_invertible(self):
        _, corner = self._corner()
        C, R = corner.rank_factorization()
        return R.nrows == corner.nrows or (R * C).rank() == R.nrows


def add_entry(row, j, c):
    """row[j] += c in a sparse map; a sum that cancels is left for the constructor to drop."""
    row[j] = row[j] + c if j in row else c


class BlockMatrix:
    """Element of a finite direct sum of matrix algebras, blockwise exact."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(blocks)

    @classmethod
    def zero(cls, sizes, field=QQ):
        return cls(Matrix.zero(n, n, field) for n in sizes)

    @property
    def sizes(self):
        return tuple(b.nrows for b in self.blocks)

    def _match(self, other):
        if self.sizes != other.sizes:
            raise PreconditionError("block structure mismatch")

    def __add__(self, other):
        self._match(other)
        return BlockMatrix(a + b for a, b in zip(self.blocks, other.blocks))

    def __sub__(self, other):
        self._match(other)
        return BlockMatrix(a - b for a, b in zip(self.blocks, other.blocks))

    def __neg__(self):
        return BlockMatrix(-b for b in self.blocks)

    def __mul__(self, other):
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        self._match(other)
        return BlockMatrix(a * b for a, b in zip(self.blocks, other.blocks))

    def scale(self, scalar):
        return BlockMatrix(b.scale(scalar) for b in self.blocks)

    def transpose(self):
        return BlockMatrix(b.transpose() for b in self.blocks)

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks)

    def rank(self):
        return sum(b.rank() for b in self.blocks)

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

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"BlockMatrix(sizes={list(self.sizes)})"
