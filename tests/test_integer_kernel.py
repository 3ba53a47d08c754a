"""The integer elimination kernel behind rref, inverse, rank_factorization and
group_inverse, against the scalar elimination it replaced (conftest's
ScalarMatrix), the dense reference kernel and sympy's DomainMatrix.

The kernel works on each row's integer encoding: over QQ fraction-free, the
row times the lcm of its denominators, over F_p on residues. Scalars are
built only for the entries a caller gets back."""

from collections import Counter
from fractions import Fraction

import pytest

import leavitt as L
from leavitt import matrices as matrices_module
from leavitt.matrices import Matrix

from conftest import (
    ScalarMatrix,
    dense_group_inverse,
    dense_inverse,
    dense_rref,
    seeded,
)

FIELDS = [L.QQ, L.GF(2), L.GF(7), L.GF(2**61 - 1)]
STYLES = ("small", "coprime", "huge")
COPRIME = (1, 2, 3, 5, 7, 11, 13)


def entry(rng, field, style):
    """A random scalar, often zero: small integers of either sign, fractions
    over coprime denominators, or numerators and denominators above 2^64."""
    if rng.random() < 0.3:
        return field.zero()
    if style == "huge":
        n = rng.choice((-1, 1)) * rng.randint(2**64, 2**80)
        d = rng.randint(2**64, 2**70) if rng.random() < 0.5 else 1
    else:
        n = rng.choice((-3, -2, -1, 1, 2, 3))
        d = rng.choice(COPRIME) if style == "coprime" else 1
    while d % (field.characteristic or d + 1) == 0:  # p divides d: no scalar of F_p
        d += 1
    return field.scalar(n, d)


def dense(rng, field, style, nrows, ncols):
    return [[entry(rng, field, style) for _ in range(ncols)] for _ in range(nrows)]


def product(a, b, field):
    return Matrix(a, field) * Matrix(b, field)


def sample(rng, field, style, kind, n):
    """An n x n matrix of this kind, placed among zero rows and columns."""
    if kind == "full":
        rows = dense(rng, field, style, n, n)
    elif kind == "low":  # C R of rank <= r: group invertible when RC is
        r = rng.randint(1, max(1, n - 1))
        rows = product(dense(rng, field, style, n, r), dense(rng, field, style, r, n), field).rows
    elif kind == "nilpotent":  # strictly upper triangular, rows and columns relabelled
        upper = dense(rng, field, style, n, n)
        order = rng.sample(range(n), n)
        rows = [[upper[order[i]][order[j]] if order[i] < order[j] else field.zero()
                 for j in range(n)] for i in range(n)]
    else:  # "mixed": a full block beside a nilpotent one, so rank(m^2) < rank(m)
        k = rng.randint(1, n - 1) if n > 1 else 1
        rows = [[field.zero()] * n for _ in range(n)]
        for i in range(k):
            for j in range(k):
                rows[i][j] = entry(rng, field, style)
        for i in range(k, n - 1):
            rows[i][i + 1] = field.scalar(rng.choice((-2, -1, 1, 2)))
    pad = rng.choice((0, 0, 0, 1, 2, 3))  # unpadded, a full kind may be invertible
    total = n + pad
    at = sorted(rng.sample(range(total), n))
    out = [{} for _ in range(total)]
    for i, row in enumerate(rows):
        out[at[i]] = {at[j]: a for j, a in enumerate(row) if a}
    return Matrix.from_row_dicts(out, total, field)


def samples(field, label, count=6):
    rng = seeded(f"integer-kernel:{label}:{field!r}")
    out = []
    for style in STYLES:
        for kind in ("full", "low", "nilpotent", "mixed"):
            for _ in range(count):
                out.append(sample(rng, field, style, kind, rng.randint(1, 7)))
        for _ in range(count):  # rectangular, with zero rows and columns
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            rows = [{j: a for j, a in enumerate(row) if a} if rng.random() < 0.7 else {}
                    for row in dense(rng, field, style, r, c)]
            out.append(Matrix.from_row_dicts(rows, c, field))
    return out


def outcome(f, m):
    """f(m) in one comparable form: each matrix as (shape, stored rows), other
    parts as they are, or an error as (type, message)."""
    try:
        out = f(m)
    except L.LeavittError as exc:
        return (type(exc), str(exc))
    parts = out if isinstance(out, tuple) else (out,)
    matrices = (Matrix, ScalarMatrix)
    return tuple((p.shape, p.nonzero_rows) if isinstance(p, matrices) else p for p in parts)


OPS = {
    "rref": lambda m: m.rref(),
    "rank_factorization": lambda m: m.rank_factorization(),
    "inverse": lambda m: m.inverse(),
    "group_inverse": lambda m: m.group_inverse(),
}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_kernel_matches_the_scalar_elimination(field):
    worked = Counter()
    for m in samples(field, "scalar", 12):
        old = ScalarMatrix.of(m)
        for name, op in OPS.items():
            got = outcome(op, m)
            assert got == outcome(op, old), (name, m)
            worked[name, isinstance(got[0], type)] += 1
            for part in got if not isinstance(got[0], type) else ():
                if isinstance(part, tuple):  # every entry is a scalar of the field
                    for row in part[1].values():
                        assert all(type(a) is type(field.one()) and a for a in row.values())
    # inverses and group inverses both found and refused
    for name in ("inverse", "group_inverse"):
        assert worked[name, False] >= 5 and worked[name, True] >= 10, worked


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_kernel_matches_the_dense_reference(field):
    for m in samples(field, "dense"):
        reduced, pivots = m.rref()
        want, want_pivots = dense_rref(m.rows, m.ncols, field)
        assert (pivots, [list(r) for r in reduced.rows]) == (want_pivots, want), m
        if m.nrows != m.ncols:
            continue
        try:
            want = dense_inverse(m.rows, field)
        except L.NotGroupInvertible:
            with pytest.raises(L.NotGroupInvertible, match="matrix is singular"):
                m.inverse()
        else:
            assert [list(r) for r in m.inverse().rows] == want
        try:
            want = dense_group_inverse(m.rows, field)
        except L.NotGroupInvertible:
            with pytest.raises(L.NotGroupInvertible, match=r"rank\(m\^2\) < rank\(m\)"):
                m.group_inverse()
        else:
            assert [list(r) for r in m.group_inverse().rows] == want


def to_sympy(m, sympy):
    from sympy.polys.matrices import DomainMatrix

    p = m.field.characteristic
    dom = sympy.GF(p) if p else sympy.QQ
    cell = (lambda a: dom(a.residue)) if p else (lambda a: dom(a.numerator, a.denominator))
    return DomainMatrix([[cell(a) for a in r] for r in m.rows], m.shape, dom)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_kernel_matches_sympy(field):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    inverted = refused = 0
    for m in samples(field, "sympy"):
        s = to_sympy(m, sympy)
        reduced, pivots = m.rref()
        want, want_pivots = s.rref()
        assert (tuple(pivots), to_sympy(reduced, sympy)) == (want_pivots, want), m
        if m.nrows != m.ncols:
            continue
        try:
            want = s.inv()
        except DMNonInvertibleMatrixError:
            with pytest.raises(L.NotGroupInvertible):
                m.inverse()
        else:
            assert to_sympy(m.inverse(), sympy) == want
        if (s * s).rank() < s.rank():
            with pytest.raises(L.NotGroupInvertible):
                m.group_inverse()
            refused += 1
            continue
        b = to_sympy(m.group_inverse(), sympy)  # the defining identities, in sympy
        assert s * b * s == s and b * s * b == b and s * b == b * s, m
        inverted += 1
    assert inverted >= 20 and refused >= 10


def test_entries_above_2_to_the_64_stay_exact():
    # fraction-free elimination keeps each row primitive, so the integers
    # are the content-free numerators, never a product of all the pivots
    big = 2**64 + 13
    m = Matrix([[Fraction(big, 3), 1], [Fraction(1, big), Fraction(-5, 7)]])
    b = m.inverse()
    assert m * b == b * m == Matrix.identity(2)
    assert b.group_inverse() == m and m.group_inverse() == b
    f = L.GF(2**61 - 1)
    m = Matrix([[f.scalar(big), f.scalar(1)], [f.scalar(-big, 3), f.scalar(2**90)]], f)
    assert m * m.inverse() == Matrix.identity(2, f)


def test_a_negative_pivot_and_coprime_denominators():
    m = Matrix([[Fraction(-1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(-1, 7)]])
    reduced, pivots = m.rref()
    assert pivots == [0, 1] and reduced == Matrix.identity(2)
    assert m.inverse() == Matrix([[Fraction(-30), Fraction(-70)], [Fraction(-42), Fraction(-105)]])
    # rank 1 with a negative pivot: m^2 = -2 m, so m# = m / 4
    m = Matrix([[Fraction(-1), Fraction(2, 3)], [Fraction(3, 2), Fraction(-1)]])
    assert m.rref() == (Matrix([[1, Fraction(-2, 3)], [0, 0]]), [0])
    assert m.group_inverse() == Matrix([[Fraction(-1, 4), Fraction(1, 6)], [Fraction(3, 8), Fraction(-1, 4)]])


@pytest.fixture
def built(monkeypatch):
    """The scalars each field builds, recorded through a patched field.scalar."""
    calls = Counter()

    def record(field):
        scalar = field.scalar

        def recorded(n, den=1):
            calls[field] += 1
            return scalar(n, den)

        monkeypatch.setattr(field, "scalar", recorded)

    for field in FIELDS:
        record(field)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_scalars_are_built_only_for_the_entries_returned(field, built):
    """No scalar is built during elimination: a group inverse, an inverse and
    an rref each build exactly one per nonzero entry they return."""
    rng = seeded(f"built:{field!r}")
    ms = [sample(rng, field, style, kind, rng.randint(1, 7))
          for style in STYLES for kind in ("full", "low") for _ in range(8)]
    built.clear()  # the samples were built through field.scalar too
    found = Counter()
    for m in ms:
        for name, op in OPS.items():
            if name == "rank_factorization":
                continue
            before = built[field]
            try:
                out = op(m)
            except L.NotGroupInvertible:
                assert built[field] == before, name
                continue
            out = out[0] if name == "rref" else out
            nonzeros = sum(map(len, out.nonzero_rows.values()))  # the read builds them
            assert built[field] - before == nonzeros, (name, m)
            found[name] += 1
    assert found["group_inverse"] >= 20 and found["inverse"] >= 3


# per field: the elements of D (u -> w, u -> v -> w) given to group_inverse
PIPELINE = {L.QQ: ("2/3*u + 5/7*w + 3/4*a", "3/5*w + 1/4*c*c'"),
            FIELDS[2]: ("3*u + 5*w + 3/4*a", "3/5*w + 1/4*c*c'")}


@pytest.mark.parametrize("field", PIPELINE, ids=repr)
def test_the_matrix_pipeline_builds_no_scalar_until_an_entry_is_read(field, built):
    """to_matrix, group_inverse and from_matrix pass integers over one
    denominator from step to step, and so does a Toeplitz window: the only
    scalars built are those of the entries read, one each."""
    D = L.Graph("D", ["u", "v", "w"], [("a", "u", "w"), ("b", "u", "v"), ("c", "v", "w")])
    d = L.matrix_decomposition(D)
    T = L.toeplitz_graph()
    for text in PIPELINE[field]:
        x = L.parse_element(D, text, field)
        y = L.parse_element(T, "2/3*v + 1/2*e + 3/4*e'", field)
        built.clear()
        image = L.to_matrix(x, d)
        inverse = image.group_inverse()
        back = L.from_matrix(inverse, d, field)
        window = L.rcfm_representation(y, 16).matrix
        assert built[field] == 0, text
        assert back * x == x * back and back * x * back == back
        for m in (*image.blocks, *inverse.blocks, window):
            before = built[field]
            nonzeros = sum(map(len, m.nonzero_rows.values()))
            assert built[field] - before == nonzeros > 0, (text, m)


def test_rref_inverse_and_group_inverse_share_one_elimination(monkeypatch):
    """Each public operation reaches the one kernel: once for rref, inverse and
    a corner of full rank, and once more for the core R C of a corner that
    is not."""
    calls = []
    kernel = matrices_module._eliminate
    monkeypatch.setattr(matrices_module, "_eliminate", lambda *a: calls.append(a[1]) or kernel(*a))
    m = Matrix([[1, 2], [3, 4]])
    for op, want in (("rref", [2]), ("inverse", [2]), ("group_inverse", [2])):
        calls.clear()
        OPS[op](m)
        assert calls == want, op
    low = Matrix([[1, 2], [2, 4]])  # rank 1: [m | I], then the 1 x 1 core
    calls.clear()
    assert low.group_inverse() * low * low == low
    assert calls == [2, 1]


def test_fraction_free_rows_stay_primitive():
    """Over QQ each row the kernel changes is divided by its content, so the
    eliminated rows of primitive integer rows are primitive: their integers
    do not accumulate the pivots' products."""
    from math import gcd

    rng = seeded("primitive")
    for _ in range(40):
        n = rng.randint(2, 8)
        rows = {}
        for i in range(n):
            row = {j: rng.randint(-30, 30) for j in range(n + 2) if rng.random() < 0.7}
            row = {j: x for j, x in row.items() if x}
            if row and gcd(*row.values()) == 1:
                rows[i] = row
        pivots = matrices_module._eliminate(rows, n, 0)
        for k in range(len(pivots)):
            assert gcd(*rows[k].values()) == 1, rows[k]
