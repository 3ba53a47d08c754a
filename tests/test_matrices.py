"""Exact matrix arithmetic: elimination, rank factorization, group inverses."""

import pytest
from collections import Counter
from fractions import Fraction

import leavitt as L
from leavitt.matrices import BlockMatrix, Matrix

from conftest import (
    ReferenceMatrix,
    dense_group_inverse,
    dense_inverse,
    dense_mul,
    dense_rank_factorization,
    dense_rref,
    seeded,
    whole_matrix_group_inverse,
    whole_matrix_is_group_invertible,
)


def M(rows):
    return Matrix([[L.QQ.scalar(x) for x in r] for r in rows])


def rank(m):
    return len(m.rref()[1])


def zero(n, field=L.QQ):
    return Matrix.from_row_dicts([{}] * n, n, field)


def row_dicts(m):
    """Each row of m as a {column: nonzero} dict, empty rows included."""
    return [dict(m.nonzero_rows.get(i, {})) for i in range(m.nrows)]


def random_int_matrix(rng, n, lo=-4, hi=4):
    return M([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def random_invertible(rng, n):
    while True:
        m = random_int_matrix(rng, n)
        if rank(m) == n:
            return m


def diagonal(entries):
    n = len(entries)
    return Matrix(
        [
            [Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)
        ]
    )


def test_rref_rank():
    m = M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    assert rank(M([[0, 0], [0, 0]])) == 0
    assert rank(Matrix.identity(3)) == 3


def test_rank_factorization_reconstructs():
    rng = seeded("rankfact")
    for _ in range(50):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n)
        C, R = m.rank_factorization()
        assert C * R == m
        assert C.ncols == R.nrows == rank(m)
        assert rank(C) == rank(R) == rank(m)


def test_inverse():
    m = M([[2, 1], [1, 1]])
    assert m * m.inverse() == Matrix.identity(2)
    with pytest.raises(L.NotGroupInvertible):
        M([[1, 1], [1, 1]]).inverse()


def test_group_inverse_examples():
    e11 = M([[1, 0], [0, 0]])
    assert e11.group_inverse() == e11
    assert diagonal([2, 0]).group_inverse() == Matrix(
        [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(0)]]
    )
    with pytest.raises(L.NotGroupInvertible):
        M([[0, 1], [0, 0]]).group_inverse()
    z = M([[0, 0], [0, 0]])
    assert z.group_inverse() == z


def group_axioms_hold(m, b):
    return m * b * m == m and b * m * b == b and m * b == b * m


def test_group_inverse_axioms_random():
    rng = seeded("groupinv")
    for _ in range(60):
        n = rng.randint(1, 3)
        P = random_invertible(rng, n)
        r = rng.randint(0, n)
        d = diagonal([rng.choice([1, 2, 3, -1, Fraction(1, 2)]) for _ in range(r)] + [0] * (n - r))
        m = P * d * P.inverse()
        assert rank(m) == rank(m * m)
        b = m.group_inverse()
        assert group_axioms_hold(m, b)


def test_group_inverse_uniqueness_against_perturbations():
    rng = seeded("uniq")
    m = M([[2, 0], [0, 0]])
    b = m.group_inverse()
    for _ in range(20):
        noise = random_int_matrix(rng, 2, -1, 1)
        candidate = b + noise
        if candidate == b:
            continue
        assert not group_axioms_hold(m, candidate)


def test_rank_dropping_detected():
    rng = seeded("nilpotent")
    for _ in range(40):
        P = random_invertible(rng, 3)
        jordan = M([[0, 1, 0], [0, 0, 0], [0, 0, rng.choice([0, 1, 2])]])
        m = P * jordan * P.inverse()
        assert rank(m * m) < rank(m)
        assert not m.is_group_invertible()
        with pytest.raises(L.NotGroupInvertible):
            m.group_inverse()


def test_block_matrix_ops():
    a = BlockMatrix([M([[1, 0], [0, 0]]), Matrix.identity(3)])
    b = BlockMatrix([M([[0, 0], [0, 1]]), Matrix.identity(3)])
    assert (a + b).blocks[0] == Matrix.identity(2)
    assert (a * b).blocks[1] == Matrix.identity(3)
    assert sum(map(rank, a.blocks)) == 4
    gi = a.group_inverse()
    assert gi.blocks[0] == a.blocks[0]
    bad = BlockMatrix([M([[0, 1], [0, 0]]), Matrix.identity(3)])
    with pytest.raises(L.NotGroupInvertible) as err:
        bad.group_inverse()
    assert "block 0" in str(err.value)


def test_prime_field_matrices():
    f5 = L.GF(5)
    m = Matrix([[f5.scalar(2), f5.scalar(1)], [f5.scalar(0), f5.scalar(3)]], f5)
    inv = m.inverse()
    assert m * inv == Matrix.identity(2, f5)


# -- the sparse kernel against the dense reference -------------------------------

FIELDS = [L.QQ, L.GF(5), L.GF(10007)]


def random_rows(rng, nrows, ncols, density, field):
    return [
        [
            field.scalar(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
            if rng.random() < density
            else field.zero()
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def sample_rows(rng, kind, n, density, field):
    """Random n x n rows of one kind: full rank, rank-deficient, or nonzero
    nilpotent (strictly upper triangular, conjugated by a permutation and,
    for the dense sample, by a random invertible matrix)."""
    if kind == "full":
        while True:
            perm = rng.sample(range(n), n)
            rows = random_rows(rng, n, n, density / 2, field)
            for i, j in enumerate(perm):
                rows[i][j] = field.scalar(rng.choice([1, 2, 3, -1]))
            if len(dense_rref(rows, n, field)[1]) == n:
                return rows
    if kind == "deficient":
        r = rng.randint(0, n - 1)
        left = random_rows(rng, n, r, density, field)
        return dense_mul(left, random_rows(rng, r, n, density, field), n, field)
    upper = random_rows(rng, n, n, density, field)
    rows = [[a if i < j else field.zero() for j, a in enumerate(r)] for i, r in enumerate(upper)]
    rows[0][n - 1] = field.one()
    perm = rng.sample(range(n), n)
    rows = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    if density == 1.0:
        P = sample_rows(rng, "full", n, density, field)
        rows = dense_mul(dense_mul(P, rows, n, field), dense_inverse(P, field), n, field)
    return rows


def as_lists(m):
    return [list(r) for r in m.rows]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel_matches_dense_reference(field):
    rng = seeded(f"dense-reference:{field!r}")
    for kind in ("full", "deficient", "nilpotent"):
        for density in (0.2, 1.0):
            for _ in range(6):
                n = rng.randint(2, 9)
                rows = sample_rows(rng, kind, n, density, field)
                m = Matrix(rows, field)
                assert as_lists(m) == rows

                reduced, pivots = m.rref()
                ref_reduced, ref_pivots = dense_rref(rows, n, field)
                assert (as_lists(reduced), pivots) == (ref_reduced, ref_pivots)
                assert rank(m) == len(ref_pivots)
                assert (kind == "full") == (rank(m) == n)
                C, R = m.rank_factorization()
                ref_C, ref_R = dense_rank_factorization(rows, n, field)
                assert (as_lists(C), as_lists(R)) == (ref_C, ref_R)

                k = rng.randint(1, 9)
                other = random_rows(rng, n, k, density, field)
                assert as_lists(m * Matrix(other, field)) == dense_mul(rows, other, k, field)

                try:
                    ref_inv = dense_group_inverse(rows, field)
                except L.NotGroupInvertible:
                    ref_inv = None
                assert (ref_inv is None) == (kind == "nilpotent" or not m.is_group_invertible())
                if ref_inv is None:
                    with pytest.raises(L.NotGroupInvertible):
                        m.group_inverse()
                else:
                    assert as_lists(m.group_inverse()) == ref_inv

                same = Matrix.from_row_dicts(
                    [dict(reversed(r.items())) for r in row_dicts(m)], n, field
                )
                assert same == m
                assert m + zero(n, field) == m
                bumped = [list(r) for r in rows]
                bumped[0][0] = bumped[0][0] + field.one()
                assert Matrix(bumped, field) != m


def test_rank_and_inverse_match_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(rows):
        return sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in r] for r in rows])

    rng = seeded("sympy")
    for kind in ("full", "deficient", "nilpotent"):
        for density in (0.2, 1.0):
            for _ in range(4):
                n = rng.randint(2, 8)
                rows = sample_rows(rng, kind, n, density, L.QQ)
                m = Matrix(rows)
                s = to_sympy(rows)
                assert rank(m) == s.rank()
                if kind == "full":
                    assert to_sympy(m.inverse().rows) == s.inv()


# -- the support-corner group inverse against the whole-matrix formula ----------


def support_sample(rng, kind, n, field):
    """A random sparse n x n matrix of one shape: zero, identity, nilpotent,
    full support, support in a few rows or a few columns, an invertible
    block on scattered indices, or scattered nonzeros."""
    def scalar():
        return field.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))

    rows = [{} for _ in range(n)]
    if kind == "identity":
        return Matrix.identity(n, field)
    if kind == "nilpotent":  # strictly upper triangular on a shuffled index
        order = rng.sample(range(n), n)
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.3:
                    rows[order[a]][order[b]] = scalar()
    elif kind == "full":
        rows = [{j: scalar() for j in range(n)} for _ in range(n)]
    elif kind in ("few_rows", "few_cols"):
        lines = rng.sample(range(n), rng.randint(1, min(3, n)))
        for i in lines:
            for j in range(n):
                if rng.random() < 0.5:
                    rows[i][j] = scalar()
        if kind == "few_cols":
            rows = [{i: r[j] for i, r in enumerate(rows) if j in r} for j in range(n)]
    elif kind == "block":
        at = rng.sample(range(n), rng.randint(1, n))
        for i in at:
            rows[i] = {j: scalar() for j in at if rng.random() < 0.6}
            rows[i][i] = scalar()
    elif kind == "scattered":
        for _ in range(rng.randint(1, 2 * n)):
            rows[rng.randrange(n)][rng.randrange(n)] = scalar()
    return Matrix.from_row_dicts(rows, n, field)


SUPPORT_KINDS = ("zero", "identity", "nilpotent", "full", "few_rows", "few_cols", "block",
                 "scattered")


def _group_inverse_outcome(f, m):
    try:
        return f(m)
    except L.LeavittError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("field", [L.QQ, L.GF(7)], ids=repr)
def test_support_corner_group_inverse_matches_whole_matrix(field):
    rng = seeded(f"support-corner:{field!r}")
    inverted = refused = 0
    for kind in SUPPORT_KINDS:
        for _ in range(25):
            m = support_sample(rng, kind, rng.randint(1, 9), field)
            expected = _group_inverse_outcome(whole_matrix_group_inverse, m)
            got = _group_inverse_outcome(Matrix.group_inverse, m)
            assert got == expected, (kind, m)
            assert m.is_group_invertible() == whole_matrix_is_group_invertible(m)
            assert m.is_group_invertible() == isinstance(got, Matrix)
            if isinstance(got, Matrix):
                b = got
                assert m * b * m == m and b * m * b == b and m * b == b * m
                inverted += 1
            else:
                refused += 1
    assert inverted > 100 and refused > 30


@pytest.mark.parametrize("field", [L.QQ, L.GF(7)], ids=repr)
def test_is_group_invertible_is_whether_group_inverse_succeeds(field, monkeypatch):
    """One decision for "m# exists": is_group_invertible answers whether
    group_inverse returns, and calls it once, over the random square
    matrices of every support kind and of the dense reference test."""
    calls = []
    group_inverse = Matrix.group_inverse
    monkeypatch.setattr(Matrix, "group_inverse", lambda m: calls.append(m) or group_inverse(m))
    rng = seeded(f"one-decision:{field!r}")
    samples = [support_sample(rng, kind, rng.randint(1, 9), field)
               for kind in SUPPORT_KINDS for _ in range(12)]
    samples += [Matrix(sample_rows(rng, kind, rng.randint(2, 9), density, field), field)
                for kind in ("full", "deficient", "nilpotent") for density in (0.2, 1.0)
                for _ in range(6)]
    answers = Counter()
    for m in samples:
        succeeds = isinstance(_group_inverse_outcome(group_inverse, m), Matrix)
        calls.clear()
        answer = m.is_group_invertible()
        assert answer == succeeds and len(calls) == 1 and calls[0] is m, m
        answers[answer] += 1
    assert answers[True] > 30 and answers[False] > 30


def test_support_corner_reaches_indices_outside_the_nonzero_rows():
    # The idempotent m = E_11 + E_12 has nonzeros in row 1 only, but in
    # columns 1 and 2: its group inverse, m itself, needs both.
    m = M([[0, 0, 0], [0, 1, 1], [0, 0, 0]])
    assert m.group_inverse() == whole_matrix_group_inverse(m) == m
    transposed = M([[0, 0, 0], [0, 1, 0], [0, 1, 0]])
    assert transposed.group_inverse() == whole_matrix_group_inverse(transposed) == transposed
    tall = M([[0, 0, 0], [2, 0, 0], [0, 0, 0]])
    with pytest.raises(L.NotGroupInvertible, match=r"rank\(m\^2\) < rank\(m\)"):
        tall.group_inverse()
    with pytest.raises(L.NotGroupInvertible, match="block 1 has no group inverse"):
        BlockMatrix([Matrix.identity(1), tall]).group_inverse()
    assert zero(4).group_inverse() == zero(4)


# -- the nonzero-row storage against the all-rows reference ----------------------


def _outcome(f, *args):
    """Either kernel's answer in one comparable form: each matrix of the
    result as (shape, dense rows), other parts as they are, or an error as
    (type, message)."""
    try:
        out = f(*args)
    except L.LeavittError as exc:
        return (type(exc), str(exc))
    parts = out if isinstance(out, tuple) else (out,)
    for p in parts:  # the new kernel stores no zero and no empty row
        if isinstance(p, Matrix):
            stored = p.nonzero_rows.items()
            assert all(0 <= i < p.nrows and r and all(r.values()) for i, r in stored), p
    return tuple((p.shape, p.rows) if hasattr(p, "rows") else p for p in parts)


def sparse_sample(rng, nrows, ncols, field):
    """Random {column: scalar} rows: most rows empty, some zeros stored."""
    rows = [{} for _ in range(nrows)]
    for _ in range(rng.randint(0, 2 * max(nrows, ncols))):
        if ncols:
            rows[rng.randrange(nrows)][rng.randrange(ncols)] = field.scalar(rng.randint(-2, 2))
    return rows


@pytest.mark.parametrize("field", [L.QQ, L.GF(7)], ids=repr)
def test_nonzero_rows_match_the_all_rows_reference(field):
    rng = seeded(f"nonzero-rows:{field!r}")
    ops = {
        "rref": lambda m: m.rref(),
        "rank_factorization": lambda m: m.rank_factorization(),
        "inverse": lambda m: m.inverse(),
        "group_inverse": lambda m: m.group_inverse(),
        "support corner": lambda m: m._corner(),
        "is_group_invertible": lambda m: m.is_group_invertible(),
    }
    samples = [([], 0, 0)]  # 0 x 0
    for kind in SUPPORT_KINDS:  # square: zero (empty corner), nilpotent, full rank, ...
        for _ in range(12):
            n = rng.randint(1, 9)
            samples.append((row_dicts(support_sample(rng, kind, n, field)), n, n))
    for _ in range(60):  # rectangular, with zero rows and stored zeros
        r, c = rng.randint(1, 8), rng.randint(0, 8)
        samples.append((sparse_sample(rng, r, c, field), r, c))
    worked = Counter()
    for rows, nrows, ncols in samples:
        new = Matrix.from_row_dicts(rows, ncols, field)
        ref = ReferenceMatrix.from_row_dicts(rows, ncols, field)
        assert (new.shape, new.rows, row_dicts(new)) == (ref.shape, ref.rows, list(ref.row_dicts))
        assert (not new.nonzero_rows) == ref.is_zero() and rank(new) == ref.rank()
        for name, op in ops.items():
            got = _outcome(op, new)
            assert got == _outcome(op, ref), (name, rows, ncols)
            worked[name] += not isinstance(got[0], type)  # not an error
        # products and sums against a second random matrix of a fitting shape
        k = rng.randint(0, 7)
        other = sparse_sample(rng, ncols, k, field) if ncols else []
        twin = sparse_sample(rng, nrows, ncols, field)
        assert _outcome(lambda a, b: a * b, new, Matrix.from_row_dicts(other, k, field)) == \
            _outcome(lambda a, b: a * b, ref, ReferenceMatrix.from_row_dicts(other, k, field))
        for b_rows in (twin, [dict(r) for r in rows], [{j: -a for j, a in r.items()} for r in rows]):
            b_new = Matrix.from_row_dicts(b_rows, ncols, field)
            b_ref = ReferenceMatrix.from_row_dicts(b_rows, ncols, field)
            assert _outcome(lambda a, b: a + b, new, b_new) == _outcome(lambda a, b: a + b, ref, b_ref)
            assert (new == b_new) == (ref == b_ref)
    # inverses and group inverses both found and refused, over every shape
    assert worked["inverse"] > 20 and worked["group_inverse"] > 50
    assert len(samples) - worked["group_inverse"] > 50


def test_from_row_dicts_rejects_entries_outside_the_shape():
    with pytest.raises(L.PreconditionError, match="outside the 2 x 2 matrix"):
        Matrix.from_row_dicts([{0: 1}, {7: 1}], 2)
    with pytest.raises(L.PreconditionError):
        Matrix.from_row_dicts([{-1: 1}], 2)
    # a zero is no entry, wherever it is written
    assert Matrix.from_row_dicts([{0: 1}, {7: 0}], 2) == M([[1, 0], [0, 0]])
    assert Matrix.from_row_dicts([{}, {0: 3}], 2) == M([[0, 0], [3, 0]])


def test_a_matrix_is_not_hashable():
    # its rows are dicts, and == compares them
    with pytest.raises(TypeError):
        hash(M([[1, 2], [3, 4]]))
    with pytest.raises(TypeError):
        hash(zero(2))


def test_group_inverse_of_a_huge_sparse_matrix_costs_per_nonzero():
    # 2 E_01 + 3 E_10 + 5 E_nn in order 10^6: the support corner is 3 x 3
    # and invertible, so the group inverse is its inverse placed back.
    import time

    n = 10**6
    rows = [{}] * n
    rows[0], rows[1], rows[n - 1] = {1: 2}, {0: 3}, {n - 1: 5}
    m = Matrix.from_row_dicts(rows, n)
    start = time.perf_counter()
    b = m.group_inverse()
    took = time.perf_counter() - start
    third, half, fifth = Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)
    assert b.nonzero_rows == {0: {1: third}, 1: {0: half}, n - 1: {n - 1: fifth}}
    # compared by their stored rows: a failing == would print the dense views
    assert b.shape == (n, n) and (m * b * m).nonzero_rows == m.nonzero_rows
    assert (m * b).nonzero_rows == (b * m).nonzero_rows
    assert zero(n).nonzero_rows == {}
    assert took < 0.25, took


def test_repr_prints_the_shape_and_the_nonzero_rows_only():
    import time

    start = time.perf_counter()
    text = repr(zero(2000))
    took = time.perf_counter() - start
    assert text == "Matrix[2000x2000]"
    assert took < 0.1, took
    m = M([[0, 2], [0, 0], [Fraction(1, 3), -5]])
    assert repr(m) == "Matrix[3x2; 0: 1=2; 2: 0=1/3 1=-5]"


# -- integer storage: the field's zeros, equal values, repr, copies ------------

GF7 = L.GF(7)
# case -> (the call, the matrix it must equal)
GF7_ZEROS = {
    "an entry that 7 divides": (lambda: Matrix([[7]], GF7), Matrix([[0]], GF7)),
    "the inverse past such an entry": (
        lambda: Matrix([[7, 1], [1, 1]], GF7).inverse(), Matrix([[6, 1], [1, 0]], GF7)
    ),
    # the columns are checked after encoding, so a zero of the field may lie anywhere
    "such a zero outside the columns": (
        lambda: Matrix.from_row_dicts([{5: 7}, {0: 14, 1: 3}], 2, GF7),
        Matrix([[0, 0], [0, 3]], GF7),
    ),
}


@pytest.mark.parametrize("case", GF7_ZEROS)
def test_an_integer_that_p_divides_is_zero_in_gf_p(case):
    build, want = GF7_ZEROS[case]
    assert build() == want


def test_equality_compares_values():
    half = Fraction(1, 2)
    assert Matrix([[half]]) == Matrix([[1]]) * Matrix([[half]])
    assert Matrix([[half, 0]]) + Matrix([[half, 0]]) == Matrix([[1, 0]])
    assert Matrix([[Fraction(2, 4), 0]]) * Matrix([[4], [3]]) == Matrix([[2]])
    assert Matrix([[half]]) != Matrix([[1]]) and Matrix([[1]], GF7) != Matrix([[1]])
    # a window keeps the entries inside it only: 1/2 e^5 falls outside, v is 2/2
    T = L.toeplitz_graph()
    w = L.rcfm_representation(L.parse_element(T, "v + 1/2*e*e*e*e*e"), 3)
    assert w.matrix == Matrix.from_row_dicts([{}, {1: 1}, {2: 1}], 3)
    for field in (L.QQ, GF7):
        rng = seeded(f"inverse-inverse:{field!r}")
        done = 0
        while done < 20:
            n = rng.randint(1, 5)
            m = Matrix([[field.scalar(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]
                        for _ in range(n)], field)
            if rank(m) == n:
                assert m.inverse().inverse() == m
                assert m.group_inverse() == m.inverse() and m * m.inverse() == Matrix.identity(n, field)
                done += 1


@pytest.mark.parametrize("field", [L.QQ, GF7], ids=repr)
def test_repr_spells_each_entry_as_its_scalar_prints(field):
    """repr spells the stored integers through the field, building no scalar;
    it is the spelling of the scalars the nonzero_rows view builds."""
    rng = seeded(f"repr:{field!r}")
    for _ in range(40):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
        rows = [{j: field.scalar(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 10)))
                 for j in range(ncols) if rng.random() < 0.5} for _ in range(nrows)]
        m = Matrix.from_row_dicts(rows, ncols, field)
        stored = sorted(m.nonzero_rows.items())
        body = "".join(f"; {i}: " + " ".join(f"{j}={r[j]}" for j in sorted(r)) for i, r in stored)
        assert repr(m) == f"Matrix[{m.nrows}x{m.ncols}{body}]"


def test_a_matrix_and_a_block_matrix_survive_pickle_and_deepcopy():
    import copy
    import pickle

    m = Matrix([[Fraction(1, 3), 0], [2, Fraction(-5, 7)]])
    f = Matrix([[3, 0], [1, 6]], GF7)
    for obj in (m, f, Matrix.identity(3), zero(2), BlockMatrix([m, f]), m.group_inverse()):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)
    twin = copy.deepcopy(m)
    assert twin.nonzero_rows == m.nonzero_rows and twin * m == m * m
