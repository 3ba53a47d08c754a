"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check here is exact (integer counts, exact-field equality); there are
no numeric tolerances anywhere. Each test prints its own PASS line so a
`pytest -s` run reads as a checklist.
"""

import random
from fractions import Fraction

import pytest

import leavitt as L
from leavitt import Element, Monomial, Path
from leavitt.matrices import BlockMatrix, Matrix

from conftest import (
    closure_oracle,
    corpus_graphs,
    random_element,
    random_nonzero_element,
    random_order_normal_form,
    random_raw_terms,
    random_graph,
    raw_monomials,
    seeded,
    semiprime_oracle,
    small_corpus_graphs,
    socle_essential_oracle,
    subsets,
)


def report(num, text):
    print(f"criterion {num:02d}: PASS - {text}")


def test_criterion_01_a2_is_m2():
    a2 = L.parse_graph("graph A2\nvertex u\nvertex w\nedge f u w\n")
    d = L.matrix_decomposition(a2)
    assert d.sizes == (2,)
    assert len(L.full_basis(a2)) == 4
    report(1, "A2 decomposes to one block of size 2 with basis count 4")


def test_criterion_02_oriented_line_is_m3():
    line = L.line_graph(3)
    d = L.matrix_decomposition(line)
    assert d.sizes == (3,)
    # independent oracle: count paths into the unique sink by enumeration
    sink_paths = [p for p in L.paths_up_to(line, 3) if p.range == "x3"]
    assert len(sink_paths) == 3
    assert len(L.full_basis(line)) == 9 == len(sink_paths) ** 2
    report(2, "3-vertex line decomposes to one block of size 3 with basis count 9")


def test_criterion_03_ladder_restriction_sizes():
    ladder = L.ladder_graph(5)
    H = [f"v{i}" for i in range(1, 6)]
    assert L.is_hereditary(ladder, H) and L.is_saturated(ladder, H)
    rg = L.restriction_graph(ladder, H, 10)
    assert rg.complete
    sizes = L.matrix_decomposition(rg.graph).sizes
    assert sizes == (2, 3, 4, 5, 6)
    report(3, "ladder restriction graph decomposes with sizes [2, 3, 4, 5, 6]")


def test_criterion_04_toeplitz_exact_sequence():
    g = L.toeplitz_graph()
    monomials = L.basis_monomials_up_to(g, 4)
    mismatches = 0
    hit = set()
    for m in monomials:
        x = Element.from_monomial(m)
        image = L.laurent_quotient(x)
        if L.in_socle(x) != image.is_zero():
            mismatches += 1
        if len(image.coeffs) == 1:
            hit.add(next(iter(image.coeffs)))
    assert mismatches == 0
    assert {k for k in range(-4, 5)} <= hit
    # and the packaged report agrees
    assert L.exact_sequence_report(g, 4)["pass"]
    report(4, "exact sequence verified on all basis monomials of length <= 4")


def test_criterion_05_toeplitz_sandwich():
    g = L.toeplitz_graph()
    N, d = 12, 4
    monomials = L.basis_monomials_up_to(g, d)

    for m in monomials:
        x = Element.from_monomial(m)
        win = L.rcfm_representation(x, N)
        assert win.flags["row_finite_on_window"] and win.flags["col_finite_on_window"]
        if L.in_socle(x):
            assert win.flags["finitely_supported"]

    generators = ["v", "w", "e", "f", "e'", "f'"]
    for a in generators:
        for b in generators:
            x = L.parse_element(g, a)
            y = L.parse_element(g, b)
            wx = L.rcfm_representation(x, N)
            wy = L.rcfm_representation(y, N)
            wxy = L.rcfm_representation(x * y, N)
            product = wx.matrix * wy.matrix
            bound = N - x.total_degree() - y.total_degree()
            got, want = product.rows, wxy.matrix.rows
            for i in range(bound):
                for j in range(bound):
                    assert got[i][j] == want[i][j]

    rng = seeded("acceptance-sandwich")
    sample = rng.sample(monomials, 20)
    windows = [L.rcfm_representation(Element.from_monomial(m), N) for m in sample]
    flat = Matrix([[a for row in w.matrix.rows for a in row] for w in windows])
    assert len(flat.rref()[1]) == 20

    assert L.sandwich_report(g, d, N)["pass"]
    report(5, "sandwich checks pass at window 12, degree 4, with independent windows")


def test_criterion_06_semiprimeness_criterion():
    rng = seeded("acceptance-semiprime")
    for _ in range(100):
        g = random_graph(rng, max_vertices=6, max_edges=10)
        assert L.is_path_algebra_semiprime(g) == semiprime_oracle(g)

    a2 = L.parse_graph("graph A2\nvertex u\nvertex w\nedge f u w\n")
    assert not L.is_path_algebra_semiprime(a2)
    # degeneracy witness: f (KE) f = 0, checked in the element engine
    f = L.parse_element(a2, "f")
    for m in L.full_basis(a2):
        if m.is_pure_path:
            assert (f * Element.from_monomial(m) * f).is_zero()
    report(6, "SCC semiprimeness decision matches the path oracle on 100 random graphs")


def test_criterion_07_closure_matches_exhaustive_minimum():
    checked = 0
    for g in small_corpus_graphs():
        for X in subsets(g.vertices):
            assert L.hereditary_saturated_closure(g, X).members == closure_oracle(g, X)
            checked += 1
    assert checked > 0
    report(7, f"closure fixpoint equals the exhaustive minimum on {checked} subsets")


def test_criterion_08_right_denominators():
    rng = seeded("acceptance-denominator")
    for g in corpus_graphs():
        pool = raw_monomials(g)
        for _ in range(100):
            p = random_nonzero_element(g, rng, pool)
            q = random_element(g, rng, pool)
            witness = L.denominator_search(p, q)
            assert not (p * witness.r).is_zero()
            assert L.is_in_path_algebra(q * witness.r)
            assert len(witness.extensions) <= q.ghost_degree()
    report(8, "denominator postconditions hold on 100 random pairs per corpus graph")


def test_criterion_09_rewriting_and_ck_identities():
    rng = seeded("acceptance-rewriting")
    for g in corpus_graphs():
        pool = raw_monomials(g)
        for _ in range(200):
            terms = random_raw_terms(g, rng, pool, size=5)
            deterministic = Element(g, L.QQ, terms).terms
            randomized = random_order_normal_form(g, rng.sample(terms, len(terms)), rng)
            assert deterministic == randomized

        # Cuntz-Krieger relations (1)-(4), exactly
        for e in g.edges:
            edge = Element.edge(g, e.name)
            ghost = Element.edge(g, e.name).star()
            assert Element.vertex(g, e.src) * edge == edge == edge * Element.vertex(g, e.dst)
            assert Element.vertex(g, e.dst) * ghost == ghost == ghost * Element.vertex(g, e.src)
            for e2 in g.edges:
                expected = (
                    Element.vertex(g, e.dst) if e2.name == e.name else Element.zero(g)
                )
                assert ghost * Element.edge(g, e2.name) == expected
        for v in g.vertices:
            es = g.out_edges(v)
            if es:
                total = Element.zero(g)
                for e in es:
                    x = Element.edge(g, e.name)
                    total = total + x * x.star()
                assert total == Element.vertex(g, v)

        for _ in range(20):
            x = random_element(g, rng, pool)
            y = random_element(g, rng, pool)
            assert (x * y).star() == y.star() * x.star()
            for dx, xc in L.homogeneous_components(x).items():
                for dy, yc in L.homogeneous_components(y).items():
                    assert all(m.degree == dx + dy for m in (xc * yc).terms)

        paths = L.paths_up_to(g, 3)
        for _ in range(10):
            chosen = rng.sample(paths, min(3, len(paths)))
            coeffs = [rng.choice([-2, -1, 1, 2]) for _ in chosen]
            x = Element(
                g,
                L.QQ,
                [
                    (Monomial(p, Path.trivial(g, p.range)), L.QQ.scalar(c))
                    for p, c in zip(chosen, coeffs)
                ],
            )
            assert x.support_size() == len(chosen)
    report(9, "confluence on 200 elements per graph; relations, involution, grading exact")


def _random_invertible(rng, n):
    while True:
        m = Matrix([[L.QQ.scalar(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        if len(m.rref()[1]) == n:
            return m


def _conjugated(rng, core):
    P = _random_invertible(rng, core.nrows)
    return P * core * P.inverse()


def test_criterion_10_group_inverses():
    rng = seeded("acceptance-groupinv")
    scalars = [1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2)]

    for _ in range(100):
        blocks = []
        for n in (2, 3):
            rank = rng.randint(0, n)
            diag = Matrix(
                [
                    [Fraction(rng.choice(scalars)) if i == j and i < rank else Fraction(0)
                     for j in range(n)]
                    for i in range(n)
                ]
            )
            blocks.append(_conjugated(rng, diag))
        m = BlockMatrix(blocks)
        assert all(len(b.rref()[1]) == len((b * b).rref()[1]) for b in m.blocks)
        b = m.group_inverse()
        assert m * b * m == m
        assert b * m * b == b
        assert m * b == b * m

    for _ in range(100):
        which = rng.randrange(2)
        blocks = []
        for idx, n in enumerate((2, 3)):
            if idx == which:
                rows = [[0, 1], [0, 0]] if n == 2 else [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
                core = Matrix([[L.QQ.scalar(x) for x in r] for r in rows])
            else:
                core = Matrix.identity(n)
            blocks.append(_conjugated(rng, core))
        m = BlockMatrix(blocks)
        core = m.blocks[which]
        assert len((core * core).rref()[1]) < len(core.rref()[1])
        with pytest.raises(L.NotGroupInvertible):
            m.group_inverse()
    report(10, "group-inverse axioms verified on 100 matrices; 100 rank drops rejected")


def test_criterion_11_essential_socle_criterion():
    assert L.socle_is_essential(L.toeplitz_graph()) is True
    assert L.socle_is_essential(L.single_loop_graph()) is False
    assert L.socle_is_essential(L.ladder_graph(4)) is True

    rng = seeded("acceptance-essential")
    for _ in range(100):
        g = random_graph(rng)
        assert L.socle_is_essential(g) == socle_essential_oracle(g)
    report(11, "essential-socle criterion matches the direct definition everywhere")
