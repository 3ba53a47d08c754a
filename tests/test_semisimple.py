"""Reduced monomials, matrix decompositions, and Fountain-Gould witnesses."""

import tracemalloc
from itertools import product

import pytest

import leavitt as L
from leavitt import Element, Monomial, NotFoundWithinBounds, NotSquareCancellable, Path, PreconditionError
from leavitt.algebra import _normal_form
from leavitt.graph import _path_counts, _paths_ending_in
from leavitt.semisimple import MAX_SINK_EDGES

from conftest import (
    corpus_graphs,
    diamond_chain,
    path_count_dimension,
    random_element,
    random_graph,
    raw_monomials,
    seeded,
)


def E(g, text):
    return L.parse_element(g, text)


# -- reduced expressions ---------------------------------------------------------


def test_reduced_expression_examples(line3, a2, p1):
    m = Monomial(Path.from_edges(line3, ["a1", "a2"]), Path.from_edges(line3, ["a2"]))
    real, ghost = L.reduced_expression(m)
    assert real.edges == ("a1",) and ghost.is_trivial and ghost.source == "x2"
    mu = Path.from_edges(line3, ["a1"])
    real, ghost = L.reduced_expression(Monomial(mu, Path.trivial(line3, "x2")))
    assert real == mu and ghost.is_trivial
    t = Path.trivial(p1, "v")
    assert L.reduced_expression(Monomial(t, t)) == (t, t)


def test_reduced_expression_rejects_bifurcations(toeplitz):
    m = Monomial(Path.trivial(toeplitz, "v"), Path.trivial(toeplitz, "v"))
    with pytest.raises(PreconditionError):
        L.reduced_expression(m)


def test_reduced_expression_idempotent_and_canonical(line3):
    # equality in the algebra iff identical reduced expressions
    seen = {}
    for m in raw_monomials(line3, 4):
        real, ghost = L.reduced_expression(m)
        assert [Path(line3, p.source, p.edges).range for p in (real, ghost)] == [real.range] * 2
        again = L.reduced_expression(Monomial(real, ghost))
        assert again == (real, ghost)
        key = (real, ghost)
        x = Element.from_monomial(m)
        if key in seen:
            assert seen[key] == x
        else:
            seen[key] = x
    # distinct reduced expressions give distinct elements
    values = list(seen.values())
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b


def test_reduced_monomial_basis(a2, p1, line3):
    assert [L.format_monomial(m) for m in L.reduced_monomial_basis(a2)] == ["u", "f", "f'", "w"]
    assert [L.format_monomial(m) for m in L.reduced_monomial_basis(p1)] == ["v"]
    assert len(L.reduced_monomial_basis(line3)) == 9
    # matches the engine's basis: same elements, just enumerated differently
    engine = {L.format_element(Element.from_monomial(m)) for m in L.full_basis(line3)}
    reduced = {L.format_element(Element.from_monomial(m)) for m in L.reduced_monomial_basis(line3)}
    assert engine == reduced


def test_reduced_monomials_coincide_with_normal_forms_when_bifurcation_free():
    # on bifurcation-free graphs the rewrite rule's correction sum is empty,
    # so normal forms and reduced monomials are the same monomials
    for g in corpus_graphs():
        if not L.is_acyclic_no_bifurcation(g):
            continue
        for m in L.full_basis(g):
            assert L.reduced_expression(m) == (m.real, m.ghost)


# -- matrix decomposition ----------------------------------------------------------


def test_decomposition_examples(a2, line3):
    d = L.matrix_decomposition(a2)
    assert d.kind == "vertices"
    assert d.sizes == (2,)
    assert d.describe() == [{"size": 2, "index": ["u", "w"]}]
    assert L.matrix_decomposition(line3).sizes == (3,)
    two = L.parse_graph(
        "graph Two\nvertex u1\nvertex w1\nvertex u2\nvertex w2\nedge f1 u1 w1\nedge f2 u2 w2\n"
    )
    assert L.matrix_decomposition(two).sizes == (2, 2)


def test_decomposition_with_bifurcations_indexes_sink_paths():
    g = L.parse_graph(
        "graph Y\nvertex a\nvertex b\nvertex s\nedge p a s\nedge q b s\nedge r a b\n"
    )
    d = L.matrix_decomposition(g)
    assert d.kind == "sink_paths"
    assert d.sizes == (4,)  # s, p, q, r.q
    assert d.describe()[0]["index"] == ["s", "p", "q", "r.q"]
    assert len(L.full_basis(g)) == 16 == path_count_dimension(g)


def test_decomposition_paths_revalidate_and_are_indexed(line3):
    rng = seeded("decomposition-paths")
    graphs = corpus_graphs() + [random_graph(rng) for _ in range(150)]
    for g in (g for g in graphs if L.is_acyclic(g)):
        d = L.matrix_decomposition(g)
        for bi, block in enumerate(d.blocks):
            for j, p in enumerate(block):
                again = Path(g, p.source, p.edges)
                assert again == p and again.range == p.range and p.range in g.sinks()
                assert d.position_of(again) == (bi, j)
    with pytest.raises(PreconditionError, match="does not end at a decomposed sink"):
        L.matrix_decomposition(line3).position_of(Path.trivial(line3, "x1"))
    many = L.Graph("many", [f"v{i}" for i in range(2000)], [])
    d = L.matrix_decomposition(many)
    assert L.to_matrix(Element.identity(many), d) == L.BlockMatrix([L.Matrix.identity(1)] * 2000)


def test_decomposition_rejects_cycles(toeplitz, r1):
    for g in (toeplitz, r1):
        with pytest.raises(PreconditionError):
            L.matrix_decomposition(g)
        with pytest.raises(PreconditionError):
            L.is_square_cancellable(Element.vertex(g, g.vertices[0]))


def sink_path_totals(g):
    """(paths, edges) of all the paths into the sinks, as matrix_decomposition
    reads them off the backward counts: the sums of |level k| and k |level k|."""
    sizes = [sum(level.values()) for level in _path_counts(g, g.sinks(), backwards=True)]
    return sum(sizes), sum(k * n for k, n in enumerate(sizes))


def test_sink_path_totals_match_the_enumeration():
    rng = seeded("sink-path-totals")
    graphs = [random_graph(rng, max_edges=7) for _ in range(300)] + corpus_graphs()
    graphs += [diamond_chain(k) for k in range(5)] + [L.line_graph(40), L.comb_graph(6)]
    checked = 0
    for g in filter(L.is_acyclic, graphs):
        paths = [p for level in _paths_ending_in(g, g.sinks()) for p in level]
        assert sink_path_totals(g) == (len(paths), sum(p.length for p in paths)), g
        checked += 1
    assert checked > 100


def test_decomposition_refuses_too_many_sink_edges():
    """The bound admits line_graph(8192), README's largest decomposition
    (33,550,336 edges), and refuses one more vertex; 17 diamonds in a row
    hold 16,515,082 edges, and 18 hold 35,127,306."""
    assert sink_path_totals(L.line_graph(8192)) == (8192, 33550336)
    assert 33550336 <= MAX_SINK_EDGES
    assert sink_path_totals(diamond_chain(17)) == (524285, 16515082)
    for g, edges in ((L.line_graph(8193), 33558528), (diamond_chain(18), 35127306)):
        with pytest.raises(L.LimitExceeded) as refused:
            L.matrix_decomposition(g)
        assert str(refused.value) == (
            f"sink paths of {edges} edges in all exceed the bound {MAX_SINK_EDGES}"
        )
    assert L.matrix_decomposition(diamond_chain(3)).sizes == (2 ** 5 - 3,)


def test_ladder_restriction_decomposition():
    lad = L.ladder_graph(5)
    rg = L.restriction_graph(lad, [f"v{i}" for i in range(1, 6)], 10)
    assert rg.complete
    assert L.matrix_decomposition(rg.graph).sizes == (2, 3, 4, 5, 6)


# -- the isomorphism -----------------------------------------------------------------


def test_matrix_units(a2):
    d = L.matrix_decomposition(a2)
    images = {
        "u": [[1, 0], [0, 0]],
        "f": [[0, 1], [0, 0]],
        "f'": [[0, 0], [1, 0]],
        "w": [[0, 0], [0, 1]],
    }
    for text, rows in images.items():
        got = L.to_matrix(E(a2, text), d)
        assert got.blocks[0] == L.Matrix.from_int_rows(rows)


def test_to_matrix_vertex_is_diagonal_idempotent(line3):
    d = L.matrix_decomposition(line3)
    m = L.to_matrix(Element.vertex(line3, "x2"), d).blocks[0]
    assert sum(1 for i in range(3) for j in range(3) if m[i, j]) == 1
    assert m * m == m


def test_from_matrix_identity_is_vertex_sum(a2):
    d = L.matrix_decomposition(a2)
    ident = L.BlockMatrix([L.Matrix.identity(2)])
    assert L.from_matrix(ident, d) == Element.identity(a2)


def test_from_matrix_refuses_blocks_that_are_not_square(a2):
    # the one block of u -f-> w is 2 x 2; a 2 x 3 block has the right row count
    d = L.matrix_decomposition(a2)
    outside = L.Matrix.from_row_dicts([{2: L.QQ.one()}, {}], 3)
    inside = L.Matrix.from_row_dicts([{0: L.QQ.one()}, {1: L.QQ.one()}], 3)
    for m in (outside, inside, inside.transpose()):
        with pytest.raises(PreconditionError, match="block sizes disagree"):
            L.from_matrix(L.BlockMatrix([m]), d)


def test_from_matrix_keeps_the_field_of_its_blocks(a2):
    """The field given must be the blocks' field; it was overwritten by it,
    so a matrix over QQ pulled back over F_7 came back over QQ."""
    d = L.matrix_decomposition(a2)
    for field in (L.QQ, L.GF(7)):
        x = L.parse_element(a2, "2*u + f", field)
        assert L.from_matrix(L.to_matrix(x, d), d) == x
        assert L.from_matrix(L.to_matrix(x, d), d, field) == x
    x = L.parse_element(a2, "2*u + f")
    with pytest.raises(L.GraphMismatch, match=r"^blocks over QQ, but the field given is GF\(7\)$"):
        L.from_matrix(L.to_matrix(x, d), d, L.GF(7))
    y = L.parse_element(a2, "u", L.GF(7))
    with pytest.raises(L.GraphMismatch, match=r"^blocks over GF\(7\), but the field given is QQ$"):
        L.from_matrix(L.to_matrix(y, d), d, L.QQ)
    # with no blocks there is no field to disagree with
    empty = L.matrix_decomposition(L.Graph("empty", [], []))
    assert L.from_matrix(L.BlockMatrix([]), empty).field == L.QQ
    assert L.from_matrix(L.BlockMatrix([]), empty, L.GF(7)).field == L.GF(7)


def test_to_matrix_isomorphism_random():
    rng = seeded("iso")
    for g in corpus_graphs():
        if not L.is_acyclic(g):
            continue
        d = L.matrix_decomposition(g)
        pool = raw_monomials(g)
        for _ in range(200):
            x = random_element(g, rng, pool, size=3)
            y = random_element(g, rng, pool, size=3)
            assert L.to_matrix(x * y, d) == L.to_matrix(x, d) * L.to_matrix(y, d)
            assert L.to_matrix(x + y, d) == L.to_matrix(x, d) + L.to_matrix(y, d)
            assert L.from_matrix(L.to_matrix(x, d), d) == x


def test_from_matrix_round_trip_on_basis(a2):
    d = L.matrix_decomposition(a2)
    for m in L.full_basis(a2):
        x = Element.from_monomial(m)
        assert L.from_matrix(L.to_matrix(x, d), d) == x


def test_block_count_matches_alpha_squared():
    for g in corpus_graphs():
        if not L.is_acyclic_no_bifurcation(g):
            continue
        d = L.matrix_decomposition(g)
        assert len(L.full_basis(g)) == sum(n * n for n in d.sizes)


# -- square-cancellable and witnesses ---------------------------------------------------


def test_square_cancellable_examples(a2):
    assert L.is_square_cancellable(Element.vertex(a2, "u"))
    assert not L.is_square_cancellable(E(a2, "f"))
    assert L.is_square_cancellable(E(a2, "u + f"))


def test_element_group_inverse(a2):
    x = E(a2, "2*u + w")
    inv = L.element_group_inverse(x)
    assert L.format_element(inv) == "1/2*u + w"
    assert x * inv * x == x
    with pytest.raises(L.NotGroupInvertible):
        L.element_group_inverse(E(a2, "f"))


def test_group_inverse_on_paths_past_the_recursion_limit():
    g = L.line_graph(1100)
    x1 = Element.from_monomial(Monomial(Path.trivial(g, "x1"), Path.trivial(g, "x1")))
    assert L.element_group_inverse(x1) == x1


def test_verify_fg_witness(a2):
    q = E(a2, "f'")
    ident = Element.identity(a2)
    assert L.verify_fg_witness(q, ident, q, membership=lambda _: True)
    assert L.verify_fg_witness(q, ident, q, membership=L.is_in_path_algebra) is False
    with pytest.raises(NotSquareCancellable):
        L.verify_fg_witness(q, E(a2, "f"), q, membership=lambda _: True)


def test_verify_fg_witness_rejects_a_wrong_numerator(a2):
    """Kills the mutant whose verify_fg_witness always answers True: on A2,
    f = a b# holds for a = f and fails for a = 2*f, with b the identity."""
    q, ident = E(a2, "f"), Element.identity(a2)
    assert L.verify_fg_witness(q, ident, q, membership=lambda _: True)
    assert L.verify_fg_witness(E(a2, "2*f"), ident, q, membership=lambda _: True) is False


def test_no_path_algebra_witness_for_ghost_edge(a2):
    # KE maps onto triangular matrices; their right quotients a b# stay
    # triangular and can never produce the opposite matrix unit f*
    q = E(a2, "f'")
    with pytest.raises(NotFoundWithinBounds):
        L.find_fg_witness(q, membership=L.is_in_path_algebra)


def test_fg_witness_search_succeeds_inside_full_algebra(a2):
    q = E(a2, "f'")
    basis = L.full_basis(a2)
    a, b = L.find_fg_witness(q, membership=lambda _: True, basis=basis)
    d = L.matrix_decomposition(a2)
    assert L.to_matrix(q, d) == L.to_matrix(a, d) * L.to_matrix(b, d).group_inverse()


def parent_find_fg_witness(q, membership, basis=None):
    """The search as it was before its pool was counted: every candidate
    built first, then filtered. Verbatim but for its name."""
    d = L.matrix_decomposition(q.graph)
    field = q.field
    if basis is None:
        basis = [m for m in L.full_basis(q.graph) if m.is_pure_path]
    pool = []
    for coeffs in product((-1, 0, 1), repeat=len(basis)):
        if not any(coeffs):
            continue
        raw = [(m, field.from_int(c)) for m, c in zip(basis, coeffs) if c]
        pool.append(Element(q.graph, field, raw))
    members = [(x, L.to_matrix(x, d)) for x in pool if membership(x)]
    qm = L.to_matrix(q, d)
    for b, bm in members:
        try:
            b_inv = bm.group_inverse()
        except L.NotGroupInvertible:
            continue
        for a, am in members:
            if qm == am * b_inv:
                return a, b
    raise NotFoundWithinBounds(
        f"no Fountain-Gould witness within {len(pool)} candidate elements"
    )


def _witness_outcome(search, *args):
    try:
        return search(*args)
    except L.LeavittError as exc:
        return (type(exc), str(exc))


def test_counted_witness_pool_finds_what_the_built_pool_found(a2, line3):
    """The pool is counted, not built, and only its members are kept: the
    first witness found and the message of an exhausted search, with its
    count, are those of the search that built every candidate first."""
    paths = [m for m in L.full_basis(line3) if m.is_pure_path]
    cases = [
        (E(a2, text), membership, basis)
        for text in ("f'", "f", "u", "2*u + w", "f*f' - w", "0")
        for membership in (L.is_in_path_algebra, lambda _: True)
        for basis in (None, L.full_basis(a2))
    ]
    cases += [(E(line3, text), L.is_in_path_algebra, paths[:4]) for text in ("x1", "a1", "a1'")]
    found = exhausted = 0
    for q, membership, basis in cases:
        got = _witness_outcome(L.find_fg_witness, q, membership, basis)
        assert got == _witness_outcome(parent_find_fg_witness, q, membership, basis), q
        found += isinstance(got[0], Element)
        exhausted += got[0] is NotFoundWithinBounds
    assert found > 10 and exhausted > 3


def test_round_trip_on_a_long_line_cuts_each_unit_once():
    """(p)(p)* for the path p from x1 to the sink of a line of 1000 and of
    2000 vertices normalises in one cut of its run of single-exit edges:
    with the graph's memo warm, the kernel's peak allocation stays under
    2 KB at both sizes (a slice per edge would hold a tuple of ~8n bytes).
    The 1000-vertex line's matrix round trip inverts 3*x500 + x501 without
    a step per edge."""
    for n in (2000, 1000):
        g = L.line_graph(n)
        p = Path(g, "x1", tuple(f"a{i}" for i in range(1, n)))
        assert Element(g, L.QQ, [(Monomial(p, p), L.QQ.one())]) == Element.vertex(g, "x1")
        raw = [(("x1", p.edges, "x1", p.edges), L.QQ.one())]
        tracemalloc.start()
        try:
            flat = _normal_form(g, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flat == {("x1", (), "x1", ()): L.QQ.one()}
        assert peak < 2048, (n, peak)

    d = L.matrix_decomposition(g)
    x = E(g, "3*x500 + x501")
    inv = L.from_matrix(L.to_matrix(x, d).group_inverse(), d, x.field)
    assert L.format_element(inv) == "1/3*x500 + x501"
    assert inv == E(g, "1/3*x500 + x501")


def test_to_matrix_leaves_the_memoised_decomposition_unchanged():
    """A decomposition is a memoised graph fact shared by every caller, so
    to_matrix only reads it: 200 images of random matrix units on a line and
    on a bifurcating DAG leave every attribute as it was before them."""
    rng = seeded("to-matrix-read-only")
    dag = L.parse_graph("graph D\nvertex u\nvertex v\nvertex w\nedge a u w\nedge b u v\nedge c v w\n")
    for g in (L.line_graph(64), dag):
        d = L.matrix_decomposition(g)
        before = {name: repr(getattr(d, name)) for name in type(d).__slots__}
        by_range = {}
        for p in L.paths_up_to(g, len(g.vertices)):
            by_range.setdefault(p.range, []).append(p)
        groups = list(by_range.values())
        for _ in range(200):
            group = rng.choice(groups)
            x = Element.from_monomial(Monomial(rng.choice(group), rng.choice(group)))
            L.to_matrix(x, d)
        assert {name: repr(getattr(d, name)) for name in type(d).__slots__} == before
        assert d is L.matrix_decomposition(g)
