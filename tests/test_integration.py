"""Cross-module consistency on randomly generated graphs.

Seeded fuzzing that runs whole pipelines end to end: random DAGs through
the matrix decomposition, random graphs through quotients, denominators,
and socle membership. Complements the per-module suites, which pin exact
values on the corpus graphs.
"""

import random

import leavitt as L
from leavitt import Element, Graph

from conftest import random_element, random_nonzero_element, raw_monomials, seeded


def random_dag(rng, max_vertices=5, max_edges=7):
    """Random acyclic graph: edges only go forward in declaration order."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for k in range(rng.randint(0, max_edges)):
        if n < 2:
            break
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        edges.append((f"e{k}", vertices[i], vertices[j]))
    return Graph(f"dag{n}", vertices, edges)


def test_random_dags_decompose_consistently():
    rng = seeded("fuzz-dag")
    for _ in range(40):
        g = random_dag(rng)
        assert L.is_acyclic(g)
        d = L.matrix_decomposition(g)
        basis = L.full_basis(g)
        assert len(basis) == sum(n * n for n in d.sizes)
        pool = raw_monomials(g, 2)
        for _ in range(5):
            x = random_element(g, rng, pool, size=3)
            y = random_element(g, rng, pool, size=3)
            assert L.to_matrix(x * y, d) == L.to_matrix(x, d) * L.to_matrix(y, d)
            assert L.from_matrix(L.to_matrix(x, d), d) == x
        # square-cancellable elements invert consistently with the axioms
        for _ in range(5):
            x = random_element(g, rng, pool, size=2)
            if L.is_square_cancellable(x):
                inv = L.element_group_inverse(x)
                assert x * inv * x == x
                assert inv * x * inv == inv
                assert x * inv == inv * x


def test_finite_acyclic_algebras_coincide_with_their_socle():
    rng = seeded("fuzz-socle")
    for _ in range(30):
        g = random_dag(rng)
        closure = L.hereditary_saturated_closure(g, L.line_points(g))
        assert closure.members == frozenset(g.vertices)
        assert L.socle_is_essential(g)
        x = random_element(g, rng, raw_monomials(g, 2))
        assert L.in_socle(x)


def test_random_quotients_are_morphisms():
    rng = seeded("fuzz-quotient")
    produced = 0
    for _ in range(40):
        g = random_dag(rng, max_vertices=5, max_edges=6)
        seed = {v for v in g.vertices if rng.random() < 0.4}
        H = L.hereditary_saturated_closure(g, seed).members
        if H == frozenset(g.vertices) or not H:
            continue
        produced += 1
        pool = raw_monomials(g, 2)
        for _ in range(5):
            x = random_element(g, rng, pool, size=3)
            y = random_element(g, rng, pool, size=3)
            px = L.quotient_morphism(x, H)
            py = L.quotient_morphism(y, H)
            assert L.quotient_morphism(x * y, H) == px * py
            assert L.in_graded_ideal(x, H) == px.is_zero()
    assert produced >= 5


def test_quotient_by_everything_kills_everything(toeplitz):
    H = set(toeplitz.vertices)
    target = L.quotient_graph(toeplitz, H)
    assert target.vertices == () and target.edges == ()
    x = L.parse_element(toeplitz, "v + 2*e - 3*e*f")
    assert L.quotient_morphism(x, H).is_zero()
    assert L.in_graded_ideal(x, H)


def test_socle_of_semisimple_graph_is_everything(a2):
    for text in ["u", "w", "f", "f'", "u - 2*f"]:
        assert L.in_socle(L.parse_element(a2, text))


def test_random_denominators_beyond_corpus():
    rng = seeded("fuzz-denominator")
    from conftest import random_graph

    for _ in range(25):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        pool = raw_monomials(g, 2)
        for _ in range(8):
            p = random_nonzero_element(g, rng, pool, size=3)
            q = random_element(g, rng, pool, size=3)
            witness = L.denominator_search(p, q)
            assert not (p * witness.r).is_zero()
            assert L.is_in_path_algebra(q * witness.r)
            assert len(witness.extensions) <= q.ghost_degree()


def test_restriction_of_random_hereditary_sets():
    rng = seeded("fuzz-restrict")
    produced = 0
    for _ in range(40):
        g = random_dag(rng, max_vertices=5, max_edges=6)
        seed = {v for v in g.vertices if rng.random() < 0.3}
        H = L.tree_of_set(g, seed).members if seed else frozenset()
        if not H:
            continue
        produced += 1
        rg = L.restriction_graph(g, H, len(g.vertices) + 1)
        assert rg.complete  # acyclic: entry paths are bounded by the vertex count
        closure = L.hereditary_saturated_closure(g, H).members
        for v in rg.graph.vertices:
            img = L.restriction_embedding(rg, Element.vertex(rg.graph, v))
            assert L.in_graded_ideal(img, closure)
            assert img * img == img  # vertex images are idempotents
    assert produced >= 5
