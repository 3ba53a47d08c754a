"""Every path family grows backwards from its targets through one shared
enumerator, ``graph._paths_ending_in``, and every bound on a family reads
its twin, the count ``graph._path_counts``. Each family is diffed against a
copy, in conftest, of the construction it replaced, and the count against
powers of the adjacency matrix: on random graphs, cyclic and acyclic with
shuffled declarations, and on the corpus."""

from itertools import islice

import pytest

import leavitt as L
from leavitt import Element, Graph, PreconditionError
from leavitt.graph import _path_counts, _paths_ending_in
from leavitt.quotients import _entry_paths, _mu_candidates

from conftest import (
    adjacency_path_counts,
    corpus_graphs,
    diamond_chain,
    random_acyclic_graph,
    random_element,
    random_graph,
    random_nonzero_element,
    raw_monomials,
    reference_entry_paths,
    reference_matrix_decomposition,
    reference_mu_candidates,
    reference_paths_up_to,
    reference_reduced_expression,
    reference_reduced_monomial_basis,
    reference_restriction_embedding,
    rose,
    seeded,
    shuffled,
)

FIELDS = [L.QQ, L.GF(7)]


def sample_graphs(rng, count, max_vertices=6):
    graphs = []
    for _ in range(count):
        graphs.append(shuffled(random_graph(rng, max_vertices), rng))
        graphs.append(random_acyclic_graph(rng, max_vertices))
        graphs.append(random_acyclic_graph(rng, max_vertices, bifurcation_free=True))
    return graphs + corpus_graphs()


def random_hereditary(g, rng):
    """The tree of a random nonempty vertex set: nonempty and hereditary."""
    seed = [v for v in g.vertices if rng.random() < 0.3] or [rng.choice(g.vertices)]
    return L.tree_of_set(g, seed).members


def _outcome(f, *args):
    try:
        return f(*args)
    except PreconditionError as exc:
        return (type(exc), str(exc))


def test_levels_are_in_edge_order_and_pass_only_kept_sources():
    rng = seeded("paths-ending-in")
    for g in sample_graphs(rng, 60):
        targets = [v for v in g.vertices if rng.random() < 0.5]
        kept = {v for v in g.vertices if rng.random() < 0.7}
        levels = _paths_ending_in(g, targets, kept.__contains__)
        assert [p.source for p in next(levels, [])] == targets
        for length, level in zip(range(1, 5), levels):
            assert level == sorted(level, key=lambda p: [g.edge_index(e) for e in p.edges])
            for p in level:
                assert p.length == length and p.range in targets
                assert all(g.edge(e).src in kept for e in p.edges)


def test_path_counts_match_the_adjacency_powers():
    """Forwards and backwards, with and without keep, up to length 6."""
    rng = seeded("path-counts")
    graphs = sample_graphs(rng, 60) + [rose(n) for n in range(1, 5)]
    graphs += [diamond_chain(k) for k in range(5)] + [L.toeplitz_graph()]
    for g in graphs:
        for backwards in (False, True):
            sources = [v for v in g.vertices if rng.random() < 0.5] or [rng.choice(g.vertices)]
            kept = {v for v in g.vertices if rng.random() < 0.7}
            for keep in (None, kept.__contains__):
                got = list(islice(_path_counts(g, sources, backwards, keep), 7))
                want = adjacency_path_counts(g, sources, backwards, keep, up_to=6)
                assert got == want, (g, sources, backwards, keep and kept)


def test_paths_up_to_matches_the_forward_enumeration():
    rng = seeded("paths-up-to-diff")
    for g in sample_graphs(rng, 100):
        for length in (-1, 0, 1, 2, 4):
            assert L.paths_up_to(g, length) == reference_paths_up_to(g, length), (g, length)


def test_a_bound_past_sys_maxsize_cuts_no_level():
    """Each family is cut at its bound by counting levels, so a bound past
    sys.maxsize on a finite family gives the whole family, where slicing
    the levels raised a ValueError."""
    g = L.line_graph(3)
    assert L.basis_monomials_up_to(g, 10**20) == L.full_basis(g)
    assert L.paths_up_to(g, 10**20) == L.paths_up_to(g, 2)
    assert _entry_paths(g, {"x3"}, 10**20) == _entry_paths(g, {"x3"}, 2)


def test_entry_paths_match_the_forward_enumeration():
    rng = seeded("entry-paths-diff")
    complete = incomplete = 0
    for g in sample_graphs(rng, 100):
        for _ in range(2):
            H = random_hereditary(g, rng)
            for bound in (1, 2, 4):
                got = _entry_paths(g, H, bound)
                assert got == reference_entry_paths(g, H, bound), (g, H, bound)
                complete += got[1] and bool(got[0])
                incomplete += not got[1]
    assert complete > 50 and incomplete > 50


def test_decomposition_matches_the_two_branch_construction():
    rng = seeded("decomposition-diff")
    several = 0
    for g in sample_graphs(rng, 150):
        if not L.is_acyclic(g):
            continue
        d = L.matrix_decomposition(g)
        kind, blocks = reference_matrix_decomposition(g)
        assert d.kind == kind, g
        assert [(tuple(c["index"]), b) for c, b in zip(d.describe(), d.blocks)] == blocks, g
        expected = _outcome(reference_reduced_monomial_basis, g)
        assert _outcome(L.reduced_monomial_basis, g) == expected, g
        several += kind == "vertices" and len(blocks) > 1
    assert several > 40


def test_reduced_expression_matches_the_suffix_loop():
    rng = seeded("reduced-expression-diff")
    checked = 0
    for g in sample_graphs(rng, 60):
        if L.is_acyclic_no_bifurcation(g):
            monomials = raw_monomials(g, 4)
        else:  # both reject every monomial here
            monomials = raw_monomials(g, 0)[:1]
        for m in monomials:
            assert _outcome(L.reduced_expression, m) == _outcome(reference_reduced_expression, m)
            checked += 1
    assert checked > 1000


def test_restriction_embedding_matches_the_element_products():
    rng = seeded("restriction-embedding-diff")
    for g in sample_graphs(rng, 50, max_vertices=5):
        H = random_hereditary(g, rng)
        rg = L.restriction_graph(g, H, rng.choice((1, 2)))
        h = rg.graph
        pool = raw_monomials(h, 2)
        for field in FIELDS:
            ys = [Element.vertex(h, v, field) for v in h.vertices]
            ys += [Element.edge(h, e.name, field) for e in h.edges]
            ys += [random_element(h, rng, pool, field=field) for _ in range(4)]
            for y in ys:
                got = L.restriction_embedding(rg, y)
                assert got == reference_restriction_embedding(rg, y), (g, H, y)


def test_restriction_embedding_sends_a_path_vertex_to_its_projection(toeplitz):
    rg = L.restriction_graph(toeplitz, {"w"}, 3)
    for field in FIELDS:
        for p in rg.entry_paths:
            alpha = Element.from_path(p, field)
            image = L.restriction_embedding(rg, Element.vertex(rg.graph, rg.vertex_for(p), field))
            assert image == alpha * alpha.star()


def rose3():
    return Graph("rose3", ["v"], [(f"e{i}", "v", "v") for i in (1, 2, 3)])


def test_mu_candidates_match_the_list_scan():
    rng = seeded("mu-candidates-diff")
    for g in sample_graphs(rng, 40, max_vertices=4):
        pool = raw_monomials(g, 3)
        for _ in range(3):
            p = random_nonzero_element(g, rng, pool, field=rng.choice(FIELDS))
            assert list(_mu_candidates(p)) == list(reference_mu_candidates(p)), p
    p = L.parse_element(rose3(), "*".join(["e1'"] * 7) + " + e2'")
    got = list(_mu_candidates(p))
    assert len(got) == 1101 and got == list(reference_mu_candidates(p))


@pytest.mark.parametrize("k", [5, 6])
def test_mu_candidate_counts_on_the_rose(k):
    p = L.parse_element(rose3(), "*".join(["e1'"] * k) + " + e2'")
    assert len(list(_mu_candidates(p))) == {5: 127, 6: 371}[k]


def test_internal_paths_are_not_revalidated(monkeypatch, toeplitz):
    """Paths the library derives from valid ones are built trusted: the
    denominator search's candidates and extensions, and the rotation that
    compares and hashes cycles, run ``Path.__init__`` not once."""
    from leavitt import graph

    calls = []
    checked = graph.Path.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        checked(self, *args, **kwargs)

    p, q = L.parse_element(toeplitz, "v"), L.parse_element(toeplitz, "e*e'*e' + f'")
    K = Graph("K3", ["a", "b", "c"], [(f"{u}{w}", u, w) for u in "abc" for w in "abc"])
    monkeypatch.setattr(graph.Path, "__init__", counted)
    witness = L.denominator_search(p, q)
    found, again = L.cycles(K), L.cycles(K)
    assert found == again and {hash(c) for c in found} == {hash(c) for c in again}
    assert calls == []
    assert (L.format_element(witness.r), witness.extensions) == ("e*e", ("e", "e"))
    assert witness == L.quotients.DenominatorWitness(*witness)
    assert len(found) == 8
