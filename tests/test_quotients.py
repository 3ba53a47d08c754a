"""Quotient morphisms, ideal membership, restriction graphs, denominators."""

import tracemalloc

import pytest

import leavitt as L
from leavitt import Element, PreconditionError, UnknownIdentifier
from leavitt import quotients
from leavitt.quotients import MAX_ENTRY_EDGES, _quotient_image

from conftest import (
    corpus_graphs,
    count_vertex_checks,
    loop_designated_toeplitz,
    parent_quotient_image,
    random_element,
    random_graph,
    random_nonzero_element,
    raw_monomials,
    rose_feeding_sink,
    seeded,
)


def E(g, text):
    return L.parse_element(g, text)


# -- quotient graph ------------------------------------------------------------


def test_quotient_graph_examples(toeplitz, a2):
    q = L.quotient_graph(toeplitz, {"w"})
    assert q.vertices == ("v",)
    assert [(e.name, e.src, e.dst) for e in q.edges] == [("e", "v", "v")]
    assert L.quotient_graph(toeplitz, set()) is toeplitz
    # hereditary but not saturated H is allowed for the bare graph quotient
    q2 = L.quotient_graph(a2, {"w"})
    assert q2.vertices == ("u",) and q2.edges == ()
    with pytest.raises(PreconditionError):
        L.quotient_graph(toeplitz, {"v"})


def test_quotient_morphism_generator_images(toeplitz):
    H = {"w"}
    assert L.format_element(L.quotient_morphism(E(toeplitz, "e"), H)) == "e"
    assert L.quotient_morphism(E(toeplitz, "f"), H).is_zero()
    assert L.format_element(L.quotient_morphism(E(toeplitz, "v"), H)) == "v"
    assert L.quotient_morphism(E(toeplitz, "w"), H).is_zero()
    assert L.quotient_morphism(E(toeplitz, "f*f'"), H).is_zero()
    x = E(toeplitz, "v + 2*e")
    assert L.quotient_morphism(x, set()) == x


def test_quotient_morphism_requires_saturated(a2):
    # killing {w} in A2 would break relation (4) at u
    with pytest.raises(PreconditionError):
        L.quotient_morphism(Element.vertex(a2, "u"), {"w"})


def test_quotient_preconditions_and_their_order(a2):
    """{x2} in the line x1 -> x2 -> x3 is neither hereditary nor saturated,
    and heredity is checked first; {w} in A2 is hereditary, not saturated."""
    line = L.line_graph(3)
    cases = [(line, {"x2"}, "H is not hereditary"), (a2, {"w"}, "H is not saturated")]
    for g, H, message in cases:
        x = Element.vertex(g, g.vertices[0])
        for check in (L.quotient_morphism, L.in_graded_ideal):
            with pytest.raises(PreconditionError, match=f"^{message}$"):
                check(x, H)


def test_restriction_graph_repr_names_its_graph_and_completeness(toeplitz):
    rg = L.restriction_graph(toeplitz, ["w"], 3)
    assert repr(rg) == "RestrictionGraph('T_restrict', complete=False)"


def test_quotient_morphism_checks_saturation_by_the_is_saturated_rule(monkeypatch):
    """A hereditary H is refused as not saturated exactly when is_saturated
    says so, on random graphs with H the tree of a random seed, and a
    refused H gets no E/H built. quotient_morphism checks H once, by one
    subset test, and hands the checked members to the rule is_saturated
    runs: on ladder_graph(100) with H = {v1..v100} it makes no
    Graph.vertex_index call and checks the 100 names once."""
    built = []
    quotient_of = quotients._quotient_of
    monkeypatch.setattr(quotients, "_quotient_of", lambda g, m: built.append(m) or quotient_of(g, m))
    rng = seeded("quotient-saturation")
    refused = 0
    for _ in range(300):
        g = random_graph(rng, max_edges=7)
        H = L.tree_of_set(g, [v for v in g.vertices if rng.random() < 0.3]).members
        x = Element.vertex(g, g.vertices[0])
        built.clear()
        if L.is_saturated(g, H):
            L.quotient_morphism(x, H)
            assert built == [H]
        else:
            with pytest.raises(PreconditionError, match="^H is not saturated$"):
                L.quotient_morphism(x, H)
            assert built == []
            refused += 1
    assert 30 < refused < 270
    g, H = L.ladder_graph(100), {f"v{i}" for i in range(1, 101)}
    x = Element.vertex(g, "u1")
    lookups, checks = count_vertex_checks(monkeypatch)
    assert L.format_element(L.quotient_morphism(x, H)) == "u1"
    assert (lookups, checks) == ([], [100])


@pytest.mark.parametrize("field", [L.QQ, L.GF(7)], ids=["qq", "f7"])
def test_quotient_image_matches_the_parent_rule(field):
    """Reading each term's range gives what the former scan over both
    sources and every edge gave: on random graphs with H the closure of a
    random seed (H empty and H = E0 among them), socle quotients, the
    Toeplitz graphs by F0, and images of restriction embeddings."""
    rng = seeded("quotient-image-parent")
    cases = []
    for _ in range(300):
        g = random_graph(rng, max_edges=7)
        seed = [v for v in g.vertices if rng.random() < 0.3]
        cases.append((g, L.hereditary_saturated_closure(g, seed).members))
        cases.append((g, L.socle_quotient(g)[0]))
    families = [L.toeplitz_graph(), loop_designated_toeplitz()]
    for n, F in ((1, L.line_graph(3)), (2, L.comb_graph(2)), (3, L.line_graph(4))):
        families.append(L.build_toeplitz_family(n, F, F.vertices[:n]))
    cases += [(g, L.recognize_toeplitz(g).subgraph.vertices) for g in families]
    shapes, zeros, images = set(), 0, 0
    for g, H in cases:
        shapes.add("empty" if not H else "all" if len(H) == len(g.vertices) else "part")
        target = L.quotient_graph(g, H)
        pool = raw_monomials(g)
        xs = [random_element(g, rng, pool, size=3, field=field) for _ in range(4)]
        if H:
            rg = L.restriction_graph(g, H, 2)
            ys = raw_monomials(rg.graph, 2)
            xs += [L.restriction_embedding(rg, random_element(rg.graph, rng, ys, field=field))]
        for x in xs:
            new, old = _quotient_image(x, target), parent_quotient_image(x, target)
            assert new == old and list(new._flat.items()) == list(old._flat.items()), (g, H, x)
            zeros += new.is_zero()
            images += 1
    assert shapes == {"empty", "all", "part"}
    assert 0.2 * images < zeros < 0.8 * images


def test_quotient_morphism_is_algebra_morphism():
    rng = seeded("quotient-morphism")
    cases = [
        (L.toeplitz_graph(), {"w"}),
        (L.ladder_graph(2), {"v1", "v2"}),
        (L.parse_graph("graph Fork\nvertex u\nvertex w\nvertex z1\nvertex z2\n"
                       "edge a u w\nedge b w z1\nedge c w z2\n"), {"z1"}),
    ]
    for g, H in cases:
        pool = raw_monomials(g)
        for _ in range(200):
            x = random_element(g, rng, pool, size=3)
            y = random_element(g, rng, pool, size=3)
            px = L.quotient_morphism(x, H)
            py = L.quotient_morphism(y, H)
            assert L.quotient_morphism(x * y, H) == px * py
            assert L.quotient_morphism(x + y, H) == px + py
            assert L.quotient_morphism(x.star(), H) == px.star()


def test_quotient_morphism_surjective(toeplitz):
    H = {"w"}
    target = L.quotient_graph(toeplitz, H)
    for m in L.basis_monomials_up_to(target, 4):
        # the same word read back in the source graph is a preimage
        lift = Element(
            toeplitz,
            L.QQ,
            [
                (
                    L.Monomial(
                        L.Path(toeplitz, m.real.source, m.real.edges),
                        L.Path(toeplitz, m.ghost.source, m.ghost.edges),
                    ),
                    L.QQ.one(),
                )
            ],
        )
        assert L.quotient_morphism(lift, H) == Element.from_monomial(m)


# -- graded ideal membership ------------------------------------------------------


def test_in_graded_ideal_examples(toeplitz):
    assert L.in_graded_ideal(E(toeplitz, "f*f'"), {"w"})
    assert not L.in_graded_ideal(E(toeplitz, "v"), {"w"})
    assert L.in_graded_ideal(E(toeplitz, "w"), {"w"})


def test_ideal_closed_under_two_sided_multiplication(toeplitz):
    rng = seeded("ideal")
    H = {"w"}
    pool = raw_monomials(toeplitz)
    members = [m for m in L.basis_monomials_up_to(toeplitz, 3)
               if L.in_graded_ideal(Element.from_monomial(m), H)]
    assert members
    for _ in range(40):
        inner = Element.from_monomial(rng.choice(members))
        left = random_element(toeplitz, rng, pool)
        right = random_element(toeplitz, rng, pool)
        assert L.in_graded_ideal(left * inner * right, H)


def test_in_socle_examples(toeplitz, r1):
    assert L.in_socle(Element.vertex(toeplitz, "w"))
    assert not L.in_socle(Element.vertex(toeplitz, "v"))
    assert L.in_socle(Element.zero(toeplitz))
    # R1 has no line points: only 0 is in the socle
    assert L.in_socle(Element.zero(r1))
    assert not L.in_socle(Element.vertex(r1, "v"))


# -- restriction graphs -------------------------------------------------------------


def test_restriction_graph_toeplitz(toeplitz):
    rg = L.restriction_graph(toeplitz, {"w"}, 3)
    assert rg.graph.vertices == ("w", "path:f", "path:e.f", "path:e.e.f")
    assert [(e.name, e.src, e.dst) for e in rg.graph.edges] == [
        ("bar:f", "path:f", "w"),
        ("bar:e.f", "path:e.f", "w"),
        ("bar:e.e.f", "path:e.e.f", "w"),
    ]
    assert not rg.complete


def test_restriction_graphs_past_the_edge_bound_are_refused(toeplitz):
    """On T the entry paths into {w} are e^(k-1) f, k = 1..n, with n(n+1)/2
    edges in all: n = 2047 is the longest truncation within MAX_ENTRY_EDGES,
    and the next one raises LimitExceeded."""
    assert 2047 * 2048 // 2 <= MAX_ENTRY_EDGES < 2048 * 2049 // 2
    rg = L.restriction_graph(toeplitz, {"w"}, 2047)
    assert len(rg.entry_paths) == 2047 and not rg.complete
    assert sum(p.length for p in rg.entry_paths) == 2047 * 2048 // 2
    for bound in (2048, 10**20):
        with pytest.raises(L.LimitExceeded, match=f"exceed {MAX_ENTRY_EDGES} edges"):
            L.restriction_graph(toeplitz, {"w"}, bound)


def test_completeness_is_counted_not_built():
    """64 loops feeding w: 1 + 64 + 64^2 = 4,161 entry paths of length <= 3.
    Whether one of length 4 exists is read off the count, so none of the
    262,144 of them is built; building them peaked at 40.7 MB."""
    g = rose_feeding_sink(64)
    tracemalloc.start()
    try:
        rg = L.restriction_graph(g, {"w"}, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rg.entry_paths) == 4161 and not rg.complete
    assert peak < 8 * 2**20, peak


def test_restriction_graph_a2(a2):
    rg = L.restriction_graph(a2, {"w"}, 5)
    assert rg.graph.vertices == ("w", "path:f")
    assert len(rg.graph.edges) == 1
    assert rg.complete


def test_restriction_graph_whole_vertex_set(toeplitz):
    rg = L.restriction_graph(toeplitz, set(toeplitz.vertices), 4)
    assert rg.graph.vertices == toeplitz.vertices
    assert rg.graph.edges == toeplitz.edges
    assert rg.complete
    with pytest.raises(PreconditionError):
        L.restriction_graph(toeplitz, set(), 4)


def test_restriction_graph_checks_members_then_emptiness_then_hereditary_then_bound(toeplitz):
    with pytest.raises(UnknownIdentifier):
        L.restriction_graph(toeplitz, {"z"}, 0)
    for bound in (4, 0):
        with pytest.raises(PreconditionError, match="needs a nonempty H"):
            L.restriction_graph(toeplitz, set(), bound)
    with pytest.raises(PreconditionError, match="H is not hereditary"):
        L.restriction_graph(toeplitz, {"v"}, 0)
    with pytest.raises(PreconditionError, match="length bound must be at least 1"):
        L.restriction_graph(toeplitz, {"w"}, 0)


def test_restriction_embedding_generator_images(a2):
    rg = L.restriction_graph(a2, {"w"}, 5)
    h = rg.graph
    assert L.format_element(L.restriction_embedding(rg, Element.vertex(h, "w"))) == "w"
    assert L.format_element(L.restriction_embedding(rg, Element.vertex(h, "path:f"))) == "u"
    assert L.format_element(L.restriction_embedding(rg, Element.edge(h, "bar:f"))) == "f"
    bar = Element.edge(h, "bar:f")
    assert L.restriction_embedding(rg, bar.star() * bar) == Element.vertex(a2, "w")


def test_restriction_embedding_satisfies_ck_and_injectivity(toeplitz):
    rg = L.restriction_graph(toeplitz, {"w"}, 3)
    h = rg.graph
    # CK relations of the restriction graph hold inside the big algebra
    for e in h.edges:
        img_e = L.restriction_embedding(rg, Element.edge(h, e.name))
        img_src = L.restriction_embedding(rg, Element.vertex(h, e.src))
        img_dst = L.restriction_embedding(rg, Element.vertex(h, e.dst))
        assert img_src * img_e == img_e == img_e * img_dst
        for e2 in h.edges:
            img_e2 = L.restriction_embedding(rg, Element.edge(h, e2.name))
            expected = img_dst if e2.name == e.name else Element.zero(toeplitz)
            assert img_e.star() * img_e2 == expected
    for v in h.vertices:
        es = h.out_edges(v)
        if es:
            total = Element.zero(toeplitz)
            for e in es:
                img = L.restriction_embedding(rg, Element.edge(h, e.name))
                total = total + img * img.star()
            assert total == L.restriction_embedding(rg, Element.vertex(h, v))
    # distinct truncated basis monomials embed to distinct normal forms
    images = [
        L.format_element(L.restriction_embedding(rg, Element.from_monomial(m)))
        for m in L.basis_monomials_up_to(h, 2)
    ]
    assert len(images) == len(set(images))


def test_restriction_check_can_fail():
    """Kills the mutant that replaces restriction_embedding's assert with
    pass: a path-vertex whose entry path ends outside H embeds as e e*,
    which lies outside I(H), and the check says so."""
    T = L.toeplitz_graph()
    rg = L.restriction_graph(T, {"w"}, 3)
    rg._path_for["path:f"] = L.Path(T, "v", ("e",))
    with pytest.raises(AssertionError, match=r"^embedding image escaped I\(H\)$"):
        L.restriction_embedding(rg, Element.vertex(rg.graph, "path:f"))


def test_restriction_embedding_lands_in_ideal(toeplitz):
    rng = seeded("embed")
    rg = L.restriction_graph(toeplitz, {"w"}, 3)
    pool = raw_monomials(rg.graph, 2)
    for _ in range(20):
        y = random_element(rg.graph, rng, pool)
        img = L.restriction_embedding(rg, y)
        assert L.in_graded_ideal(img, {"w"})


# -- right denominators ----------------------------------------------------------


def test_denominator_examples(toeplitz):
    w1 = L.denominator_search(Element.vertex(toeplitz, "v"), E(toeplitz, "e'"))
    assert L.format_element(w1.r) == "e"
    w2 = L.denominator_search(Element.vertex(toeplitz, "v"), Element.vertex(toeplitz, "v"))
    assert L.format_element(w2.r) == "v"
    w3 = L.denominator_search(Element.vertex(toeplitz, "w"), E(toeplitz, "f'"))
    assert L.format_element(w3.r) == "w"
    assert E(toeplitz, "f'") * w3.r == Element.zero(toeplitz)


def test_denominator_requires_nonzero_p(toeplitz):
    with pytest.raises(PreconditionError):
        L.right_denominator(Element.zero(toeplitz), Element.vertex(toeplitz, "v"))


def test_denominator_edge_extension_case(fork):
    # (a b) b* - a kills every ghost path of itself; only the extension
    # branch of the search (here the non-designated sibling c... via the
    # trivial ghost at w) produces a working denominator.
    p = E(fork, "a*b*b' - a")
    assert not p.is_zero()
    ghost_paths = {m.ghost for m in p.terms}
    for q in ghost_paths:
        image = p * Element.from_path(q)
        assert image.is_zero() or not L.is_in_path_algebra(image)
    witness = L.denominator_search(p, p)
    assert not (p * witness.r).is_zero()
    assert L.is_in_path_algebra(p * witness.r)


def test_denominator_postconditions_random():
    rng = seeded("denominator")
    for g in corpus_graphs():
        pool = raw_monomials(g)
        for _ in range(30):
            p = random_nonzero_element(g, rng, pool)
            q = random_element(g, rng, pool)
            witness = L.denominator_search(p, q)
            assert L.is_in_path_algebra(witness.r)
            assert witness.r.support_size() == 1
            assert not (p * witness.r).is_zero()
            assert L.is_in_path_algebra(q * witness.r)
            assert len(witness.extensions) <= q.ghost_degree()
