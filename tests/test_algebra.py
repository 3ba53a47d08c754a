"""Element engine: relations, normal forms, confluence, grading, bases."""

from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

import leavitt as L
from leavitt import Element, GraphMismatch, Monomial, Path
from leavitt.algebra import MAX_BASIS_PAIRS, _basis_pair_count

from conftest import (
    corpus_graphs,
    diamond_chain,
    element_key_terms,
    one_edge_normalize_terms,
    parent_basis_monomials_up_to,
    path_count_dimension,
    random_element,
    random_graph,
    random_order_normal_form,
    random_raw_terms,
    raw_monomials,
    reference_element,
    reference_monomial,
    reference_normalize_terms,
    reference_product,
    rose,
    seeded,
    sink_path_action,
    sink_paths_up_to,
)


def E(g, text, field=L.QQ):
    return L.parse_element(g, text, field)


# -- defining relations, executable ------------------------------------------


def ck_relations_hold(g, field=L.QQ):
    for e in g.edges:
        edge = Element.edge(g, e.name, field)
        ghost = Element.edge(g, e.name, field).star()
        src = Element.vertex(g, e.src, field)
        rng = Element.vertex(g, e.dst, field)
        assert src * edge == edge == edge * rng                       # (1)
        assert rng * ghost == ghost == ghost * src                    # (2)
        for e2 in g.edges:                                            # (3)
            expected = rng if e2.name == e.name else Element.zero(g, field)
            assert ghost * Element.edge(g, e2.name, field) == expected
    for v in g.vertices:                                              # (4)
        es = g.out_edges(v)
        if es:
            total = Element.zero(g, field)
            for e in es:
                x = Element.edge(g, e.name, field)
                total = total + x * x.star()
            assert total == Element.vertex(g, v, field)


def test_ck_relations_on_corpus():
    for g in corpus_graphs():
        ck_relations_hold(g)


def test_ck_relations_over_prime_field(toeplitz):
    ck_relations_hold(toeplitz, L.GF(5))


# -- normal forms --------------------------------------------------------------


def test_parse_examples(toeplitz):
    assert E(toeplitz, "e' * e") == Element.vertex(toeplitz, "v")
    assert E(toeplitz, "e' * f").is_zero()
    assert E(toeplitz, "e*e' + f*f'") == Element.vertex(toeplitz, "v")


def test_normal_form_designated_edge(toeplitz):
    # f is last-declared at v, so ff* rewrites and ee* survives
    assert L.format_element(E(toeplitz, "f*f'")) == "v - e*e'"
    assert L.format_element(E(toeplitz, "e*e'")) == "e*e'"
    assert L.format_element(E(toeplitz, "(e*f)*(e*f)'")) == "e*e' - e*e*e'*e'"


def test_pure_paths_are_irreducible(toeplitz):
    path = Element.from_path(Path.from_edges(toeplitz, ["e", "e", "f"]))
    assert path.monomials()[0].is_pure_path
    assert Element(toeplitz, L.QQ, path.terms) == path


def test_single_edge_vertex_ck2(a2):
    # u emits only f, so ff* collapses to u
    assert E(a2, "f*f'") == Element.vertex(a2, "u")
    assert L.is_in_path_algebra(E(a2, "f*f'"))


def test_is_in_path_algebra(toeplitz):
    assert L.is_in_path_algebra(E(toeplitz, "e*e' + f*f'"))  # = v
    assert not L.is_in_path_algebra(E(toeplitz, "e'"))
    assert not L.is_in_path_algebra(E(toeplitz, "v - e*e'"))  # = ff*, irreducible ghost
    assert L.is_in_path_algebra(Element.zero(toeplitz))


def test_multiply_examples(toeplitz):
    assert E(toeplitz, "f'*f") == Element.vertex(toeplitz, "w")
    x = E(toeplitz, "e + f")
    assert Element.vertex(toeplitz, "v") * x == x
    assert (Element.vertex(toeplitz, "v") * Element.vertex(toeplitz, "w")).is_zero()


def test_graph_and_field_mismatch(toeplitz, a2):
    with pytest.raises(GraphMismatch):
        E(toeplitz, "v") * Element.vertex(a2, "u")
    with pytest.raises(GraphMismatch):
        E(toeplitz, "v") + E(toeplitz, "v", L.GF(3))
    # a monomial of another graph used to build silently, and printing the
    # element then raised KeyError
    line = L.line_graph(3)
    m = next(m for m in L.full_basis(line) if m.real.edges)
    for terms in ([(m, L.QQ.one())], {m: L.QQ.one()}):
        with pytest.raises(GraphMismatch, match="^monomial over a different graph"):
            Element(toeplitz, L.QQ, terms)
    same = L.Graph("copy", line.vertices, [(e.name, e.src, e.dst) for e in line.edges])
    assert L.format_element(Element(same, L.QQ, [(m, L.QQ.one())])) == L.format_monomial(m)


# -- involution -----------------------------------------------------------------


def test_involution_examples(toeplitz):
    ef = E(toeplitz, "e*f")
    assert ef.star().star() == ef
    v = Element.vertex(toeplitz, "v")
    assert v.star() == v
    assert E(toeplitz, "2*e*f'").star() == E(toeplitz, "2*f*e'")


def test_involution_antimultiplicative_random():
    rng = seeded("involution")
    for g in corpus_graphs():
        pool = raw_monomials(g)
        for _ in range(25):
            x = random_element(g, rng, pool)
            y = random_element(g, rng, pool)
            assert (x * y).star() == y.star() * x.star()
            assert x.star().star() == x


def test_involution_flips_grading():
    rng = seeded("grading-star")
    g = L.parse_graph("graph T\nvertex v\nvertex w\nedge e v v\nedge f v w\n")
    pool = raw_monomials(g)
    for _ in range(25):
        x = random_element(g, rng, pool)
        comps = L.homogeneous_components(x)
        star_comps = L.homogeneous_components(x.star())
        assert set(star_comps) == {-n for n in comps}
        for n, part in comps.items():
            assert star_comps[-n] == part.star()


# -- grading --------------------------------------------------------------------


def test_homogeneous_components_examples(toeplitz):
    x = E(toeplitz, "v + e")
    comps = L.homogeneous_components(x)
    assert set(comps) == {0, 1}
    assert comps[0] == Element.vertex(toeplitz, "v")
    assert comps[1] == E(toeplitz, "e")
    assert L.homogeneous_components(E(toeplitz, "e*e'")) == {0: E(toeplitz, "e*e'")}
    # e f* composes through no common range in this graph: it is zero
    assert E(toeplitz, "e*f'").is_zero()
    assert sum(comps.values(), Element.zero(toeplitz)) == x


def test_grading_multiplicative():
    rng = seeded("grading")
    for g in corpus_graphs():
        pool = raw_monomials(g)
        for _ in range(25):
            x = random_element(g, rng, pool)
            y = random_element(g, rng, pool)
            for dx, xc in L.homogeneous_components(x).items():
                for dy, yc in L.homogeneous_components(y).items():
                    product = xc * yc
                    assert all(m.degree == dx + dy for m in product.terms)


# -- linear independence of paths ------------------------------------------------


def test_distinct_paths_linearly_independent():
    rng = seeded("paths")
    for g in corpus_graphs():
        paths = L.paths_up_to(g, 3)
        for _ in range(20):
            k = rng.randint(1, min(4, len(paths)))
            chosen = rng.sample(paths, k)
            coeffs = [rng.choice([-2, -1, 1, 2, 3]) for _ in chosen]
            x = Element(
                g,
                L.QQ,
                [
                    (Monomial(p, Path.trivial(g, p.range)), L.QQ.from_int(c))
                    for p, c in zip(chosen, coeffs)
                ],
            )
            assert x.support_size() == k
            for p, c in zip(chosen, coeffs):
                assert x.coefficient(Monomial(p, Path.trivial(g, p.range))) == c


# -- rewriting: termination and confluence ----------------------------------------


def test_confluence_randomized_strategies():
    rng = seeded("confluence")
    for g in corpus_graphs():
        pool = raw_monomials(g)
        for _ in range(40):
            terms = random_raw_terms(g, rng, pool, size=5)
            first = Element(g, L.QQ, terms).terms
            second = random_order_normal_form(g, rng.sample(terms, len(terms)), rng)
            assert first == second
            for m in first:
                assert m.is_basis()


def long_raw_terms(g, rng, max_len, count):
    """Random terms p q* with r(p) = r(q) and |p|, |q| <= max_len; most
    pairs share a long common tail."""
    by_range = {}
    for p in L.paths_up_to(g, max_len):
        by_range.setdefault(p.range, []).append(p)
    groups = list(by_range.values())
    terms = []
    for _ in range(count):
        group = rng.choice(groups)
        terms.append((Monomial(rng.choice(group), rng.choice(group)), rng.choice([-2, -1, 1, 3])))
    return terms


def test_single_exit_run_cut_matches_one_edge_rewriting():
    """Stripping a run of single-exit common last edges in one cut gives the
    normal form of the one-edge-per-step rule, over QQ and F_7."""
    rng = seeded("single-exit-run")
    graphs = [L.line_graph(24), L.comb_graph(5), L.ladder_graph(3)] + corpus_graphs()
    acyclic = []
    while len(acyclic) < 60:
        g = random_graph(rng, max_vertices=7, max_edges=9)
        if L.is_acyclic(g):
            acyclic.append(g)
    for g in graphs + acyclic:
        max_len = 24 if g.name == "line24" else 5
        for field in (L.QQ, L.GF(7)):
            for _ in range(6):
                terms = [(m, field.from_int(c)) for m, c in long_raw_terms(g, rng, max_len, 5)]
                expected = one_edge_normalize_terms(terms)
                assert Element(g, field, terms).terms == expected, g.name
                assert random_order_normal_form(g, terms, rng) == expected, g.name


def assert_paths_revalidate(x):
    for m in x.terms:
        for p in (m.real, m.ghost):
            again = Path(x.graph, p.source, p.edges)
            assert again == p and again.range == p.range
        Monomial(m.real, m.ghost)


def test_kernel_matches_validated_reference():
    """Normal forms, products, the involution and the printer agree with the
    validating first-in-first-out kernel on random graphs over QQ and F_7."""
    rng = seeded("kernel-reference")
    for field in (L.QQ, L.GF(7)):
        for _ in range(50):
            g = random_graph(rng)
            pool = raw_monomials(g)
            raws = [random_raw_terms(g, rng, pool, size=5, field=field) for _ in range(3)]
            x, y, w = (Element(g, field, raw) for raw in raws)
            for el, raw in zip((x, y, w), raws):
                expected = reference_normalize_terms((reference_monomial(m), c) for m, c in raw)
                assert element_key_terms(el) == expected
            for a, b in ((x, y), (x, y.star()), (x.star(), y), (x * y, w), (w, y.star() * x)):
                z = a * b
                expected = reference_product(a, b)
                assert element_key_terms(z) == expected
                printed = L.format_element(reference_element(g, field, expected))
                assert L.format_element(z) == printed
                assert_paths_revalidate(z)
            swapped = reference_normalize_terms(
                (reference_monomial(m)[::-1], c) for m, c in x.terms.items()
            )
            assert element_key_terms(x.star()) == swapped
            assert_paths_revalidate(x.star())


def test_path_and_monomial_boundary_checks(toeplitz, a2):
    g = toeplitz  # e: v -> v, f: v -> w
    f = Path.from_edges(g, ["f"])
    assert f.range == "w" and Path.trivial(g, "v").append("e").append("f").range == "w"
    assert Path.trivial(g, "v").concat(f) == f and f.edges[:1] == ("f",)
    with pytest.raises(L.PreconditionError):
        f.append("e")
    with pytest.raises(L.PreconditionError):
        f.concat(Path.from_edges(g, ["e"]))
    with pytest.raises(L.UnknownIdentifier):
        f.append("nope")
    with pytest.raises(GraphMismatch):
        Path.trivial(a2, "w").concat(Path.trivial(g, "w"))
    with pytest.raises(L.PreconditionError):
        Path(g, "w", ["e"])
    with pytest.raises(L.UnknownIdentifier):
        Path(g, "nope")
    assert Path.trivial(g, "v") != Path.trivial(g, "w")
    with pytest.raises(L.PreconditionError):
        Monomial(f, Path.trivial(g, "v"))
    with pytest.raises(GraphMismatch):
        Monomial(Path.trivial(a2, "w"), Path.trivial(g, "w"))


def test_normal_form_idempotent_and_equality():
    rng = seeded("nf")
    for g in corpus_graphs():
        pool = raw_monomials(g)
        for _ in range(20):
            x = random_element(g, rng, pool)
            y = Element(g, L.QQ, list(x.terms.items()))
            assert y == x


# -- algebra laws via hypothesis ----------------------------------------------------


def _element_strategy(g, pool):
    term = st.tuples(st.sampled_from(pool), st.integers(min_value=-3, max_value=3))
    return st.lists(term, min_size=0, max_size=4).map(
        lambda pairs: Element(g, L.QQ, [(m, L.QQ.from_int(c)) for m, c in pairs])
    )


_T = L.parse_graph("graph T\nvertex v\nvertex w\nedge e v v\nedge f v w\n")
_F = L.parse_graph(
    "graph Fork\nvertex u\nvertex w\nvertex z1\nvertex z2\nedge a u w\nedge b w z1\nedge c w z2\n"
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity_and_distributivity(data):
    g = data.draw(st.sampled_from([_T, _F]))
    pool = raw_monomials(g)
    x = data.draw(_element_strategy(g, pool))
    y = data.draw(_element_strategy(g, pool))
    z = data.draw(_element_strategy(g, pool))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


def test_associativity_bulk_over_corpus():
    rng = seeded("assoc-bulk")
    for g in corpus_graphs():
        pool = raw_monomials(g)
        for _ in range(200):
            x = random_element(g, rng, pool, size=2)
            y = random_element(g, rng, pool, size=2)
            z = random_element(g, rng, pool, size=2)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_identity_acts_trivially(data):
    g = data.draw(st.sampled_from([_T, _F]))
    x = data.draw(_element_strategy(g, raw_monomials(g)))
    one = Element.identity(g)
    assert one * x == x
    assert x * one == x


# -- basis enumeration ----------------------------------------------------------------


def test_basis_monomials_examples(p1, a2):
    assert [L.format_monomial(m) for m in L.basis_monomials_up_to(p1, 5)] == ["v"]
    names = [L.format_monomial(m) for m in L.basis_monomials_up_to(a2, 2)]
    assert names == ["u", "w", "f", "f'"]
    assert len(L.full_basis(a2)) == 4


def test_basis_monomials_match_the_parent_enumeration():
    """The range groups come in first-path order and build trusted monomials;
    the final sort by (total length, key) gives the parent's exact list."""
    rng = seeded("basis-monomials-diff")
    graphs = [random_graph(rng, max_vertices=5, max_edges=7) for _ in range(60)]
    graphs.append(L.toeplitz_graph())
    for n, F in ((1, L.line_graph(3)), (2, L.comb_graph(2)), (3, L.line_graph(4))):
        graphs.append(L.build_toeplitz_family(n, F, F.vertices[:n]))
    for g in graphs:
        for d in range(5):
            assert L.basis_monomials_up_to(g, d) == parent_basis_monomials_up_to(g, d), (g, d)


def test_elements_and_monomials_repr_their_normal_form_and_their_parts(toeplitz):
    assert repr(E(toeplitz, "f*f' + 2*e'")) == "<Element v + 2*e' - e*e'>"
    m = Monomial(Path(toeplitz, "v", ["e", "f"]), Path(toeplitz, "v", ["f"]))
    assert repr(m) == "Monomial(Path(e.f), Path(f))"


def test_products_agree_with_the_faithful_sink_path_action():
    """x (y t) = (x y) t for every path t into a sink with |t| + real_degree(y)
    <= 8, so that y t has no path longer than 8: the action of L_K(E) on the
    paths into the sinks is faithful when the socle is essential. Over E(n, F)
    and random graphs with essential socle, over QQ and F_7."""
    rng = seeded("sink-path-action")
    graphs = [L.toeplitz_graph(), L.build_toeplitz_family(1, diamond_chain(1), ["d0"])]
    for n, F in ((1, L.line_graph(3)), (2, L.comb_graph(2)), (3, L.line_graph(4))):
        graphs.append(L.build_toeplitz_family(n, F, F.vertices[:n]))
    while len(graphs) < 40:
        g = random_graph(rng, max_vertices=5, max_edges=8)
        if L.socle_is_essential(g) and not L.is_acyclic(g):
            graphs.append(g)
    columns = moved = 0
    for g in graphs:
        pool = raw_monomials(g, 3)
        for field in (L.QQ, L.GF(7)):
            for _ in range(4):
                x, y = (random_element(g, rng, pool, field=field) for _ in range(2))
                xy = x * y
                for t in sink_paths_up_to(g, 8 - y.real_degree()):
                    column = {t: field.one()}
                    got = sink_path_action(xy, column)
                    assert got == sink_path_action(x, sink_path_action(y, column)), (g, x, y, t)
                    columns += 1
                    moved += bool(got)
    assert columns > 20000 and moved > 2000, (columns, moved)


def test_basis_monomials_of_the_roses_match_the_closed_form():
    """rose(k) has (s + 1) k^s pairs of paths of total length s. The pairs not
    in the basis end in the designated loop on both sides, so they are the
    pairs of total length s - 2, each extended by it: (s - 1) k^(s - 2)."""
    for k in range(1, 5):
        for d in range(7):
            pairs = sum((s + 1) * k**s for s in range(d + 1))
            cut = sum((s - 1) * k ** (s - 2) for s in range(2, d + 1))
            assert len(L.basis_monomials_up_to(rose(k), d)) == pairs - cut, (k, d)


def test_basis_monomials_cost_follows_the_output():
    """Only paths whose lengths fit are paired: 76,545 monomials of rose(3) at
    d = 8 in well under the time that pairing all 9,841 paths two by two took."""
    start = perf_counter()
    assert len(L.basis_monomials_up_to(rose(3), 8)) == 76545
    assert perf_counter() - start < 5.0


def test_basis_pair_count_counts_the_candidate_pairs():
    """The count is the number of pairs of paths into one vertex whose lengths
    fit, as the listed paths give it; the fixed counts place the bound."""
    rng = seeded("basis-pair-count")
    graphs = [random_graph(rng, max_vertices=5, max_edges=7) for _ in range(60)]
    for g in graphs + [L.toeplitz_graph(), rose(2), diamond_chain(2)]:
        for d in range(6):
            by_range = {}
            for p in L.paths_up_to(g, d):
                lengths = by_range.setdefault(p.range, {})
                lengths[p.length] = lengths.get(p.length, 0) + 1
            scan = sum(
                m * n
                for lengths in by_range.values()
                for a, m in lengths.items()
                for b, n in lengths.items()
                if a + b <= d
            )
            assert _basis_pair_count(g, d) == scan, (g, d)
    assert _basis_pair_count(L.toeplitz_graph(), 63) == 4160
    assert _basis_pair_count(rose(3), 8) == 83653
    diamonds6 = L.build_toeplitz_family(1, diamond_chain(6), ["d0"])
    assert _basis_pair_count(diamonds6, 24) == 439322 <= MAX_BASIS_PAIRS
    diamonds8 = L.build_toeplitz_family(1, diamond_chain(8), ["d0"])
    assert _basis_pair_count(diamonds8, 24) > MAX_BASIS_PAIRS


def test_terms_is_a_copy_the_caller_cannot_corrupt(toeplitz):
    """Clearing the dict ``terms`` returns leaves the element whole: its
    terms, monomials, support and printed form still agree."""
    x = E(toeplitz, "e*e' + f")
    terms, printed = dict(x.terms), L.format_element(x)
    x.terms.clear()
    assert x.terms == terms and len(terms) == 2
    assert x.monomials() == sorted(terms, key=Monomial.sort_key)
    assert x.support_size() == 2
    assert L.format_element(x) == printed
    assert x.terms is not x.terms


def test_dimension_matches_path_count_oracle():
    for g in corpus_graphs():
        if not L.is_acyclic(g):
            continue
        assert len(L.full_basis(g)) == path_count_dimension(g)


def test_degree_bookkeeping(toeplitz):
    x = E(toeplitz, "e*f*f' + e'")  # normalizes to e - e*e*e' + e'
    assert x.real_degree() == 2
    assert x.ghost_degree() == 1
    assert x.total_degree() == 3
    assert Element.zero(toeplitz).total_degree() == 0


def test_prime_field_products_drop_the_sums_that_vanish():
    """Over F_p a product's integer coefficient sum can be a nonzero
    multiple of p. Its key must go: no stored coefficient is zero, and the
    product equals its term-by-term products summed through ``+``. The
    integer sums are read off the product of the residues over QQ."""
    rng = seeded("prime-field-cancellation")
    for p in (2, 3, 7):
        field, vanished = L.GF(p), 0
        for _ in range(100):
            g = random_graph(rng, max_vertices=2, max_edges=5)  # small, so sums collide
            pool = raw_monomials(g)
            x, y = (random_element(g, rng, pool, size=8, field=field) for _ in "xy")
            residues = [
                Element._of(g, L.QQ, {k: L.QQ.from_int(c.residue) for k, c in e._flat.items()})
                for e in (x, y)
            ]
            sums = (residues[0] * residues[1])._flat.values()
            vanished += sum(1 for n in sums if n % p == 0)
            z = x * y
            assert all(z._flat.values()), (g, x, y)
            termwise = Element.zero(g, field)
            for k, c in x._flat.items():
                for k2, c2 in y._flat.items():
                    termwise = termwise + Element._of(g, field, {k: c}) * Element._of(g, field, {k2: c2})
            assert z == termwise, (g, x, y)
        assert vanished > 10, (p, vanished)
