"""Toeplitz algebra: recognition, exact sequence, matrix window picture."""

from itertools import product

import pytest

import leavitt as L
from leavitt import Element, LaurentPoly, PreconditionError
from leavitt import quotients, toeplitz
from leavitt.algebra import _key
from leavitt.graph import _designated_edges
from leavitt.toeplitz import MAX_DEGREE, MAX_SANDWICH_WINDOW, MAX_WINDOW

from conftest import (
    compose_cells_and_runs,
    logged,
    loop_designated_toeplitz,
    parent_laurent_image,
    parent_sandwich_report,
    parent_window_rows,
    random_element,
    random_graph,
    raw_monomials,
    reference_laurent_quotient,
    reference_sandwich_units,
    reference_window_rows,
    seeded,
    toeplitz_cells_and_runs,
    toeplitz_column,
    toeplitz_oracle,
    toeplitz_run_ends,
)


def E(g, text):
    return L.parse_element(g, text)


# -- the canonical graph and the family -------------------------------------------


def test_toeplitz_graph_structure():
    g = L.toeplitz_graph()
    assert L.socle_is_essential(g)
    assert L.line_points(g).ordered() == ("w",)
    assert not L.is_path_algebra_semiprime(g)
    assert _designated_edges(g) == {"f": ("e",)}


def test_build_family_canonical_case(p1):
    w_only = L.parse_graph("graph F\nvertex w\n")
    fam = L.build_toeplitz_family(1, w_only, ["w"])
    assert fam == L.toeplitz_graph()


def test_build_family_general_case(a2):
    fam = L.build_toeplitz_family(2, a2, ["u", "w"])
    assert len(fam.vertices) == 3
    assert len(fam.edges) == 4  # loop + 2 connectors + 1 F-edge
    d = L.recognize_toeplitz(fam)
    assert d is not None
    assert d.connectors == ("f1", "f2")
    assert d.subgraph == a2
    assert L.socle_is_essential(fam)
    assert L.quotient_graph(fam, set(a2.vertices)).vertices == ("v",)


def test_build_family_rejects_bad_f(r1, p1):
    with pytest.raises(PreconditionError):
        L.build_toeplitz_family(1, r1, ["v"])
    with pytest.raises(PreconditionError):
        L.build_toeplitz_family(0, p1, [])
    with pytest.raises(PreconditionError):
        L.build_toeplitz_family(2, p1, ["v"])


FORK = "graph Y\nvertex a\nvertex b\nvertex c\nedge g a b\nedge h a c\n"


def test_the_checks_the_family_leaves_out_are_implied(line3, r1):
    """Neither build_toeplitz_family nor recognize_toeplitz checks that every
    vertex of F connects to a line point, and laurent_quotient does not
    check that F0 is hereditary and saturated: the pattern implies both.
    The acyclicity check that implies the first stays."""
    rng = seeded("implied")
    draws = [random_graph(rng) for _ in range(3000)]
    acyclic = [g for g in draws if L.is_acyclic(g)]
    assert len(acyclic) >= 500 and all(L.socle_is_essential(g) for g in acyclic)
    families = [
        L.build_toeplitz_family(n, F, F.vertices[-n:])
        for n in (1, 2, 3)
        for F in (line3, L.comb_graph(3), L.parse_graph(FORK))
    ]
    recognized = [(g, L.recognize_toeplitz(g)) for g in draws + families]
    recognized = [(g, d.subgraph.vertices) for g, d in recognized if d is not None]
    assert len(recognized) > len(families) and all(
        L.is_hereditary(g, F0) and L.is_saturated(g, F0) for g, F0 in recognized
    )
    with pytest.raises(PreconditionError, match="^F must be acyclic$"):
        L.build_toeplitz_family(1, r1, ["v"])


def test_recognize_rejections(a2, r1):
    assert L.recognize_toeplitz(a2) is None  # no cycle
    assert L.recognize_toeplitz(r1) is None  # no connectors
    two_loops = L.parse_graph(
        "graph L2\nvertex v\nvertex u\nvertex w\nedge e v v\nedge d u u\nedge f v w\nedge g u w\n"
    )
    assert L.recognize_toeplitz(two_loops) is None
    back_edge = L.parse_graph(
        "graph B\nvertex v\nvertex w\nedge e v v\nedge f v w\nedge g w v\n"
    )
    assert L.recognize_toeplitz(back_edge) is None


def test_recognize_matches_cycle_oracle(line3):
    rng = seeded("recognize")
    graphs = [random_graph(rng) for _ in range(100)]
    for n in (1, 2, 3):
        for F in (L.parse_graph("graph F\nvertex w\n"), line3, L.comb_graph(2)):
            fam = L.build_toeplitz_family(n, F, [rng.choice(F.vertices) for _ in range(n)])
            back = L.Graph(fam.name, fam.vertices, list(fam.edges) + [("back", F.vertices[-1], "v")])
            graphs += [fam, back]
    for g in graphs:
        assert (L.recognize_toeplitz(g) is not None) == toeplitz_oracle(g)


def test_recognize_canonical():
    d = L.recognize_toeplitz(L.toeplitz_graph())
    assert d.loop_vertex == "v" and d.loop_edge == "e"
    assert d.connectors == ("f",)
    assert d.subgraph.vertices == ("w",) and not d.subgraph.edges


def test_the_decomposition_and_the_window_are_named_tuples():
    """Both records are namedtuples with no slots of their own; the window
    keeps its size, flags and repr."""
    g = L.toeplitz_graph()
    loop_vertex, loop_edge, connectors, subgraph = L.recognize_toeplitz(g)
    assert (loop_vertex, loop_edge, connectors) == ("v", "e", ("f",))
    assert subgraph.vertices == ("w",) and L.recognize_toeplitz(g).is_canonical
    w = L.rcfm_representation(E(g, "f"), 3)
    assert w._fields == ("matrix", "validity_bound", "flags") and w.validity_bound == 2
    assert w.matrix.nrows == 3 and w.matrix.nonzero_rows == {1: {0: L.QQ.one()}}
    assert repr(w) == "MatrixWindow(3, validity=2)"
    assert w.flags == {
        "finitely_supported": False, "row_finite_on_window": True, "col_finite_on_window": True
    }
    for record in (toeplitz.ToeplitzDecomposition, toeplitz.MatrixWindow):
        assert issubclass(record, tuple) and record.__slots__ == ()


# -- Laurent quotient ------------------------------------------------------------------


def test_laurent_quotient_examples():
    g = L.toeplitz_graph()
    assert L.laurent_quotient(E(g, "e")) == LaurentPoly({1: L.QQ.one()})
    assert L.laurent_quotient(E(g, "e*e*(e*e)'")) == LaurentPoly({0: L.QQ.one()})
    assert L.laurent_quotient(E(g, "f*f'")).is_zero()
    assert L.laurent_quotient(E(g, "e'")) == LaurentPoly({-1: L.QQ.one()})
    assert L.laurent_quotient(E(g, "v")) == LaurentPoly({0: L.QQ.one()})


def test_laurent_polynomials_print_their_terms_and_zero_as_0():
    assert str(LaurentPoly({})) == "0" and repr(LaurentPoly({})) == "LaurentPoly(0)"
    p = LaurentPoly({-1: L.QQ.scalar(2), 2: L.QQ.one()})
    assert repr(p) == "LaurentPoly(2*x^-1 + x^2)"


def test_laurent_quotient_is_morphism():
    rng = seeded("laurent")
    g = L.toeplitz_graph()
    pool = raw_monomials(g)
    for _ in range(40):
        x = random_element(g, rng, pool)
        y = random_element(g, rng, pool)
        assert L.laurent_quotient(x * y) == L.laurent_quotient(x) * L.laurent_quotient(y)
        assert L.laurent_quotient(x + y) == L.laurent_quotient(x) + L.laurent_quotient(y)
        # the involution is x -> x^-1 on the Laurent image
        image = L.laurent_quotient(x)
        inverted = LaurentPoly({-n: c for n, c in image.coeffs.items()}, image.field)
        assert L.laurent_quotient(x.star()) == inverted


def test_laurent_quotient_matches_the_quotient_morphism():
    """Keeping the terms whose range is v agrees with the quotient morphism
    onto E/F0 and with the former test of both sources and every edge
    against the loop, on T, the loop-designated T and family instances."""
    rng = seeded("laurent-direct")
    graphs = [L.toeplitz_graph(), loop_designated_toeplitz()]
    a2 = L.Graph("A2", ["u", "w"], [("f", "u", "w")])
    for n, F in ((1, L.line_graph(3)), (2, L.comb_graph(2)), (2, a2), (3, L.line_graph(4))):
        graphs.append(L.build_toeplitz_family(n, F, F.vertices[:n]))
    zeros = 0
    for g in graphs:
        d, pool = L.recognize_toeplitz(g), raw_monomials(g)
        for field in (L.QQ, L.GF(7)):
            for _ in range(40):
                x = random_element(g, rng, pool, field=field)
                image = L.laurent_quotient(x)
                assert image == reference_laurent_quotient(x) == parent_laurent_image(x, d), (g, x)
                zeros += image.is_zero()
    assert 0 < zeros < 80 * len(graphs)  # images of both kinds


def test_middle_exactness_check_can_fail(monkeypatch):
    """Socle membership that drops a term of the quotient image must show as
    mismatches, so the Laurent side may not go through that image too."""
    image = quotients._quotient_image

    def dropping(x, target):
        terms = list(image(x, target).terms.items())[1:]
        return Element._of(target, x.field, {_key(m): c for m, c in terms})

    monkeypatch.setattr(quotients, "_quotient_image", dropping)
    monkeypatch.setattr(toeplitz, "_quotient_image", dropping, raising=False)
    report = L.exact_sequence_report(L.toeplitz_graph(), 2)
    assert not report["pass"]
    assert "v" in report["socle_kernel_mismatches"]


def test_surjectivity_check_can_fail(monkeypatch):
    """Kills the mutant that sets surjectivity_missing to []: a Laurent image
    that gives every negative power a second term hits no negative power
    alone, while socle membership still matches its vanishing. The report
    reads the decomposition once and maps each monomial with _laurent_image."""
    laurent = toeplitz._laurent_image

    def two_terms(x, d):
        image = laurent(x, d)
        if any(k < 0 for k in image.coeffs):
            return image + LaurentPoly({0: x.field.one()}, x.field)
        return image

    monkeypatch.setattr(toeplitz, "_laurent_image", two_terms)
    report = L.exact_sequence_report(L.toeplitz_graph(), 2)
    assert report["socle_kernel_mismatches"] == []
    assert report["surjectivity_missing"] == ["x^-2", "x^-1"]
    assert not report["pass"]


def test_laurent_poly_arithmetic():
    p = LaurentPoly({1: L.QQ.scalar(2), -1: L.QQ.one()})
    q = LaurentPoly({1: L.QQ.one()})
    assert (p * q).coeffs == {2: L.QQ.scalar(2), 0: L.QQ.one()}
    assert str(LaurentPoly({-1: L.QQ.scalar(2), 0: L.QQ.scalar(3)})) == "2*x^-1 + 3"


def test_exact_sequence_report():
    g = L.toeplitz_graph()
    report = L.exact_sequence_report(g, 4)
    assert report["pass"]
    assert report["socle_kernel_mismatches"] == []
    assert report["surjectivity_missing"] == []
    small = L.exact_sequence_report(g, 0)
    assert small["pass"] and small["monomials_checked"] == 2  # v and w


def test_exact_sequence_on_family(a2):
    fam = L.build_toeplitz_family(2, a2, ["u", "w"])
    report = L.exact_sequence_report(fam, 3)
    assert report["pass"]


def test_family_structure_at_desk_scale(a2, line3):
    subgraphs = [
        (1, L.parse_graph("graph F\nvertex w\n"), ["w"]),
        (2, a2, ["u", "w"]),
        (3, line3, ["x1", "x2", "x3"]),
        (2, L.comb_graph(2), ["p1", "w"]),
    ]
    for n, F, attach in subgraphs:
        fam = L.build_toeplitz_family(n, F, attach)
        assert L.socle_is_essential(fam)
        quotient = L.quotient_graph(fam, set(F.vertices))
        assert len(quotient.vertices) == 1
        assert len(quotient.edges) == 1
        assert quotient.edges[0].src == quotient.edges[0].dst
        d = L.recognize_toeplitz(fam)
        assert d is not None and d.subgraph == F
        assert L.exact_sequence_report(fam, 2)["pass"]


# -- matrix windows -----------------------------------------------------------------


def test_window_examples():
    g = L.toeplitz_graph()
    w = L.rcfm_representation(Element.vertex(g, "w"), 4)
    assert [[int(bool(a)) for a in row] for row in w.matrix.rows] == [
        [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    v = L.rcfm_representation(Element.vertex(g, "v"), 4)
    assert [[int(bool(a)) for a in row] for row in v.matrix.rows] == [
        [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    e = L.rcfm_representation(E(g, "e"), 4)
    assert [[int(bool(a)) for a in row] for row in e.matrix.rows] == [
        [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    f = L.rcfm_representation(E(g, "f"), 4)
    assert f.matrix.rows[1][0] == 1 and sum(1 for r in f.matrix.rows for a in r if a) == 1


def test_window_generator_relations():
    g = L.toeplitz_graph()
    N = 10
    win = {t: L.rcfm_representation(E(g, t), N).matrix for t in ["v", "w", "e", "f", "e'", "f'"]}
    ident = (win["v"] + win["w"]).rows
    assert win["f'"] * win["f"] == win["w"]  # relation (3) on the module
    # e*e = v and so e*e + f*f = identity, exactly away from the border
    total = (win["e'"] * win["e"] + win["f'"] * win["f"]).rows
    for i in range(N - 2):
        for j in range(N - 2):
            assert total[i][j] == ident[i][j]


def test_window_multiplicativity_within_validity():
    rng = seeded("window-mult")
    g = L.toeplitz_graph()
    N = 12
    pool = [m for m in L.basis_monomials_up_to(g, 3)]
    for _ in range(30):
        x = random_element(g, rng, pool, size=3)
        y = random_element(g, rng, pool, size=3)
        wx = L.rcfm_representation(x, N)
        wy = L.rcfm_representation(y, N)
        wxy = L.rcfm_representation(x * y, N)
        product, want = (wx.matrix * wy.matrix).rows, wxy.matrix.rows
        bound = N - x.total_degree() - y.total_degree()
        for i in range(max(bound, 0)):
            for j in range(max(bound, 0)):
                assert product[i][j] == want[i][j]


def test_window_bandedness_and_flags():
    g = L.toeplitz_graph()
    v = L.rcfm_representation(Element.vertex(g, "v"), 12)
    e = L.rcfm_representation(E(g, "e"), 12)
    # the bandwidth: the largest |i - j| over the nonzero entries
    bands = [
        max((abs(i - j) for i, row in w.matrix.nonzero_rows.items() for j in row), default=0)
        for w in (v, e)
    ]
    assert bands[0] == 0 and bands[1] <= 1
    assert not v.flags["finitely_supported"]
    assert v.flags["row_finite_on_window"] and v.flags["col_finite_on_window"]
    w = L.rcfm_representation(Element.vertex(g, "w"), 12)
    assert w.flags["finitely_supported"]


def _with_extra_cell(monkeypatch, cell):
    """Every window gains the entry 1 at cell (row, column)."""
    rows_of, (i, j) = toeplitz._window_rows, cell

    def rows_with_cell(x, d, window):
        rows = rows_of(x, d, window)
        rows.setdefault(i, {})[j] = L.QQ.one()
        return rows

    monkeypatch.setattr(toeplitz, "_window_rows", rows_with_cell)


def test_row_finiteness_flag_can_fail(monkeypatch):
    """Kills the mutant that sets row_finite_on_window to True: the window of
    w with a second entry in its row holds more entries in a row than w has
    terms."""
    _with_extra_cell(monkeypatch, (0, 1))
    w = L.rcfm_representation(Element.vertex(L.toeplitz_graph(), "w"), 6)
    assert w.flags == {
        "finitely_supported": True, "row_finite_on_window": False, "col_finite_on_window": True
    }


def test_column_finiteness_flag_can_fail(monkeypatch):
    """Kills the mutant that sets col_finite_on_window to True: the window of
    w with a second entry in its column holds more entries in a column than
    w has terms."""
    _with_extra_cell(monkeypatch, (1, 0))
    w = L.rcfm_representation(Element.vertex(L.toeplitz_graph(), "w"), 6)
    assert w.flags == {
        "finitely_supported": True, "row_finite_on_window": True, "col_finite_on_window": False
    }


def test_socle_support_check_can_fail(monkeypatch):
    """Kills the mutant that switches off part (a) of sandwich_report: once
    the socle image of v is zero, v, whose window is the whole diagonal, is
    a socle monomial without finite support, and the report names it alone.
    The report tests each monomial's socle membership with in_socle."""
    member = toeplitz.in_socle

    def v_in_socle(x):
        return x == Element.vertex(x.graph, "v") or member(x)

    monkeypatch.setattr(toeplitz, "in_socle", v_in_socle)
    report = L.sandwich_report(L.toeplitz_graph(), 2, 6)
    assert report["socle_finite_support_failures"] == ["v"]
    assert report["row_col_finiteness_failures"] == []
    assert report["matrix_unit_failures"] == []
    assert not report["pass"]


def test_finiteness_check_can_fail(monkeypatch):
    """Kills the mutant that switches off part (b) of sandwich_report: with
    the entry (0, 1) added to every window, a basis monomial, one term, fails
    exactly when its window has another entry in row 0 or in column 1."""
    _with_extra_cell(monkeypatch, (0, 1))
    g = L.toeplitz_graph()
    report = L.sandwich_report(g, 2, 6)
    expected = []
    for m in L.basis_monomials_up_to(g, 2):
        rows = reference_window_rows(Element.from_monomial(m), 6)
        entries = {(i, j) for i, row in enumerate(rows) for j, c in row.items() if c}
        if any(i == 0 or j == 1 for i, j in entries - {(0, 1)}):
            expected.append(L.format_monomial(m))
    assert expected and report["row_col_finiteness_failures"] == expected
    assert not report["pass"]


def test_socle_module_elements_hit_matrix_units():
    g = L.toeplitz_graph()
    x = L.socle_module_element(g, 1, 2)
    # b1 (b2)* = f (ef)*, which normalizes through the designated edge f
    assert L.format_element(x) == "e' - e*e'*e'"
    win = L.rcfm_representation(x, 6)
    assert win.matrix.rows[1][2] == L.QQ.one()
    assert sum(1 for r in win.matrix.rows for a in r if a) == 1
    assert L.in_socle(x)


def test_window_rejects_foreign_graphs(a2):
    with pytest.raises(PreconditionError):
        L.rcfm_representation(Element.vertex(a2, "u"), 6)
    with pytest.raises(PreconditionError):
        L.socle_module_element(a2, 0, 1)
    with pytest.raises(PreconditionError):
        L.sandwich_report(a2, 2, 6)


def test_window_too_small_for_rank_one_support():
    g = L.toeplitz_graph()
    far = L.socle_module_element(g, 5, 0)
    with pytest.raises(PreconditionError):
        L.rcfm_representation(far, 4)


def test_sandwich_report():
    g = L.toeplitz_graph()
    report = L.sandwich_report(g, 4, 12)
    assert report["pass"]
    assert report["socle_finite_support_failures"] == []
    assert report["row_col_finiteness_failures"] == []
    assert report["matrix_unit_failures"] == []


@pytest.mark.parametrize("field", [L.QQ, L.GF(7)], ids=["qq", "f7"])
def test_sandwich_report_lists_wrong_units_like_the_matrix_check(monkeypatch, field):
    """The report and socle_module_element read the units off one builder,
    _units; with it patched, the report lists exactly the units the full
    reference window of socle_module_element's elements shows as wrong."""
    units = toeplitz._units

    def wrong(g, d, field, rows, columns):
        """A unit shifted one column, twice a unit, or zero, on every
        third (i, j) each; the right unit elsewhere."""
        for i, j, x in units(g, d, field, rows, columns):
            k = (i * 5 + j) % 9
            if k == 0:
                ((_, _, x),) = units(g, d, field, (i,), (j + 1,))
            yield i, j, x + x if k == 3 else x - x if k == 6 else x

    monkeypatch.setattr(toeplitz, "_units", wrong)
    for g in (L.toeplitz_graph(), loop_designated_toeplitz()):
        expected = reference_sandwich_units(g, 9, field, L.socle_module_element)
        assert len(expected) == sum((i * 5 + j) % 9 in (0, 3, 6) for i in range(8) for j in range(8))
        report = L.sandwich_report(g, 2, 9, field)
        assert report["matrix_unit_failures"] == expected
        assert not report["pass"]


def test_sandwich_report_recognizes_the_graph_once():
    """Every map the reports call reads the memoised decomposition, so the
    graph is recognized and stored once, and each later read is a hit."""
    for report in (lambda g: L.sandwich_report(g, 2, 6), lambda g: L.exact_sequence_report(g, 2)):
        g = L.toeplitz_graph()
        memo = logged(g)
        assert report(g)["pass"]
        assert memo.stored.count(L.recognize_toeplitz) == 1


@pytest.mark.parametrize("d", range(1, 6))
def test_sandwich_report_needs_a_window_above_twice_the_degree(d):
    """Part (a) asks max(i, j) < N - deg - 1, and e^(d-1) f is the cell
    (d, 0) at degree d: a window of 2d + 2 passes, while at 2d + 1 exactly
    e^(d-1) f and its star are listed, and nothing else fails."""
    g = L.toeplitz_graph()
    assert L.sandwich_report(g, d, 2 * d + 2)["pass"]
    report = L.sandwich_report(g, d, 2 * d + 1)
    word = "*".join(["e"] * (d - 1) + ["f"])
    star = "*".join(["f'"] + ["e'"] * (d - 1))
    assert report["socle_finite_support_failures"] == [word, star]
    assert report["row_col_finiteness_failures"] == []
    assert report["matrix_unit_failures"] == []
    assert not report["pass"]


def test_distinct_monomials_have_independent_windows():
    g = L.toeplitz_graph()
    N = 12
    monomials = L.basis_monomials_up_to(g, 4)
    windows = [L.rcfm_representation(Element.from_monomial(m), N) for m in monomials]
    flat = L.Matrix([[a for row in w.matrix.rows for a in row] for w in windows])
    assert len(flat.rref()[1]) == len(monomials)


def test_window_too_small_names_the_least_outside_support_in_any_order():
    g = L.toeplitz_graph()
    one, other = E(g, "e*e*e*e*e*e*f + e*e*e*e*e*e*e*f"), E(g, "e*e*e*e*e*e*e*f + e*e*e*e*e*e*f")
    assert one == other and list(one.terms) != list(other.terms)
    for x in (one, other):
        with pytest.raises(PreconditionError, match=r"^window 3 too small: support at \(7, 0\)"):
            L.rcfm_representation(x, 3)


def test_a_wide_window_holds_its_entries_not_its_basis_paths():
    """A window's cost follows its nonzero entries: v on 20,000 basis paths
    is the 19,999 diagonal ones, and the unit E[19999][0] is one entry."""
    g = L.toeplitz_graph()
    N = 20_000
    one = L.QQ.one()
    v = L.rcfm_representation(Element.vertex(g, "v"), N)
    assert v.matrix.nonzero_rows == {k: {k: one} for k in range(1, N)}
    x = L.socle_module_element(g, N - 1, 0)
    win = L.rcfm_representation(x, N)
    assert win.matrix.nonzero_rows == {N - 1: {0: one}}


def test_windows_past_their_bounds_are_refused():
    """A window holds up to N entries and the sandwich report checks
    (N - 1)^2 units, so each has its own bound, and past it the call raises
    LimitExceeded before any work; a window at the bound still answers."""
    g = L.toeplitz_graph()
    v = Element.vertex(g, "v")
    assert L.rcfm_representation(v, MAX_WINDOW).matrix.nrows == MAX_WINDOW
    for window in (MAX_WINDOW + 1, 10**20):
        with pytest.raises(L.LimitExceeded, match=rf"^window {window} exceeds the bound"):
            L.rcfm_representation(v, window)
    assert L.sandwich_report(g, 1, MAX_SANDWICH_WINDOW)["pass"] is True
    with pytest.raises(L.LimitExceeded, match="sandwich bound"):
        L.sandwich_report(g, 1, MAX_SANDWICH_WINDOW + 1)
    assert issubclass(L.LimitExceeded, L.LeavittError)


def test_degrees_past_the_bound_are_refused():
    """Part (a) of the sandwich report needs a window N > 2d + 1, and N is at
    most MAX_SANDWICH_WINDOW, so both reports answer at degree MAX_DEGREE and
    raise LimitExceeded one step past it, before enumerating any monomial."""
    g = L.toeplitz_graph()
    assert 2 * MAX_DEGREE + 1 < MAX_SANDWICH_WINDOW <= 2 * (MAX_DEGREE + 1) + 1
    assert L.exact_sequence_report(g, MAX_DEGREE)["pass"] is True
    assert L.sandwich_report(g, MAX_DEGREE, MAX_SANDWICH_WINDOW)["pass"] is True
    for degree in (MAX_DEGREE + 1, 10**20):
        for report in (L.exact_sequence_report, lambda g, d: L.sandwich_report(g, d, 12)):
            with pytest.raises(L.LimitExceeded, match=rf"^degree {degree} exceeds the bound {MAX_DEGREE}$"):
                report(g, degree)


# -- the infinite-matrix oracle ----------------------------------------------------


@pytest.mark.parametrize("field", [L.QQ, L.GF(7)], ids=["qq", "f7"])
def test_products_on_T_follow_the_cell_and_run_rules(field):
    """x * y against the composition of x's and y's cells and runs, which
    involves no rewriting, on every column below deg x + deg y + 6: past
    the last cell and the start of every run each column is the previous
    one shifted down, so these columns decide the whole matrix. Both
    declaration orders of T, so both choices of designated edge at v."""
    rng = seeded(f"toeplitz-cells-{field.name}")
    compared = 0
    for g in (L.toeplitz_graph(), loop_designated_toeplitz()):
        pool = L.basis_monomials_up_to(g, 4)
        for _ in range(400):
            x, y = (random_element(g, rng, pool, field=field) for _ in range(2))
            expected = compose_cells_and_runs(toeplitz_cells_and_runs(x), toeplitz_cells_and_runs(y))
            got = toeplitz_cells_and_runs(x * y)
            for k in range(x.total_degree() + y.total_degree() + 6):
                assert toeplitz_column(got, k) == toeplitz_column(expected, k), (g, x, y, k)
            compared += 1
    assert compared == 800


@pytest.mark.parametrize("field", [L.QQ, L.GF(7)], ids=["qq", "f7"])
def test_socle_and_laurent_image_are_read_off_the_runs(field):
    """x lies in the socle exactly when the runs of each diagonal cancel,
    so that x is a finite matrix, and its Laurent image maps each diagonal
    s to the sum of its runs."""
    rng = seeded(f"toeplitz-runs-{field.name}")
    members = 0
    for g in (L.toeplitz_graph(), loop_designated_toeplitz()):
        pool = L.basis_monomials_up_to(g, 4)
        for _ in range(120):
            x = random_element(g, rng, pool, field=field)
            if rng.random() < 0.3:  # x (1 - e e*) = x (w + f f*) lies in the socle
                x = x - x * L.parse_element(g, "e*e'", field)
            ends = toeplitz_run_ends(toeplitz_cells_and_runs(x))
            assert L.in_socle(x) == (not ends), (g, x)
            assert L.laurent_quotient(x).coeffs == ends, (g, x)
            members += not ends
    assert 20 < members < 200


# -- the one-pass window and the unit check against the parent construction --------


def _outcome(f, *args):
    try:
        return f(*args)
    except PreconditionError as exc:
        return (type(exc), str(exc))


def _on_one_diagonal(g, rng, field, by_diagonal):
    """Two to five basis monomials on one diagonal a - b, cells and runs
    alike, half the time with coefficients that sum to zero, so that the
    diagonal's step function returns to zero past its last start."""
    terms = by_diagonal[rng.choice(sorted(by_diagonal))]
    picks = rng.sample(terms, min(len(terms), rng.randint(2, 5)))
    coeffs = [rng.choice([1, -1, 2, 3]) for _ in picks]
    if rng.random() < 0.5:
        coeffs[-1] = -sum(coeffs[:-1])
    return Element(g, field, [(m, field.scalar(c)) for m, c in zip(picks, coeffs)])


@pytest.mark.parametrize("field", [L.QQ, L.GF(7)], ids=["qq", "f7"])
def test_window_rows_match_the_parent_construction(field):
    """The one-pass window gives the rows of the accumulate-per-diagonal one,
    and refuses a window too small with the same message, naming the least
    (a, b) outside."""
    rng = seeded(f"one-pass-window:{field!r}")
    outside = compared = mixed = 0
    for g in (L.toeplitz_graph(), loop_designated_toeplitz()):
        d, pool, by_diagonal = L.recognize_toeplitz(g), L.basis_monomials_up_to(g, 6), {}
        for m in L.basis_monomials_up_to(g, 8):
            by_diagonal.setdefault(m.real.length - m.ghost.length, []).append(m)
        for window in range(1, 17):
            for _ in range(12):
                x = _on_one_diagonal(g, rng, field, by_diagonal)
                x = x + random_element(g, rng, pool, size=2, field=field)
                expected = _outcome(parent_window_rows, x, d, window)
                assert _outcome(toeplitz._window_rows, x, d, window) == expected, (window, x)
                if isinstance(expected, tuple):
                    assert expected[1].startswith(f"window {window} too small: support at (")
                    outside += 1
                else:
                    compared += 1
                kinds = {(m.real.length - m.ghost.length, m.real.range) for m in x.terms}
                mixed += any((s, "w") in kinds and (s, "v") in kinds for s, _ in kinds)
    assert outside > 100 and compared > 200 and mixed > 250


@pytest.mark.parametrize("field", [L.QQ, L.GF(7)], ids=["qq", "f7"])
def test_sandwich_report_matches_the_parent_construction(field):
    """Windows 1..16 and degrees 0..4: the report, or the refusal of a window
    too small for a basis monomial, is the parent's, unit failures included."""
    refused = listed = 0
    for g in (L.toeplitz_graph(), loop_designated_toeplitz()):
        for window, degree in product(range(1, 17), range(5)):
            expected = _outcome(parent_sandwich_report, g, degree, window, field)
            assert _outcome(L.sandwich_report, g, degree, window, field) == expected
            refused += isinstance(expected, tuple)
            listed += not isinstance(expected, tuple) and not expected["pass"]
    assert refused > 15 and listed > 25
