"""Every size argument of the public API is checked once, where it enters,
by errors.size: a value that is no int, or an int below the size's least
value, is refused with a PreconditionError, not a TypeError from inside
the computation or a wrong answer."""

import inspect

import pytest

import leavitt as L

# the parameter names that hold a size
SIZE_NAMES = {
    "n", "d", "length", "bound", "columns", "spokes", "degree_bound", "window", "i", "j", "ncols",
}

T = L.toeplitz_graph()
V = L.Element.vertex(T, "v")

# (qualified name, size parameter) -> (the call with every other argument
# valid, the least size it accepts, the refusal of a size below that)
SIZES = {
    ("paths_up_to", "length"): (
        lambda k: L.paths_up_to(T, k), 0, "path length bound must be nonnegative"
    ),
    ("basis_monomials_up_to", "d"): (
        lambda k: L.basis_monomials_up_to(T, k), 0, "degree bound must be nonnegative"
    ),
    ("line_graph", "n"): (L.line_graph, 1, "line_graph needs n >= 1"),
    ("ladder_graph", "columns"): (L.ladder_graph, 1, "ladder_graph needs at least one column"),
    ("comb_graph", "spokes"): (L.comb_graph, 1, "comb_graph needs at least one spoke"),
    ("Matrix.identity", "n"): (L.Matrix.identity, 0, "matrix size must be nonnegative"),
    ("Matrix.from_row_dicts", "ncols"): (
        lambda k: L.Matrix.from_row_dicts([], k), 0, "column count must be nonnegative"
    ),
    ("restriction_graph", "bound"): (
        lambda k: L.restriction_graph(T, {"w"}, k), 1, "length bound must be at least 1"
    ),
    ("build_toeplitz_family", "n"): (
        lambda k: L.build_toeplitz_family(k, L.line_graph(2), ["x1"]), 1,
        "the family needs at least one connecting edge",
    ),
    ("exact_sequence_report", "degree_bound"): (
        lambda k: L.exact_sequence_report(T, k), 0, "degree bound must be nonnegative"
    ),
    ("rcfm_representation", "window"): (
        lambda k: L.rcfm_representation(V, k), 1, "window size must be positive"
    ),
    ("socle_module_element", "i"): (
        lambda k: L.socle_module_element(T, k, 0), 0, "matrix unit indices must be nonnegative"
    ),
    ("socle_module_element", "j"): (
        lambda k: L.socle_module_element(T, 0, k), 0, "matrix unit indices must be nonnegative"
    ),
    ("sandwich_report", "degree_bound"): (
        lambda k: L.sandwich_report(T, k, 6), 0, "degree bound must be nonnegative"
    ),
    ("sandwich_report", "window"): (
        lambda k: L.sandwich_report(T, 0, k), 1, "window size must be positive"
    ),
}


def _public_callables():
    """The functions leavitt exports, and the methods of the classes it exports."""
    for name in dir(L):
        if name.startswith("_"):
            continue
        obj = getattr(L, name)
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(
                    getattr(member, "__func__", member)
                ):
                    yield getattr(obj, attr)


def test_every_size_parameter_of_the_api_is_in_the_table():
    found = {
        (f.__qualname__, p)
        for f in _public_callables()
        for p in inspect.signature(f).parameters
        if p in SIZE_NAMES
    }
    assert found == set(SIZES)


@pytest.mark.parametrize("value", [2.5, None, "3"], ids=["float", "none", "str"])
@pytest.mark.parametrize("size", SIZES, ids=[f"{f}-{p}" for f, p in SIZES])
def test_a_size_that_is_no_int_is_refused(size, value):
    call, _, _ = SIZES[size]
    with pytest.raises(L.PreconditionError) as raised:
        call(value)
    assert str(raised.value) == f"a size must be an integer, not {value!r}"


@pytest.mark.parametrize("size", SIZES, ids=[f"{f}-{p}" for f, p in SIZES])
def test_a_size_below_its_least_is_refused_and_the_least_answers(size):
    call, least, message = SIZES[size]
    with pytest.raises(L.PreconditionError) as raised:
        call(least - 1)
    assert str(raised.value) == message
    call(least)


def test_a_bool_is_a_size():
    assert L.paths_up_to(T, True) == L.paths_up_to(T, 1)
    assert L.line_graph(True) == L.line_graph(1)
