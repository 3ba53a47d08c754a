"""The library's text, modulus and matrix entries refuse a value of the wrong
type with a PreconditionError where it enters, not an AttributeError or a
TypeError from inside the parser or the primality test, nor by storing it."""

import pytest

import leavitt as L

T = L.toeplitz_graph()

# (entry, value) -> (the call, its refusal)
REFUSALS = {
    "parse_graph-none": (lambda: L.parse_graph(None), "a graph's source text must be a string, not None"),
    "parse_graph-bytes": (
        lambda: L.parse_graph(b"graph T"), "a graph's source text must be a string, not b'graph T'"
    ),
    "parse_element-none": (
        lambda: L.parse_element(T, None), "an element expression must be a string, not None"
    ),
    "field_from_name-none": (
        lambda: L.field_from_name(None), "a field tag must be a string, not None"
    ),
    "field_from_name-int": (lambda: L.field_from_name(7), "a field tag must be a string, not 7"),
    "path-edges-none": (
        lambda: L.Path(T, "v", None), "a path's edge sequence is a collection of names, not None"
    ),
    "GF-float": (lambda: L.GF(2.5), "a modulus must be an integer, not 2.5"),
    "GF-str": (lambda: L.GF("7"), "a modulus must be an integer, not '7'"),
    "GF-none": (lambda: L.GF(None), "a modulus must be an integer, not None"),
    # a matrix encodes its entries through its field, as an element does
    "Matrix-float": (lambda: L.Matrix([[0.5]]), "0.5 is not a scalar of QQ"),
    "Matrix-str": (lambda: L.Matrix([["x"]]), "'x' is not a scalar of QQ"),
    "from_row_dicts-str": (
        lambda: L.Matrix.from_row_dicts([{0: "x"}], 1, L.GF(7)), "'x' is not a scalar of GF(7)"
    ),
}


@pytest.mark.parametrize("entry", REFUSALS)
def test_a_value_of_the_wrong_type_is_refused_where_it_enters(entry):
    call, message = REFUSALS[entry]
    with pytest.raises(L.PreconditionError) as raised:
        call()
    assert str(raised.value) == message


def test_integer_moduli_keep_their_messages():
    for p, message in ((8, "8 is not prime"), (True, "True is not prime"), (1, "1 is not prime")):
        with pytest.raises(L.PreconditionError, match=f"^{message}$"):
            L.GF(p)
    assert L.GF(7).p == 7 and L.field_from_name("fp:7") == L.GF(7)
