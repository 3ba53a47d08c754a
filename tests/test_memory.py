"""Memory of a large product and of its printing, per output term, and of a
Toeplitz window, per window entry.

On rose(4), x * x.star() for x = (e1 + e2 + e3 + e4)^3 has 3,277 terms.
``tracemalloc`` counts the bytes a call holds at its peak beyond what it
returns, which is deterministic for a given interpreter. The bounds sit
halfway between the two designs:

- the product converted its integer sums into a second dict, 60 B per
  term on Python 3.10-3.13; converting them in place holds 0.5 B per term;
- the printer sorted (key, coefficient) items and built two edge-index
  tuples per term, 138-139 B per term; sorting the keys, with one index
  tuple per distinct edge tuple, holds 72-80 B per term, mostly the words
  it joins.

The window of the vertex v on the canonical Toeplitz graph, at N = 4,096,
has N - 1 entries. Built as cells {(row, column): scalar}, then as rows,
then copied by ``Matrix.from_row_dicts``, it peaked at 672-681 B per
entry on Python 3.10-3.13; built once, as the rows the ``Matrix`` stores,
at 374-375 B, the result included.

The module needs neither pytest nor the test helpers, so it also runs as a
script: ``PYTHONPATH=src python tests/test_memory.py``.
"""

import gc
import tracemalloc

import leavitt as L

PRODUCT_BOUND = 30  # bytes per output term: halfway between 0.5 and 60
PRINTER_BOUND = 108  # halfway between 76 and 139
WINDOW_BOUND = 500  # bytes per window entry at the peak, result included


def rose_cube_product():
    g = L.Graph("rose4", ["v"], [(f"e{i}", "v", "v") for i in range(1, 5)])
    s = "(e1 + e2 + e3 + e4)"
    x = L.parse_element(g, f"{s}*{s}*{s}")
    return x, x.star()


def traced_bytes(call):
    """(result, bytes held at the peak of ``call()``, bytes its result holds)."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    return result, peak, current


def transient_bytes(call):
    """(result, bytes held at the peak of ``call()`` beyond its result)."""
    result, peak, current = traced_bytes(call)
    return result, peak - current


def test_large_product_and_its_printing_hold_little_beyond_the_output():
    x, y = rose_cube_product()
    z, product_bytes = transient_bytes(lambda: x * y)
    assert z.support_size() == 3277
    _, printer_bytes = transient_bytes(lambda: L.format_element(z))
    per_term = product_bytes / 3277, printer_bytes / 3277
    assert per_term[0] < PRODUCT_BOUND, per_term
    assert per_term[1] < PRINTER_BOUND, per_term


def test_a_toeplitz_window_is_built_once():
    T = L.toeplitz_graph()
    v = L.Element.vertex(T, "v")
    L.rcfm_representation(v, 4)  # the graph's memoised facts are not counted
    window, peak, _ = traced_bytes(lambda: L.rcfm_representation(v, 4096))
    entries = sum(map(len, window.matrix.nonzero_rows.values()))
    assert entries == 4095
    assert peak / entries < WINDOW_BOUND, peak / entries


if __name__ == "__main__":
    test_large_product_and_its_printing_hold_little_beyond_the_output()
    test_a_toeplitz_window_is_built_once()
    print("ok")
