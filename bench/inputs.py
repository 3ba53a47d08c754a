"""Seeded generators for the benchmark's inputs: graph DSL text and element
expressions.

Nothing here imports ``leavitt``: the program under test receives only the
text these functions produce. Graphs are described by ``Spec`` (declaration
ordered vertices and edges), which also answers the adjacency questions the
generators need to build composable paths.
"""

from __future__ import annotations


class Spec:
    """A graph as the benchmark knows it: name, vertices, (edge, src, dst)."""

    def __init__(self, name, vertices, edges):
        self.name = name
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.out = {v: [] for v in self.vertices}
        self.inc = {v: [] for v in self.vertices}
        for e, s, d in self.edges:
            self.out[s].append((e, d))
            self.inc[d].append((e, s))

    def dsl(self):
        lines = [f"graph {self.name}"]
        lines += [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {e} {s} {d}" for e, s, d in self.edges]
        return "\n".join(lines) + "\n"

    def reach(self, v):
        """Vertices reachable from v (v included): a hereditary set."""
        seen = {v}
        todo = [v]
        while todo:
            for _, d in self.out[todo.pop()]:
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        return [u for u in self.vertices if u in seen]


# -- graph families ------------------------------------------------------------


def rose(k):
    return Spec(f"rose{k}", ["v"], [(f"e{i}", "v", "v") for i in range(1, k + 1)])


def toeplitz():
    return Spec("T", ["v", "w"], [("e", "v", "v"), ("f", "v", "w")])


def line(n):
    vs = [f"x{i}" for i in range(1, n + 1)]
    return Spec(f"line{n}", vs, [(f"a{i}", f"x{i}", f"x{i + 1}") for i in range(1, n)])


def ladder(columns):
    vs, es = [], []
    for i in range(1, columns + 1):
        vs += [f"u{i}", f"v{i}"]
        es += [(f"e{i}", f"u{i}", f"v{i}"), (f"f{i}", f"u{i}", f"u{i + 1}")]
    vs.append(f"u{columns + 1}")
    return Spec(f"ladder{columns}", vs, es)


def comb(spokes):
    vs = [f"p{i}" for i in range(1, spokes + 1)] + ["w"]
    return Spec(f"comb{spokes}", vs, [(f"s{i}", f"p{i}", "w") for i in range(1, spokes + 1)])


def random_forest(rng, n, name, cycles=True):
    """Sparse random row-finite graph on n vertices.

    Vertices are grouped into blocks; with ``cycles`` about a quarter of the
    blocks carry a planted cycle (a loop, or a 2- or 3-cycle) and block 0
    always does. Each later block is entered by exactly one edge from one
    of the three blocks before it. Entry edges form a forest, so the only
    cycles are the planted ones and the number of simple paths from any
    vertex stays linear in n: cycle enumeration is then polynomial, and the
    cost of a rung depends on n rather than on the seed.
    """
    vertices = [f"v{i}" for i in range(n)]
    blocks = []
    i = 0
    while i < n:
        planted = cycles and (not blocks or rng.random() < 0.25)
        size = min(rng.randint(1, 3) if planted else 1, n - i)
        blocks.append((vertices[i:i + size], planted))
        i += size
    edges = []

    def add(src, dst):
        edges.append((f"g{len(edges)}", src, dst))

    for j, (members, planted) in enumerate(blocks):
        if j:
            parent = blocks[rng.randrange(max(0, j - 3), j)][0]
            add(rng.choice(parent), rng.choice(members))
        if planted:
            for a, b in zip(members, members[1:] + members[:1]):
                add(a, b)
    return Spec(name, vertices, edges)


# -- elements ------------------------------------------------------------------


def walk_forward(spec, rng, start, length):
    """A path from start of at most ``length`` edges (stops at a sink)."""
    at, edges = start, []
    for _ in range(length):
        if not spec.out[at]:
            break
        e, at = rng.choice(spec.out[at])
        edges.append(e)
    return start, edges, at


def walk_backward(spec, rng, end, length):
    """A path ending at ``end`` of at most ``length`` edges: (source, edges)."""
    at, edges = end, []
    for _ in range(length):
        if not spec.inc[at]:
            break
        e, at = rng.choice(spec.inc[at])
        edges.append(e)
    return at, edges[::-1]


def monomial_text(src, real, ghost):
    """p q* in the expression grammar: edges of p, then q's edges primed, reversed."""
    parts = list(real) + [e + "'" for e in reversed(ghost)]
    return "*".join(parts) if parts else src


def coefficient(rng):
    if rng.random() < 0.5:
        return 1
    if rng.random() < 0.7:
        return rng.randint(2, 9)
    return (rng.randint(1, 9), rng.randint(2, 7))


def element_text(terms, first_positive=False):
    """Join (sign, coeff, monomial_text) triples into an expression."""
    out = []
    for sign, c, body in terms:
        if c == 1:
            piece = body
        elif isinstance(c, tuple):
            piece = f"{c[0]}/{c[1]}*{body}"
        else:
            piece = f"{c}*{body}"
        if not out:
            out.append(piece if sign > 0 or first_positive else f"-{piece}")
        else:
            out.append(f"{'+' if sign > 0 else '-'} {piece}")
    return " ".join(out)


def random_monomial(spec, rng, start, max_len):
    src, real, end = walk_forward(spec, rng, start, rng.randint(0, max_len))
    gsrc, ghost = walk_backward(spec, rng, end, rng.randint(0, max_len))
    return (src, real), (gsrc, ghost)


def random_element(spec, rng, max_terms=8, max_len=6, starts=None, first_positive=False):
    """Random combination of 1..max_terms monomials p q* with |p|, |q| <= max_len.

    Returns (text, ghost_paths); ghost paths let a caller build a second
    element whose real parts overlap them, so that products are nonzero.
    """
    pool = starts or spec.vertices
    terms, ghosts = [], []
    for _ in range(rng.randint(1, max_terms)):
        (src, real), ghost = random_monomial(spec, rng, rng.choice(pool), max_len)
        ghosts.append(ghost)
        sign = 1 if rng.random() < 0.7 else -1
        terms.append((sign, coefficient(rng), monomial_text(src, real, ghost[1])))
    return element_text(terms, first_positive), ghosts


def overlapping_element(spec, rng, ghosts, max_terms=8, max_len=6, starts=None):
    """Like random_element, but about half the real parts extend or truncate
    one of ``ghosts``, so (x * y.star()) has surviving terms to rewrite."""
    pool = starts or spec.vertices
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        if ghosts and rng.random() < 0.5:
            gsrc, gedges = rng.choice(ghosts)
            keep = gedges[: rng.randint(0, len(gedges))]
            at = gsrc
            for e in keep:
                at = next(d for name, d in spec.out[at] if name == e)
            _, more, end = walk_forward(spec, rng, at, rng.randint(0, 2))
            real = list(keep) + more
            _, ghost = walk_backward(spec, rng, end, rng.randint(0, max_len))
            body = monomial_text(gsrc, real, ghost)
        else:
            (src, real), (_, ghost) = random_monomial(spec, rng, rng.choice(pool), max_len)
            body = monomial_text(src, real, ghost)
        sign = 1 if rng.random() < 0.7 else -1
        terms.append((sign, coefficient(rng), body))
    return element_text(terms)


def nilpotent_element(spec, rng, max_len=6):
    """c * p q* with p != q ending at one vertex of an acyclic graph.

    (p q*)^2 = p (q* p) q* and q* p = 0 unless one path is a prefix of the
    other, which with equal ranges needs a cycle: so the element squares to
    zero and has no group inverse.
    """
    for _ in range(1000):
        end = rng.choice(spec.vertices)
        a = walk_backward(spec, rng, end, rng.randint(0, max_len))
        b = walk_backward(spec, rng, end, rng.randint(0, max_len))
        if a != b:
            return element_text([(1, coefficient(rng), monomial_text(a[0], a[1], b[1]))])
    raise ValueError(f"{spec.name}: no two distinct paths share a range")


def unit_plus_nilpotent(spec, rng, max_len=6):
    """Identity (sum of all vertices) plus one or two c * p q* terms, p != q."""
    extra = []
    for _ in range(rng.randint(1, 2)):
        extra.append(nilpotent_element(spec, rng, max_len))
    return " + ".join(spec.vertices) + " + " + " + ".join(extra)


def closed_element(spec, rng, max_pairs=4, max_len=6):
    """A low-rank element that is generically group invertible.

    Over an acyclic graph, p q* (p from a, q from b, equal ranges) maps to
    matrix units whose row indices are paths from a and column indices
    paths from b. Taking the vertices S = {sources} with nonzero
    coefficients as well confines the matrix to the indices of paths out of
    S, where it is diagonal plus a few off-diagonal entries: invertible
    there unless the random coefficients cancel.
    """
    terms, sources = [], []
    for _ in range(rng.randint(1, max_pairs)):
        end = rng.choice(spec.vertices)
        a = walk_backward(spec, rng, end, rng.randint(0, max_len))
        b = walk_backward(spec, rng, end, rng.randint(0, max_len))
        if a == b:
            continue
        sign = 1 if rng.random() < 0.7 else -1
        terms.append((sign, coefficient(rng), monomial_text(a[0], a[1], b[1])))
        sources += [a[0], b[0]]
    if not sources:
        sources.append(rng.choice(spec.vertices))
    for v in dict.fromkeys(sources):
        terms.insert(0, (1, coefficient(rng), v))
    return element_text(terms)
