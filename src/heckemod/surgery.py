"""Plumbing-forest surgery presentations and the quantum invariants.

A plumbed 3-manifold is described by a forest whose vertices are framed
unknots and whose edges are Hopf links between them.  Vertices are either
surgery components (summed over all colors) or link components carrying a
fixed color.  The invariant of the surgered manifold is the normalized
colored bracket

    tau = (eta * Delta_+)^(-sigma) * eta^m * <L(Omega, ..., Omega)>

with sigma the signature of the linking matrix and m the number of surgery
components.  Brackets and signatures are evaluated exactly by leaf
elimination over the forest; a direct sum over all colorings is retained as
a cross-check oracle for the bracket.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import mul

from .diagrams import ReducedLabel, YoungDiagram, twist_exponent
from .moddata import ModularData
from .scalars import (_WORDS, CycScalar, ExtScalar, ScalarError, _canonical,
                      _common_den, _fit, _nonzero_terms, _pack, _schoolbook,
                      _unpack, _word_format, _words)

__all__ = [
    "PlumbingGraph",
    "PlumbingVertex",
    "SurgeryInvariantResult",
    "parse_plumbing",
    "plumbing_to_json",
    "empty_graph",
    "single_vertex",
    "chain",
    "random_forest",
    "disjoint_union",
    "linking_data",
    "resolve_color",
    "colored_bracket",
    "colored_bracket_direct",
    "tau",
]


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlumbingVertex:
    id: str
    framing: int
    color: object = None  # raw color document for link vertices, else None

    @property
    def is_link(self) -> bool:
        return self.color is not None


@dataclass
class PlumbingGraph:
    """A validated plumbing forest.

    ``adjacency`` maps each vertex id to its neighbours in edge input order.
    ``preorder`` lists (vertex id, parent id) pairs so that every parent
    precedes its children; each tree is rooted (parent None) at its first
    vertex in input order.
    """

    vertices: list
    edges: list
    adjacency: dict = field(init=False, repr=False, compare=False)
    preorder: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise ScalarError("duplicate vertex id")
        adjacency = {i: [] for i in ids}
        for (u, v) in self.edges:
            if u not in adjacency or v not in adjacency:
                raise ScalarError(f"edge endpoint {u if u not in adjacency else v!r} "
                                  "is not a vertex")
            adjacency[u].append(v)
            adjacency[v].append(u)
        preorder = []
        parent = {}
        trees = 0
        for root in ids:
            if root in parent:
                continue
            trees += 1
            parent[root] = None
            stack = [root]
            while stack:
                x = stack.pop()
                preorder.append((x, parent[x]))
                for y in adjacency[x]:
                    if y not in parent:
                        parent[y] = x
                        stack.append(y)
        # a multigraph is a forest exactly when E = V - (number of trees);
        # this rejects cycles, self-loops and repeated edges alike
        if len(self.edges) != len(ids) - trees:
            raise ScalarError("not a plumbing forest: the edges contain a "
                              "cycle, a self-loop or a repeated edge")
        self.adjacency = adjacency
        self.preorder = preorder

    @property
    def surgery_vertices(self) -> list:
        return [v for v in self.vertices if not v.is_link]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_color(vid, color) -> None:
    """A link color document: an object with an optional integer 'i' and
    an optional 'lambda', a list of positive, weakly decreasing integers."""
    if not isinstance(color, dict):
        raise ScalarError(f"link color of vertex {vid!r} must be an "
                          f"object, got {color!r}")
    rows = color.get("lambda", [])
    if not _is_int(color.get("i", 0)) or not isinstance(rows, list) \
            or not all(map(_is_int, rows)) or any(r <= 0 for r in rows) \
            or any(a < b for a, b in zip(rows, rows[1:])):
        raise ScalarError(f"link color of vertex {vid!r} needs an integer "
                          "'i' and a 'lambda' of positive, weakly "
                          f"decreasing integer rows, got {color!r}")


def parse_plumbing(document: dict) -> PlumbingGraph:
    """Build a validated plumbing forest from its JSON document.

    Vertex ids must be JSON strings, framings JSON integers (not booleans,
    floats or strings), link colors as ``_check_color`` describes and each
    edge a list of two vertex ids; anything else raises ScalarError naming
    the bad record.
    """
    if not isinstance(document, dict):
        raise ScalarError(
            f"plumbing document must be an object, got {document!r}")
    records = document.get("vertices", [])
    if not isinstance(records, list):
        raise ScalarError(f"'vertices' must be a list, got {records!r}")
    vertices = []
    for rec in records:
        if not isinstance(rec, dict) or "id" not in rec or "framing" not in rec:
            raise ScalarError(f"vertex record needs 'id' and 'framing': {rec!r}")
        if not isinstance(rec["id"], str):
            raise ScalarError(f"vertex id must be a string, got {rec!r}")
        framing = rec["framing"]
        if not _is_int(framing):
            raise ScalarError(f"framing of vertex {rec['id']!r} must be an "
                              f"integer, got {framing!r}")
        color = rec.get("link")
        if color is not None:
            _check_color(rec["id"], color)
        vertices.append(PlumbingVertex(rec["id"], framing,
                                       color=None if color is None
                                       else dict(color)))
    edges = document.get("edges", [])
    if not isinstance(edges, list):
        raise ScalarError(f"'edges' must be a list, got {edges!r}")
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 2 \
                or not all(isinstance(x, str) for x in edge):
            raise ScalarError(f"edge {edge!r} must be a list of two vertex ids")
    return PlumbingGraph(vertices, [tuple(edge) for edge in edges])


def plumbing_to_json(g: PlumbingGraph) -> dict:
    vertices = []
    for v in g.vertices:
        rec = {"id": v.id, "framing": v.framing}
        if v.is_link:
            rec["link"] = v.color
        vertices.append(rec)
    return {"vertices": vertices, "edges": [list(e) for e in g.edges]}


def empty_graph() -> PlumbingGraph:
    return PlumbingGraph([], [])


def single_vertex(framing: int, vid: str = "v0") -> PlumbingGraph:
    return PlumbingGraph([PlumbingVertex(vid, framing)], [])


def chain(framings) -> PlumbingGraph:
    """Linear plumbing v0 - v1 - ... with the given framings."""
    verts = [PlumbingVertex(f"v{i}", int(f)) for i, f in enumerate(framings)]
    edges = [(f"v{i}", f"v{i + 1}") for i in range(len(verts) - 1)]
    return PlumbingGraph(verts, edges)


def random_forest(rng, max_vertices=4, link_colors=None) -> PlumbingGraph:
    """Random plumbing forest of 1..max_vertices vertices with framings in
    [-3, 3], each vertex after the first joined to an earlier one with
    probability 0.6.  With ``link_colors``, each vertex after the first is
    then a link vertex with probability 0.3, its color chosen from
    ``link_colors``.  The color draws come after all the others, so the
    shape and framings drawn do not depend on ``link_colors``."""
    n = rng.randint(1, max_vertices)
    verts = [PlumbingVertex(f"v{i}", rng.randint(-3, 3)) for i in range(n)]
    edges = [(f"v{rng.randrange(i)}", f"v{i}")
             for i in range(1, n) if rng.random() < 0.6]
    if link_colors:
        verts[1:] = [PlumbingVertex(v.id, v.framing, rng.choice(link_colors))
                     if rng.random() < 0.3 else v for v in verts[1:]]
    return PlumbingGraph(verts, edges)


def disjoint_union(g1: PlumbingGraph, g2: PlumbingGraph) -> PlumbingGraph:
    """Disjoint union; second graph's ids that clash gain a prime."""
    taken = {v.id for v in g1.vertices}
    rename = {v.id: (v.id + "'" if v.id in taken else v.id)
              for v in g2.vertices}
    verts = list(g1.vertices) + [
        PlumbingVertex(rename[v.id], v.framing, v.color) for v in g2.vertices]
    edges = list(g1.edges) + [(rename[u], rename[w]) for (u, w) in g2.edges]
    return PlumbingGraph(verts, edges)


# ---------------------------------------------------------------------------
# linking matrix and exact signature
# ---------------------------------------------------------------------------

def linking_data(g: PlumbingGraph):
    """Linking matrix over the surgery vertices (input order) and its
    signature (see ``_signature``)."""
    surg = g.surgery_vertices
    idx = {v.id: i for i, v in enumerate(surg)}
    n = len(surg)
    B = [[0] * n for _ in range(n)]
    for i, v in enumerate(surg):
        B[i][i] = v.framing
    for (u, w) in g.edges:
        if u in idx and w in idx:
            B[idx[u]][idx[w]] += 1
            B[idx[w]][idx[u]] += 1
    return B, _signature(g)[1]


def _signature(g: PlumbingGraph) -> tuple[int, int]:
    """(m, sigma): the number of surgery vertices and the signature of
    their linking matrix, computed by leaf elimination over the forest.

    The preorder is read backwards, so each surgery vertex is reached with
    the value its eliminated children left on its diagonal.  A nonzero value
    adds its sign and subtracts its reciprocal from the parent; a zero value
    spans a hyperbolic pair with the parent, which adds nothing and cuts the
    parent from the rest of the forest.  Link vertices start cut.

    Values are integer pairs p/q with q > 0, left unreduced: only the sign
    of p is read.
    """
    # p/q of each surgery vertex that is neither eliminated nor cut
    value = {v.id: (v.framing, 1) for v in g.vertices if not v.is_link}
    m = len(value)
    sigma = 0
    for vid, parent in reversed(g.preorder):
        x = value.pop(vid, None)
        if x is None:
            continue
        p, q = x
        if p:
            sigma += 1 if p > 0 else -1
            if parent in value:
                # a/b - q/p, over the positive denominator b |p|
                a, b = value[parent]
                value[parent] = (a * p - q * b, b * p) if p > 0 else \
                    (q * b - a * p, -b * p)
        elif parent in value:
            del value[parent]
    return m, sigma


# ---------------------------------------------------------------------------
# colored bracket
# ---------------------------------------------------------------------------

def resolve_color(data: ModularData, spec) -> int:
    """Index of a fixed link color in the active label set.  A color's
    ``i`` defaults to 0: in the reduced theory it is the label (i, lambda),
    in su and psu the diagram lambda, and i != 0 is no label of theirs."""
    if isinstance(spec, dict):
        lam = YoungDiagram(tuple(int(r) for r in spec.get("lambda", [])))
        i = int(spec.get("i", 0))
        label = ReducedLabel(i, lam) if i or data.theory == "reduced" \
            else lam
    else:
        label = spec
    try:
        return data.labels.index(label)
    except ValueError:
        raise ScalarError(f"unknown color label {label} for theory "
                          f"{data.theory} at ({data.N}, {data.K})") from None


def _vertex_specs(g: PlumbingGraph, data: ModularData, weights: dict,
                  degree_filter):
    """For each vertex, its weights in the form ``_eliminate`` reads:
    (key, labels, factors, rotations), label c weighing
    factors[c] * zeta^rotations[c].

    Surgery vertices range over the labels permitted by the degree filter
    with weight <c>^(2-deg) theta_c^framing; link vertices carry their one
    fixed color with weight <c>^(1-deg) theta_c^framing.  theta_c^f is
    zeta^(k_c f) for the twist exponent k_c, so the factor is <c>^e alone,
    and None where e = 0.  Each spec is read from ``weights``, keyed
    (labels, e, f mod M), and built on its first use; that key is the
    spec's key.
    """
    d = data.grading_modulus
    surgery_ids = {v.id for v in g.surgery_vertices}
    degree_filter = dict(degree_filter or {})
    for vid, residue in degree_filter.items():
        if vid not in surgery_ids:
            raise ScalarError(f"degree filter names non-surgery vertex {vid!r}")
        if not 0 <= residue < d:
            raise ScalarError(
                f"degree filter residue {residue} outside modulus {d}")
    M = data.ctx.M
    specs = {}
    for v in g.vertices:
        deg = len(g.adjacency[v.id])
        if v.is_link:
            labels, e = (resolve_color(data, v.color),), 1 - deg
        else:
            labels = data.labels_by_residue[degree_filter.get(v.id)]
            e = 2 - deg
        f = v.framing % M
        key = (labels, e, f)
        spec = weights.get(key)
        if spec is None:
            spec = weights[key] = (
                key, labels,
                tuple(data.dims[c] ** e for c in labels) if e else None,
                tuple(twist_exponent(data.ctx, data.labels[c]) * f % M
                      for c in labels))
        specs[v.id] = spec
    return specs


def _spec_weights(spec, ctx) -> dict:
    """The weights of one vertex spec as {label: scalar}."""
    _, labels, factors, rotations = spec
    units = [ctx.zeta(r) for r in rotations]
    if factors is None:
        return dict(zip(labels, units))
    return {c: f * u for c, f, u in zip(labels, factors, units)}


def colored_bracket(g: PlumbingGraph, data: ModularData,
                    degree_filter=None) -> CycScalar:
    """<L(Omega, ..., Omega)> by leaf elimination over the forest, on the
    term table of S kept on ``data`` with its weights and leaf messages."""
    table = data._s_terms
    if table is None:
        table = data._s_terms = _sparse_columns(data.s_matrix, data.ctx)
    return _eliminate(g, _vertex_specs(g, data, table.weights, degree_filter),
                      table)


def _eliminate(g: PlumbingGraph, specs: dict, table) -> CycScalar:
    """Sum over the labelings of the vertices, each vertex v taking a label
    c of its spec (key, labels, factors, rotations), of the product of the
    vertex weights factors[c] * zeta^rotations[c] (factor 1 where factors
    is None) and of matrix[i][j] over every edge with end labels i and j,
    where ``table`` is ``_sparse_columns(matrix, ctx)``, which also gives
    the ring.  Equal keys must mean equal specs.

    The preorder is read backwards, so each vertex folds into its parent
    after all of its children have folded into it.  Values and messages
    stay integer numerator vectors from leaf to root, with their contents
    and denominators multiplied into one exact scale.  A vertex's values
    are the products of its children's messages (the first child's are
    taken as they are, later ones multiply in by ``_schoolbook``), times
    its factors; ``_vertex_vectors`` turns them into content-free
    numerators.  The message to the parent label j, sum_i value_i *
    zeta^rotation_i * matrix[i][j], is then one packed integer sum, read
    as its numerators over the vertex's denominator times the matrix
    denominator D (``_messages``, which applies the rotations).  The
    rotated sums at the tree roots multiply, and the scale is applied once
    to the result.

    The messages of a leaf depend only on its spec and its parent's labels,
    so they are kept in the table's ``leaves`` under (key, parent labels).
    """
    ctx, leaves, matrix_den = table.ring, table.leaves, table.den
    total = ctx.one().nums  # the product of the tree sums so far
    scale_num = scale_den = 1
    below = {}  # vertex -> products of its eliminated children's messages
    for vid, parent in reversed(g.preorder):
        spec = specs[vid]
        values = below.pop(vid, None)
        if parent is None:
            content, den, vecs = _vertex_vectors(ctx, spec, values)
            vecs = _rotated(ctx, vecs, spec[3])
        else:
            targets = specs[parent][1]
            key = (spec[0], targets)
            found = leaves.get(key) if values is None else None
            if found is None:
                content, den, vecs = _vertex_vectors(ctx, spec, values)
                found = content, den * matrix_den, _messages(
                    ctx, vecs, spec[1], spec[3], targets, table) \
                    if content else None
                if values is None:
                    leaves[key] = found
            content, den, messages = found
        if not content:
            return ctx.zero()  # every value, so every message, is zero
        scale_num *= content
        scale_den *= den
        if parent is None:
            total = _schoolbook(ctx, tuple(map(sum, zip(*vecs))),
                                _nonzero_terms(total))
        else:
            up = below.get(parent)
            below[parent] = messages if up is None else [
                _schoolbook(ctx, x, _nonzero_terms(y))
                for x, y in zip(up, messages)]
    return _canonical(ctx, tuple(x * scale_num for x in total), scale_den)


def _vertex_vectors(ctx, spec, values):
    """(content, den, vecs): the values of a vertex, ``values`` (integer
    numerator vectors, its children's product, None at a leaf) times its
    factors, as content * vecs / den with vecs content-free integer
    numerator vectors.  The factors are put over their common denominator
    den and multiply in only where the spec has them (den is 1 otherwise).
    content is 0 when every value is zero.  The rotations are left to
    ``_rotated`` or to a packed map."""
    _, labels, factors, _ = spec
    den = 1
    if factors is not None:
        vecs, den = _common_den(factors)
        if values is not None:
            vecs = [_schoolbook(ctx, v, _nonzero_terms(f))
                    for v, f in zip(values, vecs)]
    else:
        vecs = [ctx.one().nums] * len(labels) if values is None else values
    content = 0
    for v in vecs:
        content = math.gcd(content, *v)
    if content > 1:
        vecs = [[x // content for x in v] for v in vecs]
    return content, den, vecs


def _rotated(ctx, vecs, rotations) -> list:
    """vecs_n times zeta^rotations[n], as integer numerators.  zeta is a
    unit of Z[zeta], so the rotation keeps the content and the
    denominator: it moves each numerator x_i zeta^i to x_i zeta^(i + r),
    one power sum of integers."""
    return [ctx.power_sum(v, 1, r) if r else v
            for v, r in zip(vecs, rotations)]


# the most bits of one column of a packed map
_MAP_COLUMN_BITS = 8192


class _TermTable:
    """The sparse terms of a matrix over one denominator, for ``_messages``
    (built by :func:`_sparse_columns`), and the leaf elimination's state
    over that matrix.

    ``columns[j]`` lists the (s, places) of column j: ``places`` are the
    positions i * deg + t of the terms s x^t of the numerators D *
    matrix[i][j], D = ``den``.  ``term_bound`` bounds sum_t |s_t| over an
    entry (its most terms times the largest |s|).  ``maps`` keeps the
    packed maps (:func:`_packed_map`) by (targets, width), and ``served``
    counts the steps each such key has taken on the sparse terms before
    its map.  ``ring`` is the matrix's ring; ``weights`` keeps the vertex
    specs (:func:`_vertex_specs`) by (labels, e, f mod M) and ``leaves``
    the messages of leaves by (spec key, parent labels) (:func:`_eliminate`).
    """

    __slots__ = ("ring", "columns", "den", "rows", "term_bound", "served",
                 "maps", "weights", "leaves", "__weakref__")

    def __init__(self, ring, columns, den, rows, term_bound):
        self.ring = ring
        self.columns = columns
        self.den = den
        self.rows = rows
        self.term_bound = term_bound
        self.served, self.maps, self.weights, self.leaves = {}, {}, {}, {}


def _messages(ctx, vecs, labels, rotations, targets, matrix_terms) -> list:
    """The message sum_i vecs_i * zeta^rotations_i * D * matrix[i][j] to
    each target label j, over the content-free vectors ``vecs`` of the
    vertex's ``labels`` (each rotation in [0, M)), as its integer
    numerators reduced modulo Phi_M, with D the matrix denominator of
    ``_sparse_columns``.

    A rotation by zeta^r multiplies max|x| by at most G, the ring's
    ``rotation_spread``, so no coefficient of a message before reduction
    exceeds bound = G * (labels) * term_bound * max|vecs|, whatever the
    rotations.  A step goes through the packed map of its targets
    (``_map_messages``, which reads each rotation as a column offset) when
    the smallest word width w with bound < 2^(w-1) is at most 64 bits,
    when a column of the map takes at most ``_MAP_COLUMN_BITS`` bits, and
    when that (targets, w) has already served deg steps on the sparse
    terms: a map costs about as much to build as that many steps, so data
    that sees few steps never builds one.  Every other step rotates the
    vectors (``_rotated``) and sums them over the sparse terms
    (``_sparse_messages``)."""
    deg = ctx.degree
    largest = max(max(map(max, vecs)), -min(map(min, vecs)))
    bound = ctx.rotation_spread * len(vecs) * matrix_terms.term_bound \
        * largest
    width = _fit(bound, 64)
    if width in _WORDS and len(targets) * deg * width <= _MAP_COLUMN_BITS:
        key = targets, width
        packed = matrix_terms.maps.get(key)
        if packed is None:
            served = matrix_terms.served.get(key, 0)
            if served < deg:
                matrix_terms.served[key] = served + 1
            else:
                packed = matrix_terms.maps[key] = _packed_map(
                    ctx, matrix_terms, targets, width)
        if packed is not None:
            return _map_messages(packed, vecs, labels, rotations, deg)
    return _sparse_messages(ctx, _rotated(ctx, vecs, rotations), labels,
                            targets, matrix_terms, bound)


def _sparse_messages(ctx, vecs, labels, targets, matrix_terms,
                     bound: int) -> list:
    """The message sum_i vecs_i * D * matrix[i][j] to each target label j,
    as in ``_messages`` with no rotation, summed over the sparse terms, for
    ``bound`` at least (labels) * term_bound * max|vecs|.

    Each nonzero term s x^t of D * matrix[i][j] adds s times vecs_i packed
    and shifted by t fields.  A coefficient of the message before reduction
    is at most ``bound`` in absolute value, so the field width is its bit
    length plus a sign bit; each message is unpacked and reduced modulo
    Phi_M (``scalars._unpack``)."""
    deg = ctx.degree
    width = bound.bit_length() + 1
    shifts = range(0, deg * width, width)
    # shifted[i * deg + t] = packed vecs_i << t * width; rows without a
    # label stay 0
    shifted = [0] * (matrix_terms.rows * deg)
    for i, v in zip(labels, vecs):
        p = _pack(v, width)
        shifted[i * deg:(i + 1) * deg] = [p << t for t in shifts]
    get = shifted.__getitem__
    messages = []
    for j in targets:
        acc = 0
        for s, places in matrix_terms.columns[j]:
            acc += s * sum(map(get, places))
        messages.append(_unpack(ctx, acc, 2 * deg - 1, width))
    return messages


def _packed_map(ctx, matrix_terms, targets, width: int) -> tuple:
    """The matrix restricted to the columns ``targets`` as, for each row i,
    one packed integer per power m < M of zeta: the power-basis numerators
    of zeta^m * D * matrix[i][j] reduced modulo Phi_M, in signed fields of
    ``width`` bits, field u of target number n at bit (n * deg + u) *
    width.  Each row's list ends with its first deg - 1 integers again, so
    that the slice [r, r + deg) holds the columns zeta^(k + r) for k < deg
    for every rotation r < M.

    Returns (rows, word format) for ``_map_messages``, the word format of
    a sum of columns (``scalars._word_format``).  The coefficients of x^t
    in the entries (i, j) of every target j pack into one multiplier c_it,
    one block of deg fields per target, so that zeta^k x^t = zeta^(k + t)
    makes column (i, k), k < deg, the sum over t of c_it times
    [zeta^(k + t)], the reduced power packed into one block."""
    deg, M = ctx.degree, ctx.M
    block = deg * width
    # coeffs[i * deg + t]: the coefficient s of x^t of every target's
    # entry, in its target's block of fields
    coeffs = [0] * (matrix_terms.rows * deg)
    for shift, j in zip(range(0, len(targets) * block, block), targets):
        for s, places in matrix_terms.columns[j]:
            s <<= shift
            for p in places:
                coeffs[p] += s
    powers = [_pack(ctx.power_sum((1,), 1, m), width)
              for m in range(2 * deg - 1)]
    # zeta^m = sum_u [zeta^m]_u zeta^u makes column (i, m) for m >= deg
    # the same combination of the columns (i, u), u < deg
    higher = [[(u, c) for u, c in enumerate(ctx.power_sum((1,), 1, m)) if c]
              for m in range(deg, M)]
    rows = []
    for base in range(0, len(coeffs), deg):
        row = coeffs[base:base + deg]
        columns = [sum(map(mul, row, powers[k:k + deg])) for k in range(deg)]
        columns += [sum([c * columns[u] for u, c in terms])
                    for terms in higher]
        rows.append(columns + columns[:deg - 1])
    return rows, _word_format(len(targets) * deg, width)


def _map_messages(packed, vecs, labels, rotations, deg: int) -> list:
    """``_messages`` through a packed map (``_packed_map``), exact when no
    field of the sum leaves its signed width.

    Label i with rotation r reads the deg columns [r, r + deg) of its row,
    and the sum of the columns read times the vectors carries every
    message, already reduced, so one word read (``scalars._words``) gives
    every numerator."""
    rows, word_format = packed
    picked = []
    for i, r in zip(labels, rotations):
        picked += rows[i][r:r + deg]
    # the sum starts at the field bias, as _words reads it
    words = _words(sum(map(mul, itertools.chain.from_iterable(vecs), picked),
                       word_format[0]), word_format)
    return list(zip(*[iter(words)] * deg))


def _sparse_columns(matrix, ctx) -> _TermTable:
    """The nonzero terms s x^t of ``matrix`` column by column, over one
    denominator D, the lcm of the denominators of all entries, as a
    :class:`_TermTable` with no packed maps, weights or leaf messages yet."""
    deg = ctx.degree
    rows = len(matrix)
    vecs, den = _common_den([x for column in zip(*matrix) for x in column])
    most_terms = max_coeff = 0
    columns = []
    # vecs is column-major: each run of ``rows`` vectors is one column
    for column in zip(*[iter(vecs)] * rows):
        by_coeff = {}
        for base, nums in zip(range(0, rows * deg, deg), column):
            terms = 0
            for t, s in enumerate(nums):
                if s:
                    terms += 1
                    by_coeff.setdefault(s, []).append(base + t)
            most_terms = max(most_terms, terms)
        max_coeff = max(max_coeff, *map(abs, by_coeff), 0)
        columns.append(list(by_coeff.items()))
    return _TermTable(ctx, columns, den, rows, most_terms * max_coeff)


def colored_bracket_direct(g: PlumbingGraph, data: ModularData,
                           degree_filter=None) -> CycScalar:
    """Cross-check oracle: explicit sum over all colorings of the surgery
    vertices.  Exponential in the vertex count; intended for small graphs."""
    ctx = data.ctx
    cands = {vid: list(_spec_weights(spec, ctx).items()) for vid, spec in
             _vertex_specs(g, data, {}, degree_filter).items()}
    order = [v.id for v in g.vertices]
    total = ctx.zero()
    for choice in itertools.product(*(cands[vid] for vid in order)):
        coloring = {vid: pair for vid, pair in zip(order, choice)}
        term = ctx.one()
        for (_, w) in choice:
            term = term * w
        for (u, w_) in g.edges:
            term = term * data.s_matrix[coloring[u][0]][coloring[w_][0]]
        total = total + term
    return total


# ---------------------------------------------------------------------------
# the invariant
# ---------------------------------------------------------------------------

def _normalized(bracket: CycScalar, sigma: int, m: int,
                data: ModularData) -> ExtScalar:
    """(eta Delta_+)^(-sigma) eta^m times a bracket over m surgery vertices.

    With eta^2 = Omega^-1 and m - sigma = 2 half + rem, that is
    Delta_+^-sigma Omega^-half eta^rem: the factor Delta_+^-sigma
    Omega^-half is ``data.normalization(sigma, half)``, so a call makes one
    product, and the eta power handed on is already in {0, 1}.
    """
    half, rem = divmod(m - sigma, 2)
    if sigma or half:
        bracket = bracket * data.normalization(sigma, half)
    return ExtScalar(bracket, rem, data.theory, data.omega)


@dataclass
class SurgeryInvariantResult:
    value: ExtScalar
    theory: str
    signature: int
    surgery_vertices: int
    bracket: CycScalar


def tau(g: PlumbingGraph, data: ModularData) -> SurgeryInvariantResult:
    """Normalized invariant (eta Delta_+)^(-sigma) eta^m <L(Omega, ..)>.

    For the degree-zero sub-theory at a spin rank-level Delta_+ vanishes and
    no normalization exists, so that request is an error.
    """
    if data.theory == "psu" and data.spin_case:
        raise ScalarError(
            "the degree-zero invariant is undefined at a spin rank-level: "
            "Delta_+ vanishes, so the signature normalization does not exist")
    m, sigma = _signature(g)
    bracket = colored_bracket(g, data)
    return SurgeryInvariantResult(_normalized(bracket, sigma, m, data),
                                  data.theory, sigma, m, bracket)
