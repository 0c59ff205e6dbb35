import functools
import gc
import itertools
import random
import weakref
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckemod.diagrams import ReducedLabel, YoungDiagram
from heckemod.moddata import build_modular_data
from heckemod import surgery
from heckemod.refine import characteristic_solutions, refined_tau
from heckemod.scalars import _WORDS, CycScalar, ScalarError
from heckemod.surgery import (
    PlumbingGraph,
    PlumbingVertex,
    _eliminate,
    _map_messages,
    _messages,
    _packed_map,
    _signature,
    _sparse_columns,
    _sparse_messages,
    _spec_weights,
    _vertex_specs,
    chain,
    colored_bracket,
    colored_bracket_direct,
    disjoint_union,
    empty_graph,
    linking_data,
    parse_plumbing,
    plumbing_to_json,
    random_forest,
    resolve_color,
    single_vertex,
    tau,
)


@pytest.fixture(scope="module")
def su22():
    return build_modular_data(2, 2, "su")


@pytest.fixture(scope="module")
def su33():
    return build_modular_data(3, 3, "su")


@pytest.fixture(scope="module")
def red22():
    return build_modular_data(2, 2, "reduced")


@pytest.fixture(scope="module")
def red33():
    return build_modular_data(3, 3, "reduced")


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_parse_round_trip():
    doc = {"vertices": [{"id": "v1", "framing": -2},
                        {"id": "w", "framing": 0, "link": {"lambda": [1]}}],
           "edges": [["v1", "w"]]}
    g = parse_plumbing(doc)
    assert [v.id for v in g.vertices] == ["v1", "w"]
    assert g.vertices[1].is_link
    assert plumbing_to_json(g) == doc


def test_parse_single_vertex():
    g = parse_plumbing({"vertices": [{"id": "a", "framing": 3}], "edges": []})
    assert len(g.surgery_vertices) == 1


def test_parse_rejects_cycle():
    doc = {"vertices": [{"id": x, "framing": 0} for x in "abc"],
           "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}
    with pytest.raises(ScalarError, match="forest"):
        parse_plumbing(doc)


def test_parse_rejects_repeated_edge():
    doc = {"vertices": [{"id": x, "framing": 0} for x in "ab"],
           "edges": [["a", "b"], ["a", "b"]]}
    with pytest.raises(ScalarError, match="forest"):
        parse_plumbing(doc)


def test_parse_rejects_self_loop():
    doc = {"vertices": [{"id": "a", "framing": 0}], "edges": [["a", "a"]]}
    with pytest.raises(ScalarError, match="forest"):
        parse_plumbing(doc)


def test_parse_rejects_duplicate_id():
    doc = {"vertices": [{"id": "a", "framing": 0}, {"id": "a", "framing": 1}],
           "edges": []}
    with pytest.raises(ScalarError, match="duplicate"):
        parse_plumbing(doc)


def test_parse_rejects_unknown_endpoint():
    doc = {"vertices": [{"id": "a", "framing": 0}], "edges": [["a", "b"]]}
    with pytest.raises(ScalarError, match="endpoint"):
        parse_plumbing(doc)


def test_unknown_color_is_named(su22):
    g = parse_plumbing({"vertices": [{"id": "a", "framing": 0,
                                      "link": {"lambda": [5]}}],
                        "edges": []})
    with pytest.raises(ScalarError, match=r"\[5\]"):
        colored_bracket(g, su22)


def test_empty_link_color_is_a_link_vertex(su33):
    # an empty colour object is the trivial colour, not a missing one
    graphs = [parse_plumbing({
        "vertices": [{"id": "a", "framing": -1},
                     {"id": "w", "framing": 2, "link": color}],
        "edges": [["a", "w"]]}) for color in ({}, {"lambda": []})]
    assert all(g.vertices[1].is_link for g in graphs)
    assert all(len(g.surgery_vertices) == 1 for g in graphs)
    assert colored_bracket(graphs[0], su33) == colored_bracket(graphs[1], su33)


def _one_link(color):
    return parse_plumbing({
        "vertices": [{"id": "a", "framing": -2},
                     {"id": "w", "framing": 1, "link": color}],
        "edges": [["a", "w"]]})


@pytest.mark.parametrize("NK", [(2, 3), (3, 3)])
def test_reduced_color_without_i_is_i_zero(NK):
    # a missing i is 0: (0, lambda) is a reduced label
    data = build_modular_data(*NK, "reduced")
    for lam in ([], [1]):
        label = ReducedLabel(0, YoungDiagram(tuple(lam)))
        assert resolve_color(data, {"lambda": lam}) == data.index(label)
        assert colored_bracket(_one_link({"lambda": lam}), data) == \
            colored_bracket(_one_link({"i": 0, "lambda": lam}), data)


@pytest.mark.parametrize("theory", ["su", "psu"])
def test_diagram_color_accepts_i_zero_only(theory):
    data = build_modular_data(2, 3, theory)
    assert colored_bracket(_one_link({"i": 0, "lambda": [2]}), data) == \
        colored_bracket(_one_link({"lambda": [2]}), data)
    with pytest.raises(ScalarError, match="unknown color label"):
        colored_bracket(_one_link({"i": 1, "lambda": [2]}), data)


# ---------------------------------------------------------------------------
# linking matrix and signature
# ---------------------------------------------------------------------------

def test_linking_data_examples():
    assert linking_data(single_vertex(3)) == ([[3]], 1)
    assert linking_data(single_vertex(0)) == ([[0]], 0)
    B, sig = linking_data(chain([-2, -2]))
    assert B == [[-2, 1], [1, -2]]
    assert sig == -2
    assert linking_data(chain([0, 0]))[1] == 0  # hyperbolic pair


def test_link_vertices_excluded_from_linking():
    g = PlumbingGraph(
        [PlumbingVertex("a", -2), PlumbingVertex("w", 0, {"lambda": [1]})],
        [("a", "w")])
    assert linking_data(g) == ([[-2]], -1)


def eigenvalue_signature(B) -> int:
    """Float oracle: the eigenvalue signs of the symmetric matrix B.  A
    nonzero eigenvalue of an integer forest matrix this small exceeds 1e-9
    in size, far above the error at 40 digits."""
    if not B:
        return 0
    with mpmath.workdps(40):
        ev = mpmath.mp.eigsy(mpmath.matrix(B), eigvals_only=True)
        return sum((x > 1e-20) - (x < -1e-20) for x in ev)


def signature_test_forest(rng):
    """1..9 vertices in shuffled order, about 15 % of them link vertices and
    a quarter of the framings zero, each vertex after the first joined to an
    earlier one with probability 0.7 (so often several trees), edges
    shuffled and oriented at random."""
    n = rng.randint(1, 9)
    verts = [PlumbingVertex(f"v{i}",
                            0 if rng.random() < 0.25 else rng.randint(-3, 3),
                            {"lambda": [1]} if rng.random() < 0.15 else None)
             for i in range(n)]
    edges = [(f"v{rng.randrange(i)}", f"v{i}")
             for i in range(1, n) if rng.random() < 0.7]
    edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
    rng.shuffle(verts)
    rng.shuffle(edges)
    return PlumbingGraph(verts, edges)


def test_signature_random_against_float():
    rng = random.Random(11)
    for _ in range(2000):
        g = signature_test_forest(rng)
        B, sigma = linking_data(g)
        assert sigma == eigenvalue_signature(B)
        # the walk alone, without the dense matrix
        assert _signature(g) == (len(B), sigma)


def fraction_signature(g) -> tuple[int, int]:
    """Oracle: the leaf elimination of ``_signature`` on Fractions."""
    value = {v.id: Fraction(v.framing) for v in g.vertices if not v.is_link}
    m = len(value)
    sigma = 0
    for vid, parent in reversed(g.preorder):
        x = value.pop(vid, None)
        if x is None:
            continue
        if x:
            sigma += 1 if x > 0 else -1
            if parent in value:
                value[parent] -= 1 / x
        elif parent in value:
            del value[parent]
    return m, sigma


@st.composite
def signature_forests(draw):
    """Random forests of up to 14 vertices, some of them link vertices and
    about a third of the surgery framings zero, so hyperbolic pairs cut
    the forest."""
    framings, parents, links = draw(forest_shapes(max_vertices=14))
    zeros = draw(st.lists(st.integers(0, 2), min_size=len(framings),
                          max_size=len(framings)))
    framings = [0 if z == 0 else f for f, z in zip(framings, zeros)]
    return shape_graph((framings, parents, links), [{"lambda": [1]}])


@settings(max_examples=300, deadline=None)
@given(signature_forests())
def test_integer_signature_matches_fraction_walk(g):
    assert _signature(g) == fraction_signature(g)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([0.0, 0.1, 0.3]))
def test_integer_signature_on_long_chains(seed, zero_share):
    rng = random.Random(seed)
    g = chain([0 if rng.random() < zero_share else rng.randint(-3, 3)
               for _ in range(1000)])
    assert _signature(g) == fraction_signature(g)


def test_signature_long_chain():
    # the chain of n (-2)s is the negative definite A_n form; a 0-framed
    # end splits off a hyperbolic pair with its neighbour, leaving A_(n-1)
    n = 1200
    assert linking_data(chain([-2] * n))[1] == -n
    assert linking_data(chain([-2] * n + [0]))[1] == -(n - 1)


# ---------------------------------------------------------------------------
# colored bracket
# ---------------------------------------------------------------------------

def test_bracket_basics(su22):
    ctx = su22.ctx
    assert colored_bracket(empty_graph(), su22) == ctx.one()
    assert colored_bracket(single_vertex(0), su22) == su22.omega
    assert colored_bracket(single_vertex(1), su22) == su22.delta_plus
    assert colored_bracket(single_vertex(-1), su22) == su22.delta_minus


def test_bracket_encircled_meridian_vanishes(su22):
    # a 0-framed surgery circle around a single colored strand kills every
    # nontrivial color
    for rows, expect_zero in [([1], True), ([2], True), ([], False)]:
        g = PlumbingGraph(
            [PlumbingVertex("c", 0),
             PlumbingVertex("w", 0, {"lambda": rows})],
            [("c", "w")])
        assert colored_bracket(g, su22).is_zero() == expect_zero


def test_bracket_matches_direct_oracle(su22, red33):
    rng = random.Random(23)
    for data, colors in [(su22, [{"lambda": [1]}, {"lambda": [2]}]),
                         (red33, [{"i": 1, "lambda": []}])]:
        for _ in range(8):
            g = random_forest(rng, link_colors=colors)
            assert colored_bracket(g, data) == colored_bracket_direct(g, data)


def test_filtered_bracket_matches_direct_oracle(red22):
    rng = random.Random(29)
    d = red22.grading_modulus
    for _ in range(6):
        g = random_forest(rng, max_vertices=3)
        filt = {v.id: rng.randrange(d) for v in g.surgery_vertices}
        assert colored_bracket(g, red22, filt) == \
            colored_bracket_direct(g, red22, filt)


@pytest.mark.parametrize("graph", [chain([-2, -2]), chain([0, 0]),
                                   single_vertex(1)])
def test_filter_completeness(red22, red33, graph):
    for data in (red22, red33):
        d = data.grading_modulus
        ids = [v.id for v in graph.surgery_vertices]
        total = data.ctx.zero()
        for residues in itertools.product(range(d), repeat=len(ids)):
            filt = dict(zip(ids, residues))
            total = total + colored_bracket(graph, data, filt)
        assert total == colored_bracket(graph, data)


def test_filter_validation(red22):
    with pytest.raises(ScalarError, match="residue"):
        colored_bracket(single_vertex(0), red22, {"v0": 5})
    with pytest.raises(ScalarError, match="non-surgery"):
        colored_bracket(single_vertex(0), red22, {"nope": 0})


# ---------------------------------------------------------------------------
# the packed leaf elimination against the plain one
# ---------------------------------------------------------------------------

def eliminate_plain(g, weights, matrix, ctx):
    """Oracle: the leaf elimination with every message to a parent label j,
    sum_i w_i * matrix[i][j], summed as plain scalar products."""
    total = ctx.one()
    for vid, parent in reversed(g.preorder):
        own = weights.pop(vid)
        if parent is None:
            tree_sum = ctx.zero()
            for w in own.values():
                tree_sum = tree_sum + w
            total = total * tree_sum
            continue
        up = weights[parent]
        for j in up:
            acc = ctx.zero()
            for i, w in own.items():
                acc = acc + w * matrix[i][j]
            up[j] = up[j] * acc
    return total


def s_terms(data):
    """The term table of S kept on ``data``, built as colored_bracket
    builds it, so every caller shares its packed maps, weights and leaf
    messages."""
    if data._s_terms is None:
        data._s_terms = _sparse_columns(data.s_matrix, data.ctx)
    return data._s_terms


def data_specs(g, data, degree_filter=None):
    """The vertex specs of g as colored_bracket reads them, from the
    weights of the data's term table."""
    return _vertex_specs(g, data, s_terms(data).weights, degree_filter)


def both_eliminations(g, specs, matrix, ctx, terms=None):
    """(packed, plain) values of the same vertex specs.  The packed one runs
    twice on one table of leaf messages, which must agree; a fresh table is
    cold on the first run.  ``terms`` is the term table of ``matrix``
    (``s_terms`` of the data whose S it is, so its packed maps and leaf
    messages are warm across examples), or None for a fresh one."""
    if terms is None:
        terms = _sparse_columns(matrix, ctx)
    packed = _eliminate(g, specs, terms)
    assert _eliminate(g, specs, terms) == packed
    weights = {vid: _spec_weights(spec, ctx) for vid, spec in specs.items()}
    return packed, eliminate_plain(g, weights, matrix, ctx)


@st.composite
def forest_shapes(draw, max_vertices=8, period=0):
    """(framings, parents, link flags) of a random forest: parent None
    starts a new tree, vertex 0 always does.  A framing is r + q * period
    with r in [-3, 3] and q in [-2, 2], so with period M framings that
    agree mod M recur with |f| >= M and negative."""
    n = draw(st.integers(1, max_vertices))
    parents = [None] + [draw(st.one_of(st.none(), st.integers(0, i - 1)))
                        for i in range(1, n)]
    framings = [r + q * period for r, q in draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
        min_size=n, max_size=n))]
    links = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return framings, parents, links


def shape_graph(shape, link_colors):
    framings, parents, links = shape
    verts = [PlumbingVertex(f"v{i}", f, link_colors[i % len(link_colors)]
                            if link and link_colors else None)
             for i, (f, link) in enumerate(zip(framings, links))]
    edges = [(f"v{p}", f"v{i}") for i, p in enumerate(parents)
             if p is not None]
    return PlumbingGraph(verts, edges)


@functools.lru_cache(maxsize=None)
def modular(N, K, theory):
    return build_modular_data(N, K, theory)


@pytest.mark.parametrize("NK,theory,colors", [
    ((3, 3), "su", [{"lambda": [1]}, {"lambda": [2, 1]}]),
    ((3, 3), "reduced", [{"i": 1}, {"i": 0, "lambda": [1]}]),
    ((2, 6), "reduced", [{"i": 0, "lambda": [3]}])])
def test_packed_bracket_matches_plain_messages(NK, theory, colors):
    # the data is shared by every example, so its leaf messages are warm
    # from the second example on
    data = modular(*NK, theory)
    d = data.grading_modulus

    @settings(max_examples=40, deadline=None)
    @given(forest_shapes(period=data.ctx.M),
           st.lists(st.integers(0, d - 1), max_size=8), st.booleans())
    def check(shape, residues, filtered):
        g = shape_graph(shape, colors)
        filt = {v.id: r for v, r in zip(g.surgery_vertices, residues)} \
            if filtered and theory == "reduced" else None
        packed, plain = both_eliminations(
            g, data_specs(g, data, filt), data.s_matrix, data.ctx,
            s_terms(data))
        assert packed == plain
        assert packed == colored_bracket(g, data, filt)

    check()


def star(center, arms):
    """A vertex "c" of framing ``center`` joined to one vertex per entry of
    ``arms``, an (id, framing, color) triple."""
    return PlumbingGraph(
        [PlumbingVertex("c", center)]
        + [PlumbingVertex(vid, f, color) for vid, f, color in arms],
        [("c", vid) for vid, _, _ in arms])


LINK = {"lambda": [1]}
SHAPES = {
    # link vertices of degree 0, 1 and 2, and one of degree 3
    "isolated link": PlumbingGraph(
        [PlumbingVertex("a", -2), PlumbingVertex("w", 1, LINK)], []),
    "leaf link": PlumbingGraph(
        [PlumbingVertex("a", -2), PlumbingVertex("w", 1, LINK)],
        [("a", "w")]),
    "link inside a chain": PlumbingGraph(
        [PlumbingVertex("a", 2), PlumbingVertex("w", -1, LINK),
         PlumbingVertex("b", 3)], [("a", "w"), ("w", "b")]),
    "link root of a star": PlumbingGraph(
        [PlumbingVertex("w", 2, LINK)]
        + [PlumbingVertex(f"x{i}", f) for i, f in enumerate([-1, 0, 2])],
        [("w", f"x{i}") for i in range(3)]),
    # surgery vertices with three and four children, leaves that share a
    # framing mod M, and a link leaf under a branch point
    "three children": star(-1, [("x", 2, None), ("y", 2, None),
                                ("z", -3, None)]),
    "four children": star(2, [("x", -2, None), ("y", 1, LINK),
                              ("z", -2, None), ("t", 0, None)]),
    "branch below the root": PlumbingGraph(
        [PlumbingVertex(vid, f) for vid, f in
         [("a", 1), ("c", 3), ("x", -1), ("y", -1), ("z", 2)]],
        [("a", "c"), ("c", "x"), ("c", "y"), ("c", "z")]),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("NK,theory", [((2, 2), "su"), ((2, 4), "reduced")])
def test_bracket_on_link_degrees_and_branch_points(shape, NK, theory):
    data = modular(*NK, theory)
    g = SHAPES[shape]
    if theory == "reduced":  # the reduced labels name the link color
        g = PlumbingGraph([PlumbingVertex(v.id, v.framing,
                                          {"i": 0, "lambda": [1]})
                           if v.is_link else v for v in g.vertices], g.edges)
    M = data.ctx.M
    shifted = PlumbingGraph(  # the same framings mod M
        [PlumbingVertex(v.id, v.framing + (-1) ** k * (k + 1) * M, v.color)
         for k, v in enumerate(g.vertices)], g.edges)
    expected = colored_bracket_direct(g, data)
    for h in (g, shifted):
        packed, plain = both_eliminations(
            h, data_specs(h, data), data.s_matrix, data.ctx,
            s_terms(data))
        assert packed == plain == expected
        assert colored_bracket(h, data) == expected


def random_scalar(rng, ctx, zero_share=0.2):
    """A scalar with mixed-sign Fraction coefficients over several
    denominators, or zero."""
    if rng.random() < zero_share:
        return ctx.zero()
    return ctx.from_coeffs([Fraction(rng.randint(-40, 40) * rng.choice(
        [1, 1, 6, 2 ** 40]), rng.choice([1, 2, 3, 5, 12, 7 ** 9]))
        if rng.random() < 0.6 else 0 for _ in range(ctx.degree)])


@settings(max_examples=60, deadline=None)
@given(forest_shapes(), st.integers(0, 2 ** 32), st.sampled_from(
    ["varied", "all-zero vertex", "empty vertex", "common content"]))
def test_packed_elimination_matches_plain_on_synthetic_matrix(
        shape, seed, case):
    # denominators != 1 and mixed signs in both the matrix and the factors,
    # rotations, a vertex whose weights are all zero or that has no labels
    # at all, and factors sharing a large rational content; the vertices
    # draw their specs from a small pool, so leaves repeat a key
    ctx = modular(2, 2, "su").ctx
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    matrix = [[random_scalar(rng, ctx) for _ in range(n)] for _ in range(n)]
    g = shape_graph(shape, None)
    content = ctx.from_rational(Fraction(rng.randint(1, 2 ** 60),
                                         rng.randint(1, 2 ** 30)))

    def spec(key):
        labels = tuple(rng.sample(range(n), rng.randint(1, n)))
        factors = None
        if case == "common content" or rng.random() < 0.7:
            factors = tuple(random_scalar(rng, ctx, 0.1) for _ in labels)
        if case == "common content":
            factors = tuple(w * content for w in factors)
        rotations = tuple(rng.randrange(ctx.M) if rng.random() < 0.5 else 0
                          for _ in labels)
        return key, labels, factors, rotations

    pool = [spec(k) for k in range(rng.randint(1, 3))]
    specs = {v.id: rng.choice(pool) for v in g.vertices}
    victim = g.vertices[rng.randrange(len(g.vertices))].id
    if case == "all-zero vertex":
        _, labels, _, rotations = specs[victim]
        specs[victim] = ("zero", labels, (ctx.zero(),) * len(labels),
                         rotations)
    elif case == "empty vertex":
        specs[victim] = ("empty", (), None, ())
    packed, plain = both_eliminations(g, specs, matrix, ctx)
    assert packed == plain
    if case in ("all-zero vertex", "empty vertex"):
        assert packed.is_zero()


@pytest.mark.parametrize("NK,terms", [((2, 2), 1), ((2, 2), 3),
                                      ((3, 3), 5), ((2, 6), 11)])
@pytest.mark.parametrize("coeff", [1, 3, -2])
def test_packed_elimination_at_the_width_bound(NK, terms, coeff):
    # every entry is coeff * (1 + x + ... + x^(terms-1)) and every content-
    # free weight (3, ..., 3, 2), so a coefficient of each unreduced message
    # of a leaf is (labels) * terms * 3 * |coeff| in absolute value: exactly
    # the bound the packing width is taken from
    ctx = modular(*NK, "su").ctx
    deg = ctx.degree
    assert terms < deg
    n = 3
    entry = ctx.from_coeffs([coeff] * terms)
    matrix = [[entry] * n for _ in range(n)]
    weight = ctx.from_coeffs([3] * (deg - 1) + [2])
    spec = ("w", tuple(range(n)), (weight,) * n, (0,) * n)
    for g in (chain([0, 0, 0]), PlumbingGraph(
            [PlumbingVertex(f"v{i}", 0) for i in range(4)],
            [("v0", "v1"), ("v0", "v2"), ("v0", "v3")])):
        packed, plain = both_eliminations(
            g, {v.id: spec for v in g.vertices}, matrix, ctx)
        assert packed == plain


def seeded_chain(length, seed):
    rng = random.Random(seed)
    return chain([rng.randint(-3, 3) for _ in range(length)])


LONG_CHAINS = [((3, 3), "su"), ((2, 6), "reduced"),
               # rank-levels where the packing width grows along a chain
               ((2, 6), "su"), ((2, 3), "su"), ((2, 3), "reduced")]


@pytest.mark.parametrize("NK,theory,length", [
    pytest.param(NK, theory, length, id=f"{length}-NK{k}-{theory}")
    for length in (300, 1000) for k, (NK, theory) in enumerate(LONG_CHAINS)]
    # 20 labels at field degree 24: 16-bit fields over every label take
    # 7680 bits, inside the column budget, but this chain's numerators
    # outgrow 16 bits within deg steps, so it builds no map
    + [pytest.param((4, 3), "su", 120, id="120-NK5-su")])
def test_long_chain_matches_plain_messages(NK, theory, length):
    data = modular(*NK, theory)
    g = seeded_chain(length, 2026)
    packed, plain = both_eliminations(g, data_specs(g, data),
                                      data.s_matrix, data.ctx, s_terms(data))
    assert packed == plain == colored_bracket(g, data)
    assert not packed.is_zero()


def assert_maps_held_by_their_table(table):
    """Each packed map is held by the table's dict of maps alone, and that
    dict by the table alone, so the maps go with the table."""
    assert table.maps
    assert gc.get_referrers(table.maps) == [table]
    for packed in table.maps.values():
        assert gc.get_referrers(packed) == [table.maps]


def test_weight_table_dies_with_its_data():
    # the weights are filled on the term table of S; the long chain makes
    # the table build a packed map, which goes with the data like the
    # weights
    data = build_modular_data(2, 3, "su")
    tau(chain([-2, 3, 1]), data)
    tau(seeded_chain(120, 7), data)
    table = data._s_terms
    assert table.weights
    assert all(f.ring is data.ctx for spec in table.weights.values()
               for f in spec[2] or ())
    assert_maps_held_by_their_table(table)
    ref, table = weakref.ref(data.ctx), weakref.ref(table)
    del data
    gc.collect()
    assert ref() is None and table() is None


def test_leaf_messages_live_on_their_data():
    # the leaf messages and the packed maps (the long chain builds some)
    # are filled on the term table of the data and nowhere else: the module
    # namespace is unchanged, a warm table gives the bracket of a cold one
    # and of fresh data, the messages are integer numerator tuples that
    # hold no ring, and the ring and the table go with the data
    names = {name: id(x) for name, x in vars(surgery).items()}
    data = build_modular_data(2, 3, "su")
    g = disjoint_union(chain([-2, 3, 1, 5]), star(2, [
        ("x", -1, None), ("y", -1 + data.ctx.M, None), ("z", 2, LINK)]))
    g = disjoint_union(g, seeded_chain(120, 11))
    cold = colored_bracket(g, data)
    table = data._s_terms
    assert table.leaves
    assert_maps_held_by_their_table(table)
    deg = data.ctx.degree
    assert all(type(x) is tuple and len(x) == deg
               and all(type(c) is int for c in x)
               for _, _, messages in table.leaves.values()
               for x in messages)
    assert colored_bracket(g, data) == cold
    assert colored_bracket(g, build_modular_data(2, 3, "su")) == cold
    assert {name: id(x) for name, x in vars(surgery).items()} == names
    ref, table = weakref.ref(data.ctx), weakref.ref(table)
    del data, cold
    gc.collect()
    assert ref() is None and table() is None


def test_s_term_table_dies_with_its_data():
    data = build_modular_data(2, 3, "su")
    g = chain([-2, 3, 1])
    colored_bracket(g, data)
    table = data._s_terms
    colored_bracket(g, data)
    assert data._s_terms is table  # built once per data
    del table
    # the data (or its attribute dict) is the table's one holder, and
    # nothing holds the data
    (holder,) = gc.get_referrers(data._s_terms)
    assert holder is data or holder is vars(data)
    del holder
    ref = weakref.ref(data)
    del data
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# the packed map of a message step against its sparse terms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("NK,theory", [
    ((3, 3), "su"), ((4, 2), "su"), ((2, 6), "reduced"), ((3, 3), "reduced"),
    ((2, 3), "su"), ((2, 6), "su")])
def test_packed_map_matches_sparse_messages(NK, theory):
    # the same content-free vectors and rotations through both kernels, on
    # residue-filtered label and target sets: the map reads each rotation
    # as a column offset, the sparse kernel sums the rotated vectors.  The
    # rotations 0, deg - 1, deg and M - 1 are in every example with four
    # labels or more, so the aliased tail of a row is read; operands sit at
    # the edge of each word width (the largest max|x| that the G bound
    # admits) and just past 64 bits (the smallest max|x| it sends past),
    # where no map may serve
    data = modular(*NK, theory)
    ctx, deg, M = data.ctx, data.ctx.degree, data.ctx.M
    terms = _sparse_columns(data.s_matrix, ctx)
    residues = [None, *range(data.grading_modulus)]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(residues), st.sampled_from(residues),
           st.sampled_from(tuple(sorted(_WORDS)) + (None,)),
           st.permutations([0, deg - 1, deg, M - 1]), st.data())
    def check(source, target, width, specials, draw):
        labels = data.labels_by_residue[source]
        targets = data.labels_by_residue[target]
        scale = ctx.rotation_spread * terms.term_bound * len(labels)
        top = (1 << (width or 64) - 1) - 1
        edge = top // scale if width else top // scale + 1
        value = st.one_of(st.sampled_from([edge, -edge]),
                          st.integers(-edge, edge))
        vecs = draw.draw(st.lists(st.lists(value, min_size=deg,
                                           max_size=deg),
                                  min_size=len(labels),
                                  max_size=len(labels)))
        vecs[0][0] = edge  # max|x| is the edge itself
        rotations = draw.draw(st.lists(st.integers(0, M - 1),
                                       min_size=len(labels),
                                       max_size=len(labels)))
        rotations[:len(specials)] = specials[:len(labels)]
        rotated = [ctx.power_sum(v, 1, r) for v, r in zip(vecs, rotations)]
        largest = max(abs(x) for v in rotated for x in v)
        want = _sparse_messages(ctx, rotated, labels, targets, terms,
                                len(labels) * terms.term_bound * largest)
        assert all(type(x) is tuple and len(x) == deg for x in want)
        if width:
            got = _map_messages(_packed_map(ctx, terms, targets, width),
                                vecs, labels, rotations, deg)
            assert got == want
        # the selection serves the same tuples, whichever kernel it picks;
        # past 64 bits it neither counts the step nor builds a map
        before = dict(terms.served), dict(terms.maps)
        assert _messages(ctx, vecs, labels, rotations, targets, terms) \
            == want
        if not width:
            assert (terms.served, terms.maps) == before

    check()


def test_map_is_built_after_deg_sparse_steps():
    # the rotations make the sparse steps and the map disagree unless both
    # apply them alike
    data = build_modular_data(3, 3, "su")
    ctx, deg = data.ctx, data.ctx.degree
    terms = s_terms(data)
    labels = targets = data.labels_by_residue[None]
    vecs = [ctx.one().nums] * len(labels)
    rotations = tuple(range(len(labels)))
    want = _messages(ctx, vecs, labels, rotations, targets, terms)
    (key,) = terms.served
    assert key[0] == targets and not terms.maps
    for _ in range(deg - 1):
        assert _messages(ctx, vecs, labels, rotations, targets, terms) \
            == want
    assert terms.served[key] == deg and not terms.maps
    assert _messages(ctx, vecs, labels, rotations, targets, terms) == want
    assert list(terms.maps) == [key]


def test_long_chain_builds_a_packed_map():
    data = build_modular_data(3, 3, "su")
    colored_bracket(seeded_chain(120, 5), data)
    assert data._s_terms.maps


def test_su26_chain_builds_a_64_bit_map():
    # 7 labels at field degree 16: a 64-bit column over every label takes
    # 7168 bits, inside the column budget, and the chain's numerators grow
    # to need 64-bit fields
    data = build_modular_data(2, 6, "su")
    g = seeded_chain(120, 5)
    packed, plain = both_eliminations(g, data_specs(g, data),
                                      data.s_matrix, data.ctx, s_terms(data))
    assert (data.labels_by_residue[None], 64) in data._s_terms.maps
    assert packed == plain


def test_small_tree_on_fresh_data_builds_no_map():
    data = build_modular_data(3, 3, "su")
    colored_bracket(star(1, [("x", -2, None), ("y", 3, None)]), data)
    assert not data._s_terms.maps


def test_map_past_the_column_budget_is_never_built():
    # 35 labels at field degree 32: even 8-bit columns over every label
    # take 8960 bits
    data = build_modular_data(4, 4, "su")
    colored_bracket(seeded_chain(120, 5), data)
    assert not data._s_terms.maps and not data._s_terms.served


def test_normalization_factors_live_on_their_data(monkeypatch):
    # Delta_+^-sigma Omega^-half is kept on the data by (sigma, half): a warm
    # tau or ModularData.normalization raises nothing to a power, and the
    # value is the bracket times the two powers taken apart
    data = build_modular_data(3, 3, "su")
    rng = random.Random(41)
    graphs = [chain([-2, 3, 1, 5]), chain([1, 1, 1]), single_vertex(-4)]
    graphs += [random_forest(rng) for _ in range(6)]
    cold = [tau(g, data) for g in graphs]
    keys = set()
    for g, res in zip(graphs, cold):
        m = res.surgery_vertices
        sigma = res.signature
        assert (m, sigma) == _signature(g)
        half, rem = divmod(m - sigma, 2)
        if sigma or half:
            keys.add((sigma, half))
        want = res.bracket * data.delta_plus ** -sigma * data.omega ** -half
        assert (res.value.base, res.value.eta_pow) == (want, rem)
    assert set(data._normalizers) == keys and len(keys) > 1
    factors = {key: data.normalization(*key) for key in keys}

    def no_powers(self, n):
        raise AssertionError("a power was taken on a warm call")

    monkeypatch.setattr(CycScalar, "__pow__", no_powers)
    assert [tau(g, data).value for g in graphs] == [r.value for r in cold]
    assert {key: data.normalization(*key) for key in keys} == factors


def test_tau_builds_no_linking_matrix(monkeypatch, red22):
    # tau and refined_tau take (m, sigma) from the forest itself; the dense
    # matrix is for the command line, which prints it
    g = disjoint_union(chain([-2, 3, 1]), star(1, [("x", 2, None),
                                                  ("y", 0, None)]))
    structures = characteristic_solutions(
        linking_data(g)[0], red22.grading_modulus, "spin").solutions
    want = tau(g, red22).value

    def no_matrix(g):
        raise AssertionError("tau built the linking matrix")

    monkeypatch.setattr(surgery, "linking_data", no_matrix)
    assert tau(g, red22).value == want
    parts = [refined_tau(g, c, red22, "spin") for c in structures]
    assert sum(parts[1:], parts[0]) == want


# ---------------------------------------------------------------------------
# the invariant
# ---------------------------------------------------------------------------

def assert_is_one(result):
    one = result.value.omega.ring.one()
    assert result.value == type(result.value)(one, 0, result.theory,
                                              result.value.omega)


@pytest.mark.parametrize("NK", [(2, 2), (3, 3)])
@pytest.mark.parametrize("theory", ["su", "reduced"])
def test_sphere_normalization(NK, theory):
    data = build_modular_data(*NK, theory)
    for g in (empty_graph(), single_vertex(1), single_vertex(-1)):
        assert_is_one(tau(g, data))


@pytest.mark.parametrize("NK", [(2, 3), (3, 2)])
def test_sphere_normalization_degree_zero_coprime(NK):
    data = build_modular_data(*NK, "psu")
    for g in (empty_graph(), single_vertex(1), single_vertex(-1)):
        assert_is_one(tau(g, data))


def test_degree_zero_negative_blowdown_defect_33():
    # at gcd(N, K) = 3 the delta product is 3 * omega, so the degree-zero
    # invariant of the U_{-1} presentation of the sphere comes out 3, not 1
    data = build_modular_data(3, 3, "psu")
    res = tau(single_vertex(-1), data)
    assert res.value == type(res.value)(
        data.ctx.from_rational(3), 0, "psu", data.omega)


def test_spin_degree_zero_is_error():
    data = build_modular_data(2, 2, "psu")
    with pytest.raises(ScalarError, match="spin"):
        tau(single_vertex(0), data)


def test_s1_s2_value(su22):
    res = tau(single_vertex(0), su22)
    assert res.signature == 0
    assert res.value.eta_pow == 1
    assert abs(res.value.embed() - 2) < 1e-12  # eta * omega = sqrt(omega)


def test_multiplicativity(su22, red33):
    rng = random.Random(31)
    for data in (su22, red33):
        for _ in range(5):
            g1 = random_forest(rng, max_vertices=3)
            g2 = random_forest(rng, max_vertices=3)
            g = disjoint_union(g1, g2)
            assert tau(g, data).value == (tau(g1, data).value
                                          * tau(g2, data).value)


def test_blow_up_invariance(su22, red33):
    rng = random.Random(37)
    for data in (su22, red33):
        for k in range(10):
            g = random_forest(rng)
            base = tau(g, data)
            for fr, delta in [(1, data.delta_plus), (-1, data.delta_minus)]:
                blown = disjoint_union(g, single_vertex(fr, "blow"))
                res = tau(blown, data)
                assert res.bracket == base.bracket * delta
                assert res.value == base.value


def test_long_chain_blow_down(su22):
    # Neumann's plumbing calculus: a +-1 vertex inside a chain blows down,
    # shifting both neighbours' framings by -+1; the bracket gains Delta_+-
    rng = random.Random(41)
    framings = [rng.randint(-3, 3) for _ in range(1100)]
    for eps, delta in [(1, su22.delta_plus), (-1, su22.delta_minus)]:
        k = rng.randrange(1, len(framings))
        longer = framings[:k] + [eps] + framings[k:]
        blown_down = (framings[:k - 1]
                      + [framings[k - 1] - eps, framings[k] - eps]
                      + framings[k + 1:])
        assert colored_bracket(chain(longer), su22) == \
            colored_bracket(chain(blown_down), su22) * delta


class Plumbing:
    """A mutable plumbing forest for applying Neumann's blow-up, blow-down
    and 0-chain moves (W. Neumann, Trans. AMS 268, 1981)."""

    def __init__(self, g: PlumbingGraph):
        self.framing = {v.id: v.framing for v in g.vertices}
        self.color = {v.id: v.color for v in g.vertices}
        self.edges = [tuple(e) for e in g.edges]
        self.fresh = 0

    def graph(self) -> PlumbingGraph:
        return PlumbingGraph(
            [PlumbingVertex(vid, fr, self.color[vid])
             for vid, fr in self.framing.items()], list(self.edges))

    def _new_vertex(self, eps):
        self.fresh += 1
        vid = f"x{self.fresh}"
        self.framing[vid] = eps
        self.color[vid] = None
        return vid

    def blow_up_vertex(self, pick, eps):
        """A new eps-framed meridian of a vertex: its framing gains eps.
        On the empty forest the new vertex is isolated."""
        ids = list(self.framing)
        x = self._new_vertex(eps)
        if ids:
            u = ids[pick % len(ids)]
            self.framing[u] += eps
            self.edges.append((u, x))

    def blow_up_edge(self, pick, eps):
        """A new eps-framed vertex on an edge: both ends gain eps."""
        if not self.edges:
            return self.blow_up_vertex(pick, eps)
        u, w = self.edges.pop(pick % len(self.edges))
        x = self._new_vertex(eps)
        self.framing[u] += eps
        self.framing[w] += eps
        self.edges += [(u, x), (x, w)]

    def _neighbours(self, vid):
        return [w if u == vid else u for (u, w) in self.edges
                if vid in (u, w)]

    def _surgery(self):
        return [vid for vid in self.framing if self.color[vid] is None]

    def blow_down(self, pick):
        """Remove a +-1-framed surgery vertex of degree at most 2: its
        neighbours lose its framing and, if there are two, become joined."""
        candidates = [vid for vid in self._surgery()
                      if self.framing[vid] in (1, -1)
                      and len(self._neighbours(vid)) <= 2]
        if not candidates:
            return
        x = candidates[pick % len(candidates)]
        eps = self.framing.pop(x)
        del self.color[x]
        near = self._neighbours(x)
        self.edges = [e for e in self.edges if x not in e]
        for u in near:
            self.framing[u] -= eps
        if len(near) == 2:
            self.edges.append(tuple(near))

    def absorb_zero(self, pick):
        """Remove a 0-framed surgery vertex whose two neighbours are surgery
        vertices: the neighbours merge into one, their framings added."""
        candidates = [vid for vid in self._surgery()
                      if self.framing[vid] == 0
                      and len(near := self._neighbours(vid)) == 2
                      and all(self.color[u] is None for u in near)]
        if not candidates:
            return
        x = candidates[pick % len(candidates)]
        u, w = self._neighbours(x)
        for vid in (x, w):
            del self.color[vid]
        del self.framing[x]
        self.framing[u] += self.framing.pop(w)
        self.edges = [(u if a == w else a, u if b == w else b)
                      for (a, b) in self.edges if x not in (a, b)]

    def split_zero(self, pick, eps):
        """The inverse of ``absorb_zero``: a surgery vertex u of framing f
        becomes u (framing eps) - x (framing 0) - w (framing f - eps), and
        w takes every other neighbour of u."""
        candidates = self._surgery()
        if not candidates:
            return
        u = candidates[pick % len(candidates)]
        moved = set(self._neighbours(u)[1::2])
        x = self._new_vertex(0)
        w = self._new_vertex(self.framing[u] - eps)
        self.framing[u] = eps
        self.edges = [(w, b) if a == u and b in moved else
                      (a, w) if b == u and a in moved else (a, b)
                      for (a, b) in self.edges] + [(u, x), (x, w)]


_moves = st.lists(st.tuples(st.sampled_from(["vertex", "edge", "down",
                                             "split", "absorb"]),
                            st.integers(0, 50), st.sampled_from([1, -1])),
                  min_size=1, max_size=5)


@pytest.mark.parametrize("theory,NK,colors", [
    ("su", (2, 2), [{"lambda": [1]}, {"lambda": [2]}]),
    ("reduced", (3, 3), None)])
def test_neumann_moves_preserve_tau(theory, NK, colors):
    # random +-1 blow-ups at vertices and on edges, +-1 blow-downs and
    # 0-chain splits and absorptions leave the invariant exactly unchanged;
    # along the way the forest signature matches the eigenvalue count and
    # |H^1(M; Z/3)|, the number of mod-3 cohomology classes, stays the same
    data = build_modular_data(*NK, theory)

    def h1_order(g):
        B, _ = linking_data(g)
        return len(characteristic_solutions(B, 3, "coho").solutions)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), _moves)
    def check(seed, moves):
        g = random_forest(random.Random(seed), max_vertices=6,
                          link_colors=colors)
        expected = tau(g, data).value
        h1 = h1_order(g)
        p = Plumbing(g)
        for kind, pick, eps in moves:
            if kind == "vertex":
                p.blow_up_vertex(pick, eps)
            elif kind == "edge":
                p.blow_up_edge(pick, eps)
            elif kind == "down":
                p.blow_down(pick)
            elif kind == "split":
                p.split_zero(pick, eps)
            else:
                p.absorb_zero(pick)
            moved = p.graph()
            B, sigma = linking_data(moved)
            assert sigma == eigenvalue_signature(B)
            assert tau(moved, data).value == expected
            assert h1_order(moved) == h1

    check()


@pytest.mark.parametrize("theory,NK", [("su", (2, 2)), ("reduced", (3, 3))])
def test_presentation_independence(theory, NK):
    # chain [-3, -1] blows down to U_{-2}; chain [2, 1] blows down to U_1
    data = build_modular_data(*NK, theory)
    assert tau(chain([-3, -1]), data).value == \
        tau(single_vertex(-2), data).value
    assert_is_one(tau(chain([2, 1]), data))


@pytest.mark.parametrize("NK,theory", [((2, 3), "su"), ((3, 3), "reduced"),
                                       ((2, 6), "reduced")])
def test_lens_space_presentations_agree_exactly(NK, theory):
    # a chain of framings <= -2 presents a lens space (Neumann, Trans. AMS
    # 268, 1981); the reversed chain is the same plumbing eliminated from
    # the other end, and a blow-up of an edge, (a, b) -> (a - 1, -1, b - 1),
    # presents the same manifold, so all three give the same tau exactly
    data = modular(*NK, theory)
    rng = random.Random(2027)
    framings = [rng.choice((-2, -3, -4)) for _ in range(600)]
    blown = list(framings)
    for _ in range(50):
        k = rng.randrange(len(blown) - 1)
        blown[k:k + 2] = [blown[k] - 1, -1, blown[k + 1] - 1]
    expected = tau(chain(framings), data).value
    assert not expected.base.is_zero()
    assert tau(chain(framings[::-1]), data).value == expected
    assert tau(chain(blown), data).value == expected
