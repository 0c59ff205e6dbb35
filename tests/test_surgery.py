import itertools
import random

import pytest

from heckemod.moddata import build_modular_data
from heckemod.scalars import ScalarError
from heckemod.surgery import (
    PlumbingGraph,
    PlumbingVertex,
    chain,
    colored_bracket,
    colored_bracket_direct,
    disjoint_union,
    empty_graph,
    linking_data,
    parse_plumbing,
    plumbing_to_json,
    signature,
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


def test_signature_random_against_float():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        B = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                B[i][j] = B[j][i] = rng.randint(-3, 3)
        # float oracle: eigenvalue signs of the symmetric matrix
        import mpmath
        ev = mpmath.mp.eigsy(mpmath.matrix(B), eigvals_only=True)
        expected = sum((x > 1e-9) - (x < -1e-9) for x in ev)
        assert signature(B) == expected


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


def random_forest(rng, max_vertices=4, link_colors=None):
    n = rng.randint(1, max_vertices)
    verts = []
    edges = []
    for i in range(n):
        color = None
        if link_colors and i > 0 and rng.random() < 0.3:
            color = rng.choice(link_colors)
        verts.append(PlumbingVertex(f"v{i}", rng.randint(-3, 3), color))
        if i > 0 and rng.random() < 0.6:
            edges.append((f"v{rng.randrange(i)}", f"v{i}"))
    return PlumbingGraph(verts, edges)


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
                assert res.report["bracket"] == base.report["bracket"] * delta
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


@pytest.mark.parametrize("theory,NK", [("su", (2, 2)), ("reduced", (3, 3))])
def test_presentation_independence(theory, NK):
    # chain [-3, -1] blows down to U_{-2}; chain [2, 1] blows down to U_1
    data = build_modular_data(*NK, theory)
    lhs = tau(chain([-3, -1]), data).value.embed()
    rhs = tau(single_vertex(-2), data).value.embed()
    assert abs(lhs - rhs) < 1e-9
    assert abs(tau(chain([2, 1]), data).value.embed() - 1) < 1e-9
