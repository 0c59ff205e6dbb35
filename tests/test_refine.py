import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import mpmath
import pytest

from heckemod.cli import MANIFEST_NAMES, manifest_graph
from heckemod.moddata import build_modular_data
from heckemod.refine import (
    _abelian_gauss_sum,
    _is_characteristic_on_forest,
    blowdown_transform,
    blowup_transform,
    characteristic_solutions,
    graded_gauss_sums,
    is_characteristic,
    reduction_check,
    refined_tau,
    u1_gauss_unit,
    u1_invariant,
    u1_root_of_unity,
)
from heckemod.scalars import ExtScalar, ScalarError
from heckemod.surgery import (
    PlumbingGraph,
    PlumbingVertex,
    _normalized,
    _signature,
    chain,
    colored_bracket,
    disjoint_union,
    empty_graph,
    linking_data,
    random_forest,
    single_vertex,
    tau,
)


@pytest.fixture(scope="module")
def su22():
    return build_modular_data(2, 2, "su")


@pytest.fixture(scope="module")
def red22():
    return build_modular_data(2, 2, "reduced")


@pytest.fixture(scope="module")
def su33():
    return build_modular_data(3, 3, "su")


@pytest.fixture(scope="module")
def red33():
    return build_modular_data(3, 3, "reduced")


def int_det(A):
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for t in range(n):
        piv = next((i for i in range(t, n) if M[i][t]), None)
        if piv is None:
            return 0
        if piv != t:
            M[t], M[piv] = M[piv], M[t]
            det = -det
        det *= M[t][t]
        for i in range(t + 1, n):
            f = M[i][t] / M[t][t]
            for k in range(n):
                M[i][k] -= f * M[t][k]
    assert det.denominator == 1
    return int(det)


def random_symmetric(rng, n):
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = rng.randint(-4, 4)
    return B


# ---------------------------------------------------------------------------
# oracles: the integer Smith normal form and linear solving through it
# ---------------------------------------------------------------------------

def smith_normal_form(A):
    """U A V = D with U, V unimodular and D diagonal with divisibility
    D[0][0] | D[1][1] | ...  Returns (D, U, V)."""
    n = len(A)
    m = len(A[0]) if n else 0
    D = [list(map(int, row)) for row in A]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_sub(i, j, f):  # row_i -= f * row_j
        for k in range(m):
            D[i][k] -= f * D[j][k]
        for k in range(n):
            U[i][k] -= f * U[j][k]

    def col_sub(i, j, f):  # col_i -= f * col_j
        for k in range(n):
            D[k][i] -= f * D[k][j]
        for k in range(m):
            V[k][i] -= f * V[k][j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for k in range(n):
            D[k][i], D[k][j] = D[k][j], D[k][i]
        for k in range(m):
            V[k][i], V[k][j] = V[k][j], V[k][i]

    for t in range(min(n, m)):
        while True:
            pivot = min(((abs(D[i][j]), i, j)
                         for i in range(t, n) for j in range(t, m)
                         if D[i][j]), default=None)
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            for i in range(t + 1, n):
                if D[i][t]:
                    row_sub(i, t, D[i][t] // D[t][t])
            for j in range(t + 1, m):
                if D[t][j]:
                    col_sub(j, t, D[t][j] // D[t][t])
            if any(D[i][t] for i in range(t + 1, n)) or \
                    any(D[t][j] for j in range(t + 1, m)):
                continue  # remainders became the new, smaller candidates
            # enforce the divisibility chain
            bad = next(((i, j) for i in range(t + 1, n)
                        for j in range(t + 1, m)
                        if D[i][j] % D[t][t]), None)
            if bad is None:
                break
            row_sub(t, bad[0], -1)  # bring the offending row into play
        if t < min(n, m) and D[t][t] < 0:
            for k in range(m):
                D[t][k] = -D[t][k]
            for k in range(n):
                U[t][k] = -U[t][k]
    return D, U, V


def h1_from_smith(D, d: int) -> int:
    return math.prod(math.gcd(D[i][i], d) for i in range(len(D)))


def h1_cardinality(B, d: int) -> int:
    """|Hom(coker B, Z/d)| = prod gcd(D_ii, d) over all m diagonal slots."""
    return h1_from_smith(smith_normal_form(B)[0], d)


def solve_linear_mod(B, target, d: int):
    """All solutions c of B c = target (mod d), via the Smith form."""
    return solve_from_smith(*smith_normal_form(B), target, d)


def solve_from_smith(D, U, V, target, d: int):
    """All solutions c of B c = target (mod d), given U B V = D."""
    m = len(D)
    rhs = [sum(U[i][k] * target[k] for k in range(m)) % d for i in range(m)]
    per_coordinate = []
    for i in range(m):
        dii = D[i][i]
        g = math.gcd(dii, d)
        if rhs[i] % g:
            return []
        if dii % d == 0:
            # free coordinate (rhs[i] == 0 was just checked since g == d)
            per_coordinate.append(list(range(d)))
            continue
        step = d // g
        inv = pow((dii // g) % step, -1, step)
        y0 = (rhs[i] // g) * inv % step
        per_coordinate.append([(y0 + k * step) % d for k in range(g)])
    solutions = []
    for ys in itertools.product(*per_coordinate):
        c = tuple(sum(V[i][k] * ys[k] for k in range(m)) % d
                  for i in range(m))
        solutions.append(c)
    return sorted(set(solutions))


# ---------------------------------------------------------------------------
# Smith normal form and linear solving
# ---------------------------------------------------------------------------

def test_smith_normal_form_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        B = random_symmetric(rng, n)
        D, U, V = smith_normal_form(B)
        assert abs(int_det(U)) == 1
        assert abs(int_det(V)) == 1
        prod = [[sum(U[i][a] * B[a][b] * V[b][j] for a in range(n)
                     for b in range(n)) for j in range(n)] for i in range(n)]
        assert prod == D
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for i in range(n - 1):
            if D[i + 1][i + 1]:
                assert D[i][i] != 0 and D[i + 1][i + 1] % D[i][i] == 0


def brute_solutions(B, target, d):
    m = len(B)
    out = []
    for c in itertools.product(range(d), repeat=m):
        if all(sum(B[i][k] * c[k] for k in range(m)) % d == target[i] % d
               for i in range(m)):
            out.append(c)
    return out


def test_solve_linear_mod_random():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        B = random_symmetric(rng, n)
        d = rng.randint(2, 6)
        target = [rng.randrange(d) for _ in range(n)]
        assert solve_linear_mod(B, target, d) == brute_solutions(B, target, d)


def test_solution_count_matches_h1():
    # homogeneous solution count = |Hom(coker B, Z/d)| for random matrices
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        B = random_symmetric(rng, n)
        d = rng.randint(1, 6)
        sols = solve_linear_mod(B, [0] * n, d)
        assert len(sols) == h1_cardinality(B, d)


def test_characteristic_examples():
    assert characteristic_solutions([[1]], 2, "spin").solutions == [(1,)]
    assert characteristic_solutions([[0]], 2, "spin").solutions == [(0,), (1,)]
    assert characteristic_solutions([[-2, 1], [1, -2]], 2, "spin").solutions \
        == [(0, 0)]
    assert characteristic_solutions([[1]], 3, "coho").solutions == [(0,)]


def test_characteristic_validation():
    with pytest.raises(ScalarError, match="even"):
        characteristic_solutions([[1]], 3, "spin")
    with pytest.raises(ScalarError, match="kind"):
        characteristic_solutions([[1]], 2, "bogus")


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_forest_solver_matches_smith_oracle(d):
    # the leaf elimination finds exactly the Smith-form solutions, and
    # there are |H^1(M; Z/d)| = prod gcd(D_ii, d) of them
    rng = random.Random(100 + d)
    coranks = set()
    for _ in range(80):
        g = random_forest(rng, 10, link_colors=[{"lambda": [1]}])
        B, _ = linking_data(g)
        if len(B) > 8:
            continue
        D, U, V = smith_normal_form(B)
        coranks.add(sum(D[i][i] % d == 0 for i in range(len(B))))
        for kind in ("coho", "spin") if d % 2 == 0 else ("coho",):
            target = [(d // 2) * B[i][i] % d if kind == "spin" else 0
                      for i in range(len(B))]
            sols = characteristic_solutions(B, d, kind).solutions
            assert sols == solve_from_smith(D, U, V, target, d), (B, d, kind)
            assert len(sols) == h1_from_smith(D, d)
    if d > 1:
        assert max(coranks) >= 2


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_forest_check_matches_dense_definition(d):
    # refined_tau's check reads the forest; is_characteristic multiplies
    # the dense rows of B.  Both must agree on solutions and on other vectors
    rng = random.Random(200 + d)
    verdicts = set()
    for _ in range(60):
        g = random_forest(rng, 10, link_colors=[{"lambda": [1]}])
        B, _ = linking_data(g)
        for kind in ("coho", "spin") if d % 2 == 0 else ("coho",):
            sols = characteristic_solutions(B, d, kind).solutions
            others = [[rng.randrange(d) for _ in B] for _ in range(4)]
            for c in rng.sample(sols, min(3, len(sols))) + others:
                dense = is_characteristic(B, c, d, kind)
                assert _is_characteristic_on_forest(g, c, d, kind) == dense
                verdicts.add(dense)
    assert verdicts == {True, False}


@pytest.mark.parametrize("B", [
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    [[-2, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 1], [1, 0, 1, -2]],
    [[0, 2], [2, 0]],
    [[1, 1], [0, 1]],
], ids=["triangle", "square", "double-edge", "asymmetric"])
def test_non_forest_linking_matrix_rejected(B):
    with pytest.raises(ScalarError):
        characteristic_solutions(B, 2, "coho")


# ---------------------------------------------------------------------------
# refined invariants
# ---------------------------------------------------------------------------

def structure_sum(g, data):
    B, _ = linking_data(g)
    kind = "spin" if data.spin_case else "coho"
    sset = characteristic_solutions(B, data.grading_modulus, kind)
    values = [refined_tau(g, c, data) for c in sset.solutions]
    return reduce(lambda x, y: x + y, values)


GRAPHS = [single_vertex(0), single_vertex(-2), chain([-2, -2]), chain([0, 0])]


@pytest.mark.parametrize("gi", range(len(GRAPHS)))
def test_decomposition_spin_22(red22, gi):
    g = GRAPHS[gi]
    assert structure_sum(g, red22) == tau(g, red22).value


@pytest.mark.parametrize("NK", [(3, 3), (2, 4)])
@pytest.mark.parametrize("gi", range(len(GRAPHS)))
def test_decomposition_coho(NK, gi):
    data = build_modular_data(*NK, "reduced")
    g = GRAPHS[gi]
    assert structure_sum(g, data) == tau(g, data).value


@pytest.mark.parametrize("NK,theory_kind", [((2, 2), "spin"), ((3, 3), "coho")])
def test_non_characteristic_brackets_vanish(NK, theory_kind, red22, red33):
    data = red22 if NK == (2, 2) else red33
    d = data.grading_modulus
    for g in GRAPHS + [single_vertex(1)]:
        B, _ = linking_data(g)
        m = len(B)
        sols = set(characteristic_solutions(B, d, theory_kind).solutions)
        for c in itertools.product(range(d), repeat=m):
            if c in sols:
                continue
            filt = {v.id: c[i] for i, v in enumerate(g.surgery_vertices)}
            assert colored_bracket(g, data, filt).is_zero(), (g, c)


def test_refined_tau_rejects_non_solution(red22):
    with pytest.raises(ScalarError, match="characteristic"):
        refined_tau(single_vertex(1), [0], red22)


def test_refined_tau_rejects_wrong_kind(red22, red33):
    with pytest.raises(ScalarError, match="spin"):
        refined_tau(single_vertex(0), [0], red33, kind="spin")
    with pytest.raises(ScalarError, match="coho"):
        refined_tau(single_vertex(0), [0], red22, kind="coho")


def test_empty_graph_refined(red22):
    val = refined_tau(empty_graph(), [], red22)
    assert val == ExtScalar(red22.ctx.one(), 0, "reduced", red22.omega)


def test_graded_gauss_sums(red22, red33):
    # spin case: only nu = d/2 survives; otherwise only nu = 0
    for data, live in [(red22, 1), (red33, 0)]:
        sums = graded_gauss_sums(data)
        for nu, val in enumerate(sums):
            assert val.base.is_zero() == (nu != live)
        total = reduce(lambda x, y: x + y, sums)
        assert total == ExtScalar(data.delta_plus, 1, "reduced", data.omega)


def test_blowdown_transform_round_trip(red22):
    d = red22.grading_modulus
    g = single_vertex(0)
    B, _ = linking_data(g)
    for c in characteristic_solutions(B, d, "spin").solutions:
        up = blowup_transform(c, d, "spin")
        blown = disjoint_union(g, single_vertex(1, "blow"))
        B_up, _ = linking_data(blown)
        assert is_characteristic(B_up, up, d, "spin")
        # the refined invariant is unchanged by the move, exactly
        assert refined_tau(blown, up, red22) == refined_tau(g, c, red22)
        assert blowdown_transform(up, B_up, d, "spin") == list(c)


def test_blowdown_transform_errors():
    with pytest.raises(ScalarError, match="isolated"):
        blowdown_transform([0, 0], [[-2, 1], [1, -2]], 2, "spin")
    with pytest.raises(ScalarError, match="coefficient"):
        blowdown_transform([0], [[1]], 2, "spin")


# ---------------------------------------------------------------------------
# the abelian invariant
# ---------------------------------------------------------------------------

def test_u1_root_orders(su22, su33):
    # (2,2): N' = 1, zeta = 1; (3,3): N' = 1, zeta = 1
    red22 = build_modular_data(2, 2, "reduced")
    red33 = build_modular_data(3, 3, "reduced")
    assert u1_root_of_unity(su22, red22.beta) == su22.ctx.one()
    assert u1_root_of_unity(su33, red33.beta) == su33.ctx.one()


def test_u1_gauss_unit_modulus_42():
    su = build_modular_data(4, 2, "su")
    red = build_modular_data(4, 2, "reduced")
    n_prime = su.N // su.grading_modulus
    assert n_prime == 2
    g = u1_gauss_unit(su, red)
    assert g * g.conjugate() == su.ctx.from_rational(n_prime)
    assert abs(abs(g.embed()) ** 2 - n_prime) < 1e-12


def test_u1_invariant_basics(su22, red22):
    assert abs(u1_invariant(empty_graph(), su22, red22) - 1) < 1e-12
    n_prime = su22.N // su22.grading_modulus
    eta = 1 / mpmath.sqrt(su22.omega.embed().real)
    eta_red = 1 / mpmath.sqrt(red22.omega.embed().real)
    expected = (eta / eta_red) * n_prime
    assert abs(u1_invariant(single_vertex(0), su22, red22) - expected) \
        < 1e-12


def explicit_gauss_sum(B, zeta, n_prime, ctx):
    """Oracle: sum over j in (Z/N')^m of zeta^(jBj), term by term."""
    m = len(B)
    total = ctx.zero()
    for js in itertools.product(range(n_prime), repeat=m):
        expo = sum(B[i][k] * js[i] * js[k] for i in range(m) for k in range(m))
        total = total + zeta ** expo
    return total


@pytest.mark.parametrize("NK", [(2, 3), (3, 2), (4, 2), (3, 1), (2, 1)])
def test_walked_gauss_sum_matches_explicit_sum(NK):
    su = build_modular_data(*NK, "su")
    red = build_modular_data(*NK, "reduced")
    n_prime = su.N // su.grading_modulus
    zeta = u1_root_of_unity(su, red.beta)
    # the closed-form exponent against the power of a^K s^-1 (times -1
    # for d odd)
    ctx = su.ctx
    base = ctx.a(su.K) * ctx.s(-1) * (-1) ** (su.grading_modulus % 2 * su.K)
    assert zeta == base ** (su.K * red.beta ** 2)
    rng = random.Random(sum(NK))
    links = 0
    for k in range(12):
        g = random_forest(rng, 7, link_colors=[{"lambda": [1]}])
        links += len(g.vertices) - len(g.surgery_vertices)
        B, _ = linking_data(g)
        expected = explicit_gauss_sum(B, zeta, n_prime, su.ctx)
        assert _abelian_gauss_sum(g, su, red) == expected, (NK, g)
        # framings that agree mod M give the same sum
        shifted = PlumbingGraph(
            [PlumbingVertex(v.id, v.framing + (-1) ** i * (k + 1) * ctx.M,
                            v.color) for i, v in enumerate(g.vertices)],
            g.edges)
        assert _abelian_gauss_sum(shifted, su, red) == expected, (NK, g)
    assert links > 0
    # the +1-framed unknot: the one-dimensional Gauss sum sum_j zeta^(j^2)
    assert u1_gauss_unit(su, red) == \
        explicit_gauss_sum([[1]], zeta, n_prime, su.ctx)


# rank-levels that also check seeded link-free forests of up to 40 vertices
REDUCTION_FORESTS = ((2, 3), (3, 3), (2, 6))
# lens spaces whose |tau| is large enough that an absolute tolerance of 1e-9
# on the embedded factorization read them as failures
REDUCTION_CHAINS = {(3, 4): chain([3] * 35), (4, 3): chain([3] * 37)}


@pytest.mark.parametrize("NK", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4),
                                (2, 6), (3, 4), (4, 3)])
def test_reduction_formula(NK):
    su = build_modular_data(*NK, "su")
    red = build_modular_data(*NK, "reduced")
    graphs = list(map(manifest_graph, MANIFEST_NAMES))
    if NK in REDUCTION_FORESTS:
        rng = random.Random(sum(NK))
        graphs += [random_forest(rng, 40) for _ in range(10)]
    if NK in REDUCTION_CHAINS:
        graphs.append(REDUCTION_CHAINS[NK])
    for g in graphs:
        rep = reduction_check(g, *NK, su_data=su, red_data=red)
        assert rep["ok"] and rep["difference"].is_zero(), (NK, g, rep)


def embedded_reduction_gap(g, su, red):
    """|tau_su - tau_u1 tau_reduced| at 60 digits, the factorization as the
    paper states it: tau_u1 = n_su(G) / n_reduced(1), the abelian Gauss sum
    G under the su normalization over 1 under the reduced one, and every
    factor embedded on its own."""
    m, sigma = _signature(g)
    with mpmath.workdps(75):
        u1 = _normalized(_abelian_gauss_sum(g, su, red), sigma, m, su) \
            .embed(60) / _normalized(red.ctx.one(), sigma, m, red).embed(60)
        return abs(tau(g, su).value.embed(60)
                   - u1 * tau(g, red).value.embed(60))


def test_reduction_check_matches_embedded_factorization():
    # the exact check on the brackets against the tau-level statement; the
    # variant (4, 2) and the odd coprime (3, 5) give the not-ok cases
    outcomes = set()
    for NK in [(2, 3), (3, 2), (4, 2), (3, 5)]:
        su = build_modular_data(*NK, "su")
        red = build_modular_data(*NK, "reduced")
        rng = random.Random(7 * sum(NK))
        for _ in range(12):
            g = random_forest(rng, 6)
            ok = reduction_check(g, *NK, su_data=su, red_data=red)["ok"]
            assert ok == (embedded_reduction_gap(g, su, red) < 1e-40), (NK, g)
            outcomes.add(ok)
    assert outcomes == {True, False}


def test_reduction_check_rejects_link_components():
    # the abelian Gauss sum pins link vertices to U(1) label 0, so the
    # factorization is a statement about closed manifolds only
    su = build_modular_data(2, 3, "su")
    red = build_modular_data(2, 3, "reduced")
    colored = PlumbingVertex("w", 0, {"lambda": [1]})
    graphs = [PlumbingGraph([colored], []),
              PlumbingGraph([PlumbingVertex("v", 1), colored,
                             PlumbingVertex("x", 2, {"lambda": [1]})],
                            [("v", "w"), ("v", "x")])]
    for g in graphs:
        with pytest.raises(ScalarError, match="'w' is a link component"):
            reduction_check(g, 2, 3, su_data=su, red_data=red)


def test_reduction_check_rejects_wrong_data():
    su = build_modular_data(2, 3, "su")
    red = build_modular_data(2, 3, "reduced")
    g = single_vertex(1)
    for wrong in [(red, su), (su, build_modular_data(2, 3, "psu"))]:
        with pytest.raises(ScalarError, match="su and reduced data"):
            reduction_check(g, 2, 3, su_data=wrong[0], red_data=wrong[1])
    # a reduced root order that does not divide the su one has no ring map
    odd = SimpleNamespace(theory="reduced", N=2, K=3, ctx=SimpleNamespace(M=7))
    with pytest.raises(ScalarError, match="does not divide"):
        reduction_check(g, 2, 3, su_data=su, red_data=odd)


def test_reduction_gap_both_even():
    # when N + K and N' = N/gcd are both even the abelian factor needs a
    # different normalization (level-rank duality) that is not implemented;
    # the check reports the mismatch honestly on a lens space
    su = build_modular_data(4, 2, "su")
    red = build_modular_data(4, 2, "reduced")
    assert reduction_check(single_vertex(1), 4, 2,
                           su_data=su, red_data=red)["ok"]
    rep = reduction_check(single_vertex(-2), 4, 2, su_data=su, red_data=red)
    assert not rep["ok"] and not rep["difference"].is_zero()
    with pytest.raises(ScalarError, match="built at"):
        reduction_check(single_vertex(1), 2, 4, su_data=su, red_data=red)


@pytest.mark.xfail(strict=True, reason=(
    "at coprime (N, K) with N and K odd and K >= 3 the reduced theory pins "
    "its s to -s^-1 (s of the full theory), where -s makes the check pass; "
    "tau_su / (tau_u1 tau_reduced) on u1 at (3, 5) is i"))
def test_reduction_formula_odd_coprime():
    su = build_modular_data(3, 5, "su")
    red = build_modular_data(3, 5, "reduced")
    assert reduction_check(single_vertex(1), 3, 5,
                           su_data=su, red_data=red)["ok"]


def test_reduced_equals_degree_zero_when_coprime():
    # with gcd(N, K) = 1 the reduced invariant matches the degree-zero one
    # and the abelian factor is trivial on these manifolds
    psu = build_modular_data(2, 3, "psu")
    su = build_modular_data(2, 3, "su")
    red = build_modular_data(2, 3, "reduced")
    for g in map(manifest_graph, MANIFEST_NAMES):
        a = tau(g, psu).value.embed()
        b = tau(g, red).value.embed()
        assert abs(a - b) < 1e-9
        rep = reduction_check(g, 2, 3, su_data=su, red_data=red)
        assert rep["ok"]
