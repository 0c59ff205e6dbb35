import gc
import math
import random
import weakref

import mpmath
import pytest

from heckemod.diagrams import (
    EMPTY,
    ReducedLabel,
    YoungDiagram,
    enumerate_sector,
    quantum_dimension,
    star_involution,
)
from heckemod.moddata import (
    ModularData,
    _alternant,
    _signed_permutations,
    build_modular_data,
    fusion_coefficients,
    fusion_from_lr,
    is_spin_rank_level,
    littlewood_richardson,
    omega_closed_form,
    s_matrix_entry,
    verlinde_dimension,
)
from heckemod.scalars import (
    ScalarError,
    _packed_dot,
    _PackedRows,
    solve_framing_reduced,
    su_parameters,
)

SU_GRID = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]


@pytest.fixture(scope="module")
def data22():
    return build_modular_data(2, 2, "su")


@pytest.fixture(scope="module")
def data33():
    return build_modular_data(3, 3, "su")


def test_s_matrix_first_row(data22):
    ctx = data22.ctx
    for j, lab in enumerate(data22.labels):
        assert s_matrix_entry(ctx, EMPTY, lab) == data22.dims[j]


def test_s_entry_22_examples(data22):
    ctx = data22.ctx
    one = YoungDiagram.of(1)
    two = YoungDiagram.of(2)
    assert s_matrix_entry(ctx, one, one).is_zero()
    val = s_matrix_entry(ctx, one, two).embed()
    assert abs(val + mpmath.sqrt(2)) < 1e-12


def test_build_22(data22):
    ctx = data22.ctx
    assert [str(l) for l in data22.labels] == ["[]", "[1]", "[2]"]
    assert data22.dims == [ctx.one(), ctx.quantum_integer(2), ctx.one()]
    assert data22.omega == ctx.from_rational(4)
    assert data22.delta_plus == 2 * ctx.a(-3)
    assert data22.report["modular"]


@pytest.mark.parametrize("N,K", SU_GRID)
def test_su_modularity_grid(N, K):
    data = build_modular_data(N, K, "su")
    assert data.report["modular"]
    assert data.report["s_symmetric"]
    assert data.report["omega_closed_form"]
    assert data.report["delta_product"]


@pytest.mark.parametrize("N,K", [(2, 3), (3, 2)])
def test_psu_modularity_coprime(N, K):
    # with N and K coprime the degree-zero sector is a genuine modular theory
    data = build_modular_data(N, K, "psu")
    assert not data.spin_case
    assert data.report["modular"]
    assert data.report["delta_product"]


@pytest.mark.parametrize("N,K", [(2, 4), (3, 3)])
def test_psu_degenerate_when_gcd_exceeds_one(N, K):
    # the spectral-flow orbit of the empty diagram gives coincident S rows,
    # so the degree-zero S-matrix is singular and the delta product gains a
    # factor gcd(N, K); the reduced theory is the non-degenerate replacement
    data = build_modular_data(N, K, "psu")
    assert not data.spin_case
    assert not data.report["modular"]
    d = math.gcd(N, K)
    assert data.delta_plus * data.delta_minus == d * data.omega


@pytest.mark.parametrize("N,K", [(2, 2), (3, 3), (2, 4)])
def test_reduced_modularity(N, K):
    data = build_modular_data(N, K, "reduced")
    assert data.report["modular"]
    assert data.report["s_symmetric"]
    assert data.report["omega_closed_form"]


def test_spin_rank_levels():
    assert is_spin_rank_level(2, 2)
    assert is_spin_rank_level(2, 6)
    assert not is_spin_rank_level(2, 4)
    assert not is_spin_rank_level(3, 3)


@pytest.mark.parametrize("N,K", [(2, 2), (2, 6)])
def test_spin_case_vanishing(N, K):
    data = build_modular_data(N, K, "psu")
    assert data.spin_case
    assert data.delta_plus.is_zero()
    assert data.report["spin_delta_plus_vanishes"]


@pytest.mark.parametrize("N,K", [(2, 4), (3, 3)])
def test_psu_delta_nonzero(N, K):
    data = build_modular_data(N, K, "psu")
    assert not data.delta_plus.is_zero()


@pytest.mark.parametrize("N,K", SU_GRID)
def test_meridian_vanishing(N, K):
    data = build_modular_data(N, K, "su")
    ctx = data.ctx
    for j, lab in enumerate(data.labels):
        total = ctx.zero()
        for i in range(len(data.labels)):
            total = total + data.dims[i] * data.s_matrix[i][j]
        if lab == EMPTY:
            assert total == data.omega
        else:
            assert total.is_zero()


@pytest.mark.parametrize("N,K", [(2, 2), (3, 3), (2, 4)])
def test_reduced_meridian_vanishing(N, K):
    data = build_modular_data(N, K, "reduced")
    ctx = data.ctx
    full_columns = {YoungDiagram((K,) * j) if j else EMPTY for j in range(N)}
    for lam in enumerate_sector(N, K, "strict"):
        if lam in full_columns:
            continue
        target = ReducedLabel(0, lam)
        total = ctx.zero()
        for i, u in enumerate(data.labels):
            total = total + data.dims[i] * s_matrix_entry(ctx, u, target)
        assert total.is_zero()


@pytest.mark.parametrize("N,K", SU_GRID)
def test_orientation_reversal(N, K):
    data = build_modular_data(N, K, "su")
    for i, lam in enumerate(data.labels):
        star = star_involution(lam, N)
        i_star = data.index(star)
        for j in range(len(data.labels)):
            assert data.s_matrix[i][j].conjugate() == data.s_matrix[i_star][j]


def test_fusion_unit(data22):
    for mu in data22.labels:
        out = fusion_coefficients(data22, EMPTY, mu)
        assert out == {mu: 1}


def test_fusion_22(data22):
    one = YoungDiagram.of(1)
    out = fusion_coefficients(data22, one, one)
    assert out == {EMPTY: 1, YoungDiagram.of(2): 1}


def test_lr_basic():
    one = YoungDiagram.of(1)
    assert littlewood_richardson(one, one, YoungDiagram.of(2)) == 1
    assert littlewood_richardson(one, one, YoungDiagram.of(1, 1)) == 1
    lam = YoungDiagram.of(2, 1)
    assert littlewood_richardson(lam, lam, YoungDiagram.of(3, 2, 1)) == 2
    assert littlewood_richardson(lam, lam, YoungDiagram.of(2, 2, 1, 1)) == 1


@pytest.mark.parametrize("N,K", [(2, 2), (3, 3), (2, 4), (3, 4)])
def test_fusion_matches_lr(N, K):
    data = build_modular_data(N, K, "su")
    for lam in data.labels:
        for mu in data.labels:
            if lam.size + mu.size > K:
                continue
            out = fusion_coefficients(data, lam, mu)
            for nu in data.labels:
                assert out.get(nu, 0) == fusion_from_lr(N, lam, mu, nu), \
                    (lam, mu, nu)


@pytest.mark.parametrize("N,K", SU_GRID)
def test_verlinde(N, K):
    data = build_modular_data(N, K, "su")
    ctx = data.ctx
    assert verlinde_dimension(data, 0) == ctx.one()
    assert verlinde_dimension(data, 1) == ctx.from_rational(len(data.labels))
    for g in (2, 3):
        val = verlinde_dimension(data, g)
        assert val.is_rational()
        q = val.rational_value()
        assert q.denominator == 1 and q > 0


def test_verlinde_d2_22(data22):
    assert verlinde_dimension(data22, 2) == data22.ctx.from_rational(10)


def test_embedding_positivity():
    for (N, K) in SU_GRID:
        for theory in ("su", "reduced"):
            data = build_modular_data(N, K, theory)
            val = data.omega.embed()
            assert abs(val.imag) < 1e-12
            assert val.real > 0


def test_hecke_cross_oracle():
    # dims and twists agree with the skein-level trace and ribbon twist
    from heckemod.hecke import (full_twist, path_idempotent, standard_tableaux)
    for (N, K) in [(2, 3), (3, 2)]:
        data = build_modular_data(N, K, "su")
        ctx = data.ctx
        curl = ctx.a() * ctx.v(-1)
        for n in (1, 2, 3):
            ft = full_twist(n, ctx)
            for t in standard_tableaux(n):
                lam = t.shape()
                if lam not in data.labels:
                    continue
                i = data.index(lam)
                p = path_idempotent(t, ctx)
                assert p.markov_trace() == data.dims[i]
                assert (curl ** n) * (ft * p) == data.twists[i] * p


def test_unknown_theory():
    with pytest.raises(ScalarError):
        build_modular_data(2, 2, "bogus")


# ---------------------------------------------------------------------------
# the packed paths against the plain sums they replace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N,K,theory,modular", [
    (3, 3, "su", True), (2, 4, "reduced", True),
    # degenerate: gcd(N, K) > 1 makes S singular, so the product is not
    # omega I and the comparison covers nonzero off-diagonal entries
    (3, 3, "psu", False)])
def test_packed_modularity_matches_triple_loop(N, K, theory, modular):
    data = build_modular_data(N, K, theory)
    ctx, S = data.ctx, data.s_matrix
    n = len(S)
    got = list(_packed_dot(_PackedRows(ctx, S), data._s_conj_packed))
    for i in range(n):
        for j in range(n):
            acc = ctx.zero()
            for k in range(n):
                acc = acc + S[i][k] * S[j][k].conjugate()
            assert got[i][j] == acc, (i, j)
            assert (got[i][j].nums, got[i][j].den) == (acc.nums, acc.den)
    assert data.report["modular"] is modular


def _alternant_by_permutations(ctx, exponents, powers):
    total = ctx.zero()
    for pi, sign in _signed_permutations(ctx.N):
        term = ctx.zeta(sum(exponents[i] * powers[pi[i]]
                            for i in range(ctx.N)))
        total = total + term if sign == 1 else total - term
    return total


@pytest.mark.parametrize("ctx", [
    su_parameters(2, 3), su_parameters(3, 3), su_parameters(4, 2),
    su_parameters(5, 2), solve_framing_reduced(4, 2)[2]],
    ids=["su23", "su33", "su42", "su52", "reduced42"])
def test_alternant_histogram_matches_permutation_sum(ctx):
    rng = random.Random(ctx.M)
    for _ in range(20):
        exponents = [rng.randrange(ctx.M) for _ in range(ctx.N)]
        # repeated powers give a vanishing alternant
        powers = [rng.randrange(-ctx.M, ctx.M) for _ in range(ctx.N)]
        got = _alternant(ctx, exponents, powers)
        want = _alternant_by_permutations(ctx, exponents, powers)
        assert (got.nums, got.den) == (want.nums, want.den)


def test_packed_conj_s_dies_with_its_data():
    data = build_modular_data(2, 3, "su")
    one = YoungDiagram.of(1)
    assert fusion_coefficients(data, one, one)
    packed = data._s_conj_packed
    assert packed.width > 0
    ref = weakref.ref(packed)
    del data, packed
    gc.collect()
    assert ref() is None
