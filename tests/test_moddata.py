import math
import operator
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckemod.diagrams import (
    EMPTY,
    ReducedLabel,
    YoungDiagram,
    enumerate_sector,
    orbit_representatives,
    star_involution,
)
from heckemod.moddata import (
    _GATE_WORD_BITS,
    THEORIES,
    _alternant,
    _alternant_terms,
    _is_modular,
    _s_matrix,
    _signed_permutations,
    build_modular_data,
    fusion_coefficients,
    fusion_from_lr,
    is_spin_rank_level,
    littlewood_richardson,
    s_matrix_column,
    s_matrix_entry,
    verlinde_dimension,
)
from heckemod.scalars import (
    _WORDS,
    CycScalar,
    ScalarError,
    _common_den,
    _fit,
    _from_packed,
    _pack,
    _packed_combination,
    _unpack,
    solve_framing_reduced,
    su_parameters,
)

from helpers import plain_dot, verlinde_fusion

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


@pytest.mark.parametrize("N,K", [(3, 3), (2, 4), (4, 2)])
def test_fusion_is_symmetric(N, K):
    # verify computes one Verlinde sum per unordered pair of labels
    data = build_modular_data(N, K, "su")
    for i, lam in enumerate(data.labels):
        for mu in data.labels[i + 1:]:
            assert fusion_coefficients(data, lam, mu) == \
                fusion_coefficients(data, mu, lam), (lam, mu)


@pytest.mark.parametrize("N,K", [(2, 3), (3, 3), (2, 4), (4, 2), (3, 4)])
def test_fusion_matches_verlinde_oracle(N, K):
    # the Pieri matrices against the plain Verlinde sum, on ordered pairs
    data = build_modular_data(N, K, "su")
    for lam in data.labels:
        for mu in data.labels:
            assert fusion_coefficients(data, lam, mu) == \
                verlinde_fusion(data, lam, mu), (lam, mu)


@pytest.mark.parametrize("N,K", [(2, 3), (3, 3), (4, 2), (3, 4), (4, 4)])
def test_fusion_matrices_give_verlinde_dimensions(N, K):
    # dim V_g = Tr(H^(g-1)) for the handle matrix H = sum_lam N_lam N_lam^T
    data = build_modular_data(N, K, "su")
    labels = data.labels
    n = len(labels)
    handle = [[0] * n for _ in range(n)]
    for lam in labels:
        fusion = [[fusion_coefficients(data, lam, mu).get(nu, 0)
                   for nu in labels] for mu in labels]
        for a, x in enumerate(fusion):
            for b, y in enumerate(fusion):
                handle[a][b] += sum(map(operator.mul, x, y))
    power = [[int(a == b) for b in range(n)] for a in range(n)]
    for g in (1, 2, 3):
        trace = sum(power[a][a] for a in range(n))
        assert verlinde_dimension(data, g) == data.ctx.from_rational(trace), g
        power = [[sum(map(operator.mul, row, col)) for col in zip(*handle)]
                 for row in power]


@pytest.mark.parametrize("N,K", [(3, 3), (4, 3), (2, 9)])
def test_fusion_check_sees_a_spoiled_s(N, K):
    data = build_modular_data(N, K, "su")
    ctx, S, omega = data.ctx, data.s_matrix, data.omega
    n = len(S)
    rng = random.Random(N * 100 + K)
    for _ in range(3):
        # one symmetric pair of entries times zeta
        i, j = rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)
                           if not S[i][j].is_zero()], 1)[0]
        spoiled = [list(row) for row in S]
        spoiled[i][j] = spoiled[j][i] = S[i][j] * ctx.zeta(1)
        with pytest.raises(ScalarError):
            fusion_coefficients(replace(data, s_matrix=spoiled), EMPTY, EMPTY)
        # one row and its column negated: S stays symmetric with
        # S conj(S) = omega I, so the modularity gate cannot see it
        i = rng.randrange(1, n)
        sign = [-1 if k == i else 1 for k in range(n)]
        spoiled = [[x * sign[a] * sign[b] for b, x in enumerate(row)]
                   for a, row in enumerate(S)]
        assert all(spoiled[a][b] == spoiled[b][a]
                   for a in range(n) for b in range(a))
        assert _modular_in_full(ctx, spoiled, omega)
        assert spoiled[data.unit_index] != data.dims
        with pytest.raises(ScalarError):
            fusion_coefficients(replace(data, s_matrix=spoiled), EMPTY, EMPTY)


@pytest.mark.parametrize("theory", ["psu", "reduced"])
def test_fusion_is_for_su_data_only(theory):
    data = build_modular_data(3, 3, theory)
    unit = data.labels[data.unit_index]
    with pytest.raises(ScalarError, match=theory):
        fusion_coefficients(data, unit, unit)


def test_verlinde_sum_off_su_is_not_a_fusion_rule():
    # at reduced (2, 3) the Verlinde sum gives (0,[1]) (0,[1]) =
    # (0,[]) - (0,[1]): a negative coefficient
    data = build_modular_data(2, 3, "reduced")
    one = ReducedLabel(0, YoungDiagram.of(1))
    assert verlinde_fusion(data, one, one) == {
        ReducedLabel(0, EMPTY): 1, one: -1}


@pytest.mark.parametrize("N,K,theory", [
    (2, 3, "su"), (3, 3, "su"), (2, 4, "su"), (4, 2, "su"), (3, 2, "su"),
    (3, 3, "reduced"), (2, 6, "reduced"), (2, 3, "psu")])
def test_frobenius_schur_indicators(N, K, theory):
    # nu_2(k) = sum_ij N_ij^k d_i d_j (theta_i / theta_j)^2 / sum_i d_i^2,
    # exactly: each is -1, 0 or 1, and 0 exactly when k is not self-dual;
    # fusion off su data is the Verlinde sum of the oracle
    data = build_modular_data(N, K, theory)
    fuse = fusion_coefficients if theory == "su" else verlinde_fusion
    labels = data.labels
    unit = labels[data.unit_index]
    # d_i theta_i^2, so a term is N_ij^k x_i conj(x_j); d_i is real
    xs = [d * t * t for d, t in zip(data.dims, data.twists)]
    totals = {k: data.ctx.zero() for k in labels}
    self_dual = set()
    for lam, x in zip(labels, xs):
        for mu, y in zip(labels, xs):
            out = fuse(data, lam, mu)
            if lam == mu and out.get(unit):
                self_dual.add(lam)
            term = x * y.conjugate()
            for nu, count in out.items():
                totals[nu] = totals[nu] + count * term
    indicators = {}
    for k, total in totals.items():
        nu = next((v for v in (-1, 0, 1) if total == v * data.omega), None)
        assert nu is not None, (k, total)
        assert (nu != 0) == (k in self_dual), k
        indicators[k] = nu
    if (N, K, theory) == (2, 3, "su"):
        assert -1 in indicators.values()


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
    got = plain_dot(S, [[x.conjugate() for x in row] for row in S])
    is_omega_identity = True
    for i in range(n):
        for j in range(n):
            acc = ctx.zero()
            for k in range(n):
                acc = acc + S[i][k] * S[j][k].conjugate()
            assert got[i][j] == acc, (i, j)
            assert (got[i][j].nums, got[i][j].den) == (acc.nums, acc.den)
            is_omega_identity &= acc == (data.omega if i == j else 0)
    assert data.report["modular"] is modular is is_omega_identity


def _alternant_by_permutations(ctx, exponents, powers):
    n = len(powers)
    total = ctx.zero()
    for pi, sign in _signed_permutations(n):
        term = ctx.zeta(sum(exponents[i] * powers[pi[i]] for i in range(n)))
        total = total + term if sign == 1 else total - term
    return total


@pytest.mark.parametrize("ctx", [
    su_parameters(2, 3), su_parameters(3, 3), su_parameters(4, 2),
    su_parameters(5, 2), su_parameters(4, 1), solve_framing_reduced(4, 2)[2]],
    ids=["su23", "su33", "su42", "su52", "su41", "reduced42"])
def test_alternant_histogram_matches_permutation_sum(ctx):
    rng = random.Random(ctx.M)
    # N x N as in s_matrix_entry, K x K as in the complement build of S, and
    # 1 x 1, whose one cell needs its own getter
    for size in sorted({ctx.N, ctx.K, 1}):
        for _ in range(20):
            exponents = [rng.randrange(ctx.M) for _ in range(size)]
            # repeated powers give a vanishing alternant
            powers = [rng.randrange(-ctx.M, ctx.M) for _ in range(size)]
            got = _alternant(ctx, exponents, powers)
            want = _alternant_by_permutations(ctx, exponents, powers)
            assert (got.nums, got.den) == (want.nums, want.den), size
            # the shift that the S build folds in, over the exponents hit
            shift = rng.randrange(ctx.M)
            terms = _alternant_terms(ctx, exponents, powers, shift)
            assert all(0 <= k < ctx.M for k in terms)
            assert sum(map(abs, terms.values())) <= math.factorial(size)
            got = ctx.zero()
            for k, count in terms.items():
                got = got + count * ctx.zeta(k)
            want = ctx.zeta(shift) * want
            assert (got.nums, got.den) == (want.nums, want.den), size


# ---------------------------------------------------------------------------
# the Kac-Peterson S build against the per-entry route
# ---------------------------------------------------------------------------

S_ORACLE_GRID = [(2, 2), (2, 3), (3, 3), (4, 2), (4, 3), (2, 9), (5, 2),
                 (3, 5), (4, 4), (5, 3)]


def _assert_s_matches_entries(data):
    ctx = data.ctx
    columns = [s_matrix_column(ctx, mu) for mu in data.labels]
    for lam, row in zip(data.labels, data.s_matrix):
        for mu, col, x in zip(data.labels, columns, row):
            want = s_matrix_entry(ctx, lam, mu, col)
            assert (x.nums, x.den) == (want.nums, want.den), (lam, mu)


@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("N,K", S_ORACLE_GRID)
def test_built_s_matches_entry_oracle(N, K, theory):
    _assert_s_matches_entries(build_modular_data(N, K, theory))


@pytest.mark.parametrize("N,K", [(3, 3), (4, 2), (3, 6), (4, 6)])
def test_built_s_matches_entry_oracle_at_column_powers(N, K):
    data = build_modular_data(N, K, "reduced")
    # the crossing term of the column object is exercised
    assert any(lab.i > 0 for lab in data.labels)
    _assert_s_matches_entries(data)


@pytest.mark.parametrize("N,K,theory", [
    (3, 1, "su"), (4, 1, "su"), (4, 2, "su"), (4, 3, "su"), (5, 2, "su"),
    (5, 3, "su"), (6, 2, "su"), (4, 2, "reduced"), (5, 3, "reduced"),
    (6, 3, "reduced"), (7, 2, "psu")])
def test_complement_s_matches_entry_oracle(N, K, theory):
    # K < N: S is built from K x K alternants of the complements, the
    # oracle from N x N alternants
    _assert_s_matches_entries(build_modular_data(N, K, theory))


def _packed_s_and_conj(ctx, S, conj=None):
    """The arguments of _is_modular but omega for S and conj(S) (or the
    rows ``conj`` in its place): both over one denominator D, so the gate
    reads X = D S against scale D^2, packed at the build's width rule."""
    if conj is None:
        conj = [[x.conjugate() for x in row] for row in S]
    n = len(S)
    vecs, den = _common_den([x for row in S + conj for x in row])
    largest = max(abs(x) for v in vecs for x in v)
    width = _fit(n * ctx.degree * largest ** 2, _GATE_WORD_BITS)
    packed = [_pack(v, width) for v in vecs]
    rows = [packed[i:i + n] for i in range(0, 2 * n * n, n)]
    return ctx, rows[:n], rows[n:], width, ctx.from_rational(den * den)


def _modular_in_full(ctx, S, omega):
    """S conj(S) = omega I, checked on all n^2 entries as scalars."""
    zero = ctx.zero()
    rows = plain_dot(S, [[x.conjugate() for x in row] for row in S])
    return all(x == (omega if i == j else zero)
               for i, row in enumerate(rows) for j, x in enumerate(row))


@pytest.mark.parametrize("N,K,theory,modular", [
    (3, 3, "su", True), (4, 2, "su", True), (5, 2, "reduced", True),
    (2, 4, "reduced", True), (3, 3, "psu", False)])
def test_modularity_on_half_agrees_with_all_entries(N, K, theory, modular):
    data = build_modular_data(N, K, theory)
    ctx, S, omega = data.ctx, data.s_matrix, data.omega
    assert _is_modular(*_packed_s_and_conj(ctx, S), omega) is modular
    assert _modular_in_full(ctx, S, omega) is modular
    rng = random.Random(N * 100 + K)
    n = len(S)
    # one entry spoiled strictly below, then strictly above, the diagonal
    for lower in (True, False):
        for _ in range(3):
            i, j = sorted(rng.sample(range(n), 2), reverse=lower)
            spoiled = [list(row) for row in S]
            spoiled[i][j] = S[i][j] + ctx.zeta(rng.randrange(ctx.M))
            assert _is_modular(*_packed_s_and_conj(ctx, spoiled),
                               omega) is False, (i, j)
            assert _modular_in_full(ctx, spoiled, omega) is False, (i, j)


@pytest.mark.parametrize("N,K,theory", [(3, 2, "su"), (4, 2, "reduced")])
def test_modularity_on_half_sees_every_entry(N, K, theory):
    # conj(S) rows that move the product S conj(S) away from omega I by a
    # Hermitian perturbation at exactly one pair (i, j), i <= j: adding
    # conj(S_i) delta / omega to row j of conj(S) adds delta at (i, j) alone
    data = build_modular_data(N, K, theory)
    ctx, S, omega = data.ctx, data.s_matrix, data.omega
    conj = [[x.conjugate() for x in row] for row in S]
    inv = data._omega_inv
    rng = random.Random(N * 100 + K)
    n = len(S)
    for i in range(n):
        for j in range(i, n):
            delta = ctx.one() if i == j else ctx.zeta(rng.randrange(ctx.M))
            moved = [list(row) for row in conj]
            moved[j] = [y + x * delta * inv for x, y in zip(conj[i], moved[j])]
            if i != j:
                moved[i] = [y + x * delta.conjugate() * inv
                            for x, y in zip(conj[j], moved[i])]
            product = plain_dot(S, moved)
            assert product[i][j] == (omega if i == j else 0) + delta
            assert _is_modular(*_packed_s_and_conj(ctx, S, moved),
                               omega) is False, (i, j)


@pytest.mark.parametrize("N,K,theory,c_kind", [
    # c = 1/A(empty, empty) is complex at (2,3) and (2,6), imaginary at
    # (3,3); K < N at (4,2), (5,3) and (7,2); su(5,3) packs its gate rows
    # at an exact width past the word widths, the others in words
    (2, 3, "su", "complex"), (2, 6, "su", "complex"), (3, 3, "su", "imag"),
    (3, 3, "reduced", "imag"), (2, 6, "reduced", "complex"),
    (2, 3, "psu", "complex"), (4, 2, "su", "real"),
    (5, 3, "reduced", "imag"), (7, 2, "psu", "imag"), (5, 3, "su", "imag")])
def test_packed_conj_rows_are_the_entrywise_conjugates(N, K, theory, c_kind):
    # the gate's rows of S/c and of conj(S/c), both packed from the counts:
    # each conj entry is the packed conjugate of its entry, c times an
    # entry is the canonical entry of S, and the gate's scale is 1/|c|^2
    data = build_modular_data(N, K, theory)
    ctx, S, deg = data.ctx, data.s_matrix, data.ctx.degree
    S_built, rows, conj, width, scale, symmetric = _s_matrix(ctx, data.labels)
    assert symmetric
    assert [[(x.nums, x.den) for x in row] for row in S_built] == \
        [[(x.nums, x.den) for x in row] for row in S]
    assert (width in _WORDS) is ((N, K, theory) != (5, 3, "su"))
    u = data.unit_index
    c = S[u][u] * CycScalar(ctx, _unpack(ctx, rows[u][u], deg, width)).invert()
    assert {"real": c == c.conjugate(), "imag": c == -c.conjugate(),
            "complex": c not in (c.conjugate(), -c.conjugate())}[c_kind]
    assert c * c.conjugate() * scale == 1
    for i, (row, conj_row) in enumerate(zip(rows, conj)):
        for j, (x, y) in enumerate(zip(row, conj_row)):
            nums = _unpack(ctx, x, deg, width)
            assert _pack(nums, width) == x
            assert y == _pack(ctx.power_sum(nums, -1), width), (i, j)
            assert c * CycScalar(ctx, nums) == S[i][j], (i, j)


def _count_calls_below_diagonal(monkeypatch, ctx, spoil=None):
    """Wrap the alternant counts of the S build and return how many calls
    take the counts of a pair below the diagonal: a call whose transposed
    arguments, shift included, an earlier call took (its mirror, above the
    diagonal).  The call numbered ``spoil`` among them gets its shift plus
    one."""
    M = ctx.M
    t = (-2 if ctx.K < ctx.N else 2) * ctx.s_exp
    pending = {}  # the keys of calls above the diagonal not yet mirrored
    lower = 0

    def wrapped(ring, exponents, powers, shift=0):
        nonlocal lower
        # t * x mod M is one-to-one on the indices x < N + K
        key = (tuple(e % M for e in exponents),
               tuple(t * p % M for p in powers), shift % M)
        mirror = (key[1], key[0], key[2])
        if mirror != key:
            if pending.get(mirror):
                pending[mirror] -= 1
                if lower == spoil:
                    shift += 1
                lower += 1
            else:
                pending[key] = pending.get(key, 0) + 1
        return _alternant_terms(ring, exponents, powers, shift)

    monkeypatch.setattr("heckemod.moddata._alternant_terms", wrapped)
    return lambda: lower


@pytest.mark.parametrize("N,K,theory", [
    (3, 3, "su"), (4, 2, "su"), (3, 3, "reduced")])
def test_symmetry_gate_sees_one_count_below_the_diagonal(
        N, K, theory, monkeypatch):
    # below the diagonal the build takes only the counts, so a wrong shift
    # there changes no entry and is seen by s_symmetric alone; (4, 2)
    # takes the K x K alternants of the complements
    data = build_modular_data(N, K, theory)
    ctx, n = data.ctx, len(data.labels)
    lower = _count_calls_below_diagonal(monkeypatch, ctx)
    build_modular_data(N, K, theory)
    total = lower()
    # reduced labels that share a diagram share their alternant's
    # arguments, so only su data mirrors every pair this way
    assert 0 < total <= n * (n - 1) // 2
    if theory == "su":
        assert total == n * (n - 1) // 2
    rng = random.Random(N * 100 + K)
    for spoil in rng.sample(range(total), 3):
        lower = _count_calls_below_diagonal(monkeypatch, ctx, spoil)
        with pytest.raises(ScalarError) as err:
            build_modular_data(N, K, theory)
        assert str(err.value).endswith("['s_symmetric']"), spoil
        assert lower() == total


def _normalizer(ctx):
    """1/A(rho, rho), the inverse Vandermonde alternant of the empty
    diagram."""
    rho = list(range(ctx.N - 1, -1, -1))
    return _alternant(ctx, [2 * ctx.s_exp * r for r in rho], rho).invert()


@pytest.mark.parametrize("N,K", S_ORACLE_GRID + [(3, 6), (4, 6)])
def test_normalizer_is_one_constant_for_every_label(N, K):
    alpha, beta, red = solve_framing_reduced(N, K)
    for ctx, labels in ((su_parameters(N, K), enumerate_sector(N, K, "strict")),
                        (red, orbit_representatives(N, K, alpha, beta)[0])):
        c = _normalizer(ctx)
        for mu in labels:
            _, inv_vandermonde, dim = s_matrix_column(ctx, mu)
            size = mu.diagram.size if isinstance(mu, ReducedLabel) else mu.size
            assert inv_vandermonde * dim * ctx.s((N - 1) * size) == c, mu


_numerator = st.integers(min_value=-2**40, max_value=2**40)


@pytest.mark.parametrize("ctx", [
    su_parameters(2, 3), su_parameters(3, 3), solve_framing_reduced(4, 2)[2]],
    ids=["su23", "su33", "reduced42"])
def test_packed_combination_at_its_width_bound(ctx):
    M, deg = ctx.M, ctx.degree

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_numerator, min_size=deg, max_size=deg).filter(any),
           st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=1, max_value=720),
           st.lists(st.integers(min_value=-720, max_value=720),
                    min_size=M, max_size=M))
    def check(nums, den, terms, raw):
        c = ctx.from_coeffs([Fraction(x, den) for x in nums])
        scaled = [c * ctx.zeta(k) for k in range(M)]
        vecs, common = _common_den(scaled)
        bound = max(abs(x) for v in vecs for x in v)
        width = (terms * bound).bit_length() + 1

        def combination(weights, width):
            row = [_pack(v, width) for v in vecs]
            return _from_packed(ctx, _packed_combination(row, weights), deg,
                                width, common)
        # any weights with sum |w| <= terms, on the powers they name; a
        # weight of 0 stays in, as a count that cancelled
        weights, budget = {}, terms
        for k, w in enumerate(raw):
            w = max(-budget, min(budget, w))
            budget -= abs(w)
            if w or k % 7 == 0:
                weights[k] = w
        want = ctx.zero()
        for k, w in weights.items():
            want = want + w * scaled[k]
        got = combination(weights, width)
        assert (got.nums, got.den) == (want.nums, want.den)
        # every weight on one power whose numerator reaches the bound: that
        # field of the sum is exactly terms * bound
        k, i = next((k, i) for k, vec in enumerate(vecs)
                    for i, x in enumerate(vec) if abs(x) == bound)
        weights = {k: terms if vecs[k][i] > 0 else -terms}
        want = weights[k] * scaled[k]
        got = combination(weights, width)
        assert (got.nums, got.den) == (want.nums, want.den)
        # one bit narrower the field no longer holds the sum: it reads
        # another value, or, when width - 1 is a word width, the top field
        # cannot be read at all (scalars._words raises OverflowError)
        try:
            narrow = combination(weights, width - 1)
        except OverflowError:
            narrow = None
        assert narrow != want

    check()


@pytest.mark.parametrize("ctx", [
    su_parameters(2, 3), su_parameters(3, 3), su_parameters(4, 2),
    solve_framing_reduced(3, 3)[2], solve_framing_reduced(2, 6)[2]],
    ids=["su23", "su33", "su42", "reduced33", "reduced26"])
def test_quantum_integer_is_the_sum_of_powers(ctx):
    L = ctx.N + ctx.K
    gap = ctx.s() - ctx.s(-1)
    for n in range(-3 * L, 3 * L + 1):
        m = abs(n)
        want = ctx.zero()
        for k in range(m):
            want = want + ctx.s(m - 1 - 2 * k)
        if n < 0:
            want = -want
        got = ctx.quantum_integer(n)
        assert (got.nums, got.den) == (want.nums, want.den), n
        assert got * gap == ctx.s(n) - ctx.s(-n), n


@pytest.mark.parametrize("N,K,theory", [
    (2, 2, "su"), (3, 3, "su"), (3, 3, "psu"), (2, 6, "psu"),
    (3, 3, "reduced"), (4, 2, "reduced")])
def test_delta_minus_matches_inverse_twists(N, K, theory):
    data = build_modular_data(N, K, theory)
    want = data.ctx.zero()
    for d, t in zip(data.dims, data.twists):
        want = want + t.invert() * d * d
    assert (data.delta_minus.nums, data.delta_minus.den) == (want.nums, want.den)


# ---------------------------------------------------------------------------
# the modular representation: S^2 = omega C and (S T^-1)^3 = Delta_- S^2
# ---------------------------------------------------------------------------

REPRESENTATION_GRID = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2),
                       (3, 4), (4, 3), (5, 2)]
REPRESENTATION_CASES = (
    [(N, K, theory) for N, K in REPRESENTATION_GRID
     for theory in ("su", "reduced")]
    # the degree-zero theory is modular only at coprime rank-levels
    + [(N, K, "psu") for N, K in REPRESENTATION_GRID if math.gcd(N, K) == 1])


def _matmul(X, Y):
    """X Y, as dot products of the rows of X with the columns of Y."""
    return plain_dot(X, [list(col) for col in zip(*Y)])


def _dual_index(data) -> list:
    """The index of the dual of each label: C as a permutation.  A reduced
    dual is mapped to the representative of its orbit."""
    N = data.N
    if data.theory != "reduced":
        return [data.index(star_involution(lab, N)) for lab in data.labels]
    rep = orbit_representatives(N, data.K, data.alpha, data.beta)[1]
    return [data.index(rep[star_involution(lab, N, data.alpha)])
            for lab in data.labels]


def _s_twisted_cubed(data, twists):
    st = [[x * t for x, t in zip(row, twists)] for row in data.s_matrix]
    return _matmul(_matmul(st, st), st)


@pytest.mark.parametrize("N,K,theory", REPRESENTATION_CASES)
def test_s_squared_is_omega_times_charge_conjugation(N, K, theory):
    data = build_modular_data(N, K, theory)
    dual = _dual_index(data)
    zero = data.ctx.zero()
    for i, row in enumerate(_matmul(data.s_matrix, data.s_matrix)):
        for j, x in enumerate(row):
            assert x == (data.omega if j == dual[i] else zero), (i, j)


@pytest.mark.parametrize("N,K,theory", REPRESENTATION_CASES)
def test_s_t_inverse_cubed_is_delta_minus_s_squared(N, K, theory):
    data = build_modular_data(N, K, theory)
    # a twist is a root of unity: T^-1 = diag(conj(theta))
    cube = _s_twisted_cubed(data, [t.conjugate() for t in data.twists])
    s2 = _matmul(data.s_matrix, data.s_matrix)
    assert cube == [[data.delta_minus * x for x in row] for row in s2]


@pytest.mark.parametrize("N,K", [(3, 2), (3, 3), (4, 2), (3, 4)])
def test_s_t_cubed_is_not_delta_plus_s_squared(N, K):
    # the convention check: with T = diag(theta) itself the relation
    # (S T)^3 = Delta_+ S^2 fails, so T enters the representation inverted
    data = build_modular_data(N, K, "su")
    s2 = _matmul(data.s_matrix, data.s_matrix)
    assert _s_twisted_cubed(data, data.twists) != \
        [[data.delta_plus * x for x in row] for row in s2]


# ---------------------------------------------------------------------------
# Galois symmetry of S (Coste-Gannon): for l coprime to M, sigma_l(zeta) =
# zeta^l maps the column S_{lam,mu}/S_{0,mu} to the column of a label pi_l(mu)
# ---------------------------------------------------------------------------

GALOIS_GRID = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2),
               (4, 4), (5, 3), (3, 4), (2, 6)]
GALOIS_CASES = (
    [(N, K, theory) for N, K in GALOIS_GRID for theory in ("su", "reduced")]
    + [(N, K, "psu") for N, K in GALOIS_GRID if math.gcd(N, K) == 1])


def _galois(x, ell):
    """sigma_ell(x): zeta^i -> zeta^(ell i) on the power basis."""
    return CycScalar(x.ring, x.ring.power_sum(x.nums, ell), x.den)


@pytest.mark.parametrize("N,K,theory", GALOIS_CASES)
def test_galois_action_permutes_s_columns(N, K, theory):
    data = build_modular_data(N, K, theory)
    ctx, S = data.ctx, data.s_matrix
    for row in S:
        for x in row:
            assert _galois(x, -1) == x.conjugate()
    n = len(S)
    key = {}
    for mu in range(n):
        inv = S[0][mu].invert()
        column = tuple(S[lam][mu] * inv for lam in range(n))
        key[column] = mu
    assert len(key) == n
    for ell in range(2, ctx.M):
        if math.gcd(ell, ctx.M) == 1:
            image = [key.get(tuple(_galois(x, ell) for x in column))
                     for column in key]
            assert None not in image and sorted(image) == list(range(n)), \
                (ell, image)
