import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckemod.scalars import (
    _WORDS,
    ExtScalar,
    ScalarError,
    _field_bias,
    _pack,
    _reduce_phi,
    _unpack,
    _word_format,
    _words,
    cyclotomic_polynomial,
    reduced_framing_split,
    scalar_to_json,
    solve_framing_reduced,
    su_parameters,
)

from helpers import scalar_from_json


@pytest.fixture(scope="module")
def ctx22():
    return su_parameters(2, 2)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    # x^8 + 1 has degree phi(16) = 8
    assert cyclotomic_polynomial(16) == (1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)


def test_zeta_times_conjugate_is_one(ctx22):
    z = ctx22.zeta(1)
    assert z * ctx22.zeta(ctx22.M - 1) == ctx22.one()
    assert z * z.conjugate() == ctx22.one()


def test_invert_self_check(ctx22):
    x = ctx22.zeta(1) + ctx22.one()
    y = x.invert()
    assert x * y == ctx22.one()


def test_conjugate_involution_random(ctx22):
    rng = random.Random(7)
    for _ in range(100):
        x = ctx22.from_coeffs(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ctx22.degree)])
        assert x.conjugate().conjugate() == x


def test_embedding_homomorphism(ctx22):
    rng = random.Random(11)
    for _ in range(20):
        x = ctx22.from_coeffs([rng.randint(-5, 5) for _ in range(ctx22.degree)])
        y = ctx22.from_coeffs([rng.randint(-5, 5) for _ in range(ctx22.degree)])
        lhs = (x * y).embed()
        rhs = x.embed() * y.embed()
        assert abs(lhs - rhs) < 1e-10


def test_embed_one(ctx22):
    val = ctx22.one().embed()
    assert abs(val - 1) < 1e-12


def test_embed_quantum_two_is_sqrt2(ctx22):
    # [2] = s + s^-1 with s = exp(-i pi/4): equals sqrt(2)
    val = ctx22.quantum_integer(2).embed()
    assert abs(val - mpmath.sqrt(2)) < 1e-12


def test_quantum_integers_basic(ctx22):
    assert ctx22.quantum_integer(0).is_zero()
    assert ctx22.quantum_integer(1) == ctx22.one()
    assert ctx22.quantum_integer(2) == ctx22.s(1) + ctx22.s(-1)
    assert ctx22.quantum_integer(3) == ctx22.one()
    assert ctx22.quantum_integer(4).is_zero()  # N + K = 4
    assert ctx22.quantum_integer_invertible(2)
    assert not ctx22.quantum_integer_invertible(4)


def test_quantum_integer_division_form(ctx22):
    # [n] agrees with (s^n - s^-n)/(s - s^-1)
    diff = ctx22.s(1) - ctx22.s(-1)
    for n in range(1, 8):
        expected = (ctx22.s(n) - ctx22.s(-n)) / diff
        assert ctx22.quantum_integer(n) == expected


@pytest.mark.parametrize("N,K", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)])
def test_su_parameters_grid(N, K):
    ctx = su_parameters(N, K)
    assert ctx.M == 2 * N * (N + K)
    # a^N * s = 1
    assert ctx.a(N) * ctx.s() == ctx.one()
    # v = s^-N
    assert ctx.v() == ctx.s(-N)
    assert ctx.multiplicative_order(ctx.s()) == 2 * (N + K)
    assert ctx.quantum_integer(N + K).is_zero()


def test_su_parameters_examples():
    ctx = su_parameters(2, 2)
    assert ctx.M == 16 and ctx.a_exp == 1 and ctx.s_exp == 14
    assert su_parameters(3, 2).M == 30


def test_quantum_identity_grid():
    # [m][n+1] - [m+1][n] = [m-n]
    for (N, K) in [(2, 2), (3, 2), (2, 3)]:
        ctx = su_parameters(N, K)
        for m in range(1, N + K):
            for n in range(0, m):
                lhs = (ctx.quantum_integer(m) * ctx.quantum_integer(n + 1)
                       - ctx.quantum_integer(m + 1) * ctx.quantum_integer(n))
                assert lhs == ctx.quantum_integer(m - n)


def test_factorial_invertible():
    for (N, K) in [(2, 2), (3, 3), (4, 2)]:
        ctx = su_parameters(N, K)
        for n in range(N + K):
            fact = ctx.quantum_factorial(n)
            assert fact * fact.invert() == ctx.one()


def test_division_by_zero(ctx22):
    with pytest.raises(ScalarError):
        ctx22.zero().invert()


def test_reduced_framing_split():
    assert reduced_framing_split(2, 2) == (1, 2, False)
    assert reduced_framing_split(3, 3) == (3, 1, False)
    assert reduced_framing_split(2, 4) == (1, 2, False)
    assert reduced_framing_split(4, 2)[2] is True  # N' = 2 even, N + K even


@pytest.mark.parametrize("N,K,alpha,beta", [
    (2, 2, 1, 2),
    (3, 3, 3, 1),
    (2, 4, 1, 2),
    (2, 3, 1, 1),
    (3, 2, 1, 1),
    (4, 2, 2, 1),
])
def test_solve_framing_reduced(N, K, alpha, beta):
    a, b, ctx = solve_framing_reduced(N, K)
    assert (a, b) == (alpha, beta)
    # the verification inside solve_framing_reduced already checked the
    # congruences; re-check the headline ones here
    one = ctx.one()
    if not ((N + K) % 2 == 0 and (N // math.gcd(ctx.N, ctx.K)) % 2 == 0):
        assert (ctx.a(N) * ctx.s()) ** a == one
        eps = (-1) ** (N + K + 1)
        assert (ctx.a(K) * ctx.s(-1)) ** b == ctx.from_rational(eps)


def test_reduced_s_embedding():
    # relative to the full theory's s = exp(-i pi/(N+K)):
    # d even -> s; d odd, N+K odd -> -s; d odd, N+K even -> -s^-1
    for (N, K) in [(2, 2), (2, 4), (3, 3), (2, 3), (3, 2), (4, 2)]:
        _, _, ctx = solve_framing_reduced(N, K)
        target = mpmath.exp(-1j * mpmath.pi / (N + K))
        if math.gcd(ctx.N, ctx.K) % 2 == 1:
            target = -target if (N + K) % 2 == 1 else -1 / target
        assert abs(ctx.s().embed() - target) < 1e-10


def test_json_round_trip(ctx22):
    rng = random.Random(3)
    for _ in range(10):
        x = ctx22.from_coeffs(
            [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(ctx22.degree)])
        doc = scalar_to_json(x)
        assert scalar_from_json(doc, ctx22) == x
        assert doc["order"] == 16


def test_pow_negative(ctx22):
    x = ctx22.quantum_integer(2)
    assert x ** (-2) == (x * x).invert()


@pytest.mark.parametrize("ctx", [
    su_parameters(2, 2), su_parameters(3, 3), solve_framing_reduced(2, 6)[2]],
    ids=["su22", "su33", "reduced26"])
def test_pow_matches_repeated_products(ctx):
    rng = random.Random(ctx.M)
    for _ in range(3):
        x = ctx.from_coeffs([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                             for _ in range(ctx.degree)])
        assert not x.is_zero()
        for n in range(-3, 9):
            base = x.invert() if n < 0 else x
            want = ctx.one()
            for _ in range(abs(n)):
                want = want * base
            got = x ** n
            assert (got.nums, got.den) == (want.nums, want.den), n


def test_pow_of_zero():
    for ctx in (su_parameters(2, 2), su_parameters(3, 3),
                solve_framing_reduced(2, 6)[2]):
        zero = ctx.zero()
        assert zero ** 0 == ctx.one()
        assert (zero ** 3).is_zero()
        with pytest.raises(ScalarError):
            zero ** -1


def test_ext_scalar_zero_hash_agrees_with_eq(ctx22):
    omega = ctx22.from_rational(4)
    zero0 = ExtScalar(ctx22.zero(), 0, "su", omega)
    zero1 = ExtScalar(ctx22.zero(), 1, "su", omega)
    assert zero0 == zero1
    assert hash(zero0) == hash(zero1)
    assert len({zero0, zero1}) == 1
    one0 = ExtScalar(ctx22.one(), 0, "su", omega)
    one1 = ExtScalar(ctx22.one(), 1, "su", omega)
    assert one0 != one1 and len({one0, one1}) == 2


@pytest.mark.parametrize("ctx", [
    su_parameters(2, 2), su_parameters(2, 3), su_parameters(3, 3),
    solve_framing_reduced(2, 6)[2]],
    ids=["su22", "su23", "su33", "reduced26"])
def test_rational_scalar_hashes_as_its_rational(ctx):
    # a rational scalar equals its int or Fraction, so it must hash as it
    # and stand for it as a set member or a dict key
    rng = random.Random(ctx.M)
    qs = [0, 1, -1] + [Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                       for _ in range(20)]
    for q in qs:
        x = ctx.from_rational(q)
        assert x == q and hash(x) == hash(q)
        assert len({x, q}) == 1
        assert {q: "x"}.get(x) == "x" and {x: "x"}.get(q) == "x"
    assert len({ctx.one(), 1}) == 1
    # an irrational scalar still differs from every rational
    z = ctx.zeta(1)
    assert all(z != q for q in qs) and {1: "x"}.get(z) is None


# ---------------------------------------------------------------------------
# Fraction reference for the integer core: schoolbook product with long
# division by Phi_M, and the extended Euclidean inverse over Q
# ---------------------------------------------------------------------------

def _ref_reduce(phi, poly):
    """poly mod the monic phi, as a Fraction list of length deg(phi)."""
    deg = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * deg
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for i, p in enumerate(phi):
                poly[k - deg + i] -= c * p
    return poly[:deg]


def _ref_mul(phi, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(phi, prod)


def _ref_trim(poly):
    poly = list(poly)
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _ref_divmod(num, den):
    num, den = _ref_trim(num), _ref_trim(den)
    quot = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den):
        shift = len(num) - len(den)
        lead = num[-1] / den[-1]
        quot[shift] += lead
        for i, c in enumerate(den):
            num[shift + i] -= lead * c
        num = _ref_trim(num)
    return quot, num


def _ref_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _ref_inverse(phi, a):
    r0, r1 = [Fraction(c) for c in phi], list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, rem = _ref_divmod(r0, r1)
        r0, r1 = r1, rem
        prod = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                prod[i + j] += x * y
        s0, s1 = s1, _ref_sub(s0, prod)
    r0 = _ref_trim(r0)
    assert len(r0) == 1
    return _ref_reduce(phi, [c / r0[0] for c in s0])


def _ref_conjugate(phi, M, a):
    out = [Fraction(0)] * (len(phi) - 1)
    for k, c in enumerate(a):
        zeta_inv = _ref_reduce(phi, [0] * ((-k) % M) + [1])
        out = [x + c * z for x, z in zip(out, zeta_inv)]
    return out


# field degrees 8, 16 and 32, with Phi_20, Phi_48 and Phi_80
ORACLE_RINGS = {deg: su_parameters(N, K)
                for deg, (N, K) in {8: (2, 3), 16: (4, 2), 32: (5, 3)}.items()}

_coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def _scalars(draw, deg):
    ctx = ORACLE_RINGS[deg]
    coeffs = draw(st.lists(_coefficient, min_size=deg, max_size=deg))
    return ctx.from_coeffs(coeffs)


def _assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert len(x.nums) == x.ring.degree


oracle = settings(max_examples=20, deadline=None)


@pytest.mark.parametrize("deg", sorted(ORACLE_RINGS))
def test_mul_matches_fraction_reference(deg):
    ctx = ORACLE_RINGS[deg]

    @oracle
    @given(_scalars(deg), _scalars(deg))
    def check(x, y):
        prod = x * y
        _assert_canonical(prod)
        assert list(prod.coeffs) == _ref_mul(ctx.cyclotomic_poly,
                                             x.coeffs, y.coeffs)

    check()


@pytest.mark.parametrize("deg", sorted(ORACLE_RINGS))
def test_invert_matches_fraction_reference(deg):
    ctx = ORACLE_RINGS[deg]

    @oracle
    @given(_scalars(deg))
    def check(x):
        if x.is_zero():
            with pytest.raises(ScalarError):
                x.invert()
            return
        inv = x.invert()
        _assert_canonical(inv)
        assert list(inv.coeffs) == _ref_inverse(ctx.cyclotomic_poly, x.coeffs)
        assert x * inv == ctx.one()

    check()


@pytest.mark.parametrize("deg", sorted(ORACLE_RINGS))
def test_conjugate_matches_fraction_reference(deg):
    ctx = ORACLE_RINGS[deg]
    M = ctx.M
    # zeta^k as x^k mod Phi_M; zeta(), conjugation and the multiples
    # x zeta^k of the S build are all one power sum over the ring's table
    powers = [_ref_reduce(ctx.cyclotomic_poly, [0] * k + [1])
              for k in range(M)]
    assert [list(ctx.zeta(k).coeffs) for k in range(M)] == powers
    powers = [[int(c) for c in p] for p in powers]  # Phi_M is monic

    @oracle
    @given(_scalars(deg))
    def check(x):
        conj = x.conjugate()
        _assert_canonical(conj)
        assert list(conj.coeffs) == _ref_conjugate(ctx.cyclotomic_poly,
                                                   ctx.M, x.coeffs)
        # x zeta^k = sum_i x_i zeta^(i + k), over the denominator of x
        want = [tuple(sum(c * powers[(i + k) % M][t]
                          for i, c in enumerate(x.nums))
                      for t in range(deg)) for k in range(M)]
        assert [ctx.power_sum(x.nums, 1, k) for k in range(M)] == want

    check()


@pytest.mark.parametrize("deg", sorted(ORACLE_RINGS))
@pytest.mark.parametrize("step", [1, -1, -2, 7])
def test_power_sum_matches_fraction_reference(deg, step):
    # sum_i c_i zeta^(start + i step) against the polynomial with c_i at
    # x^((start + i step) mod M), reduced by long division by Phi_M; 7 is a
    # unit mod M = 20, 48 and 80
    ctx = ORACLE_RINGS[deg]
    M = ctx.M
    rng = random.Random(deg * 10 + step)
    for length in (1, deg, M - 1, M + 3, 2 * M + 1):
        coeffs = [rng.randint(-9, 9) for _ in range(length)]
        for start in (-M - 3, -1, 0, 5, M, 2 * M + 5):
            poly = [0] * M
            for i, c in enumerate(coeffs):
                poly[(start + i * step) % M] += c
            got = ctx.power_sum(coeffs, step, start)
            assert list(got) == _ref_reduce(ctx.cyclotomic_poly, poly)
    assert ctx.power_sum([]) == (0,) * deg


@pytest.mark.parametrize("deg", sorted(ORACLE_RINGS))
def test_rotation_spread_is_the_widest_window(deg):
    # G against its definition on the powers of zeta reduced by Fraction
    # long division, and G is reached: the signs of the widest window,
    # rotated onto it, give a coefficient G
    ctx = ORACLE_RINGS[deg]
    M = ctx.M
    powers = [_ref_reduce(ctx.cyclotomic_poly, [0] * m + [1])
              for m in range(M)]
    want, u, a = max((sum(abs(powers[(a + k) % M][u]) for k in range(deg)),
                      u, a) for u in range(deg) for a in range(M))
    assert ctx.rotation_spread == want
    signs = [(c > 0) - (c < 0) for c in
             (powers[(a + k) % M][u] for k in range(deg))]
    assert ctx.power_sum(signs, 1, a)[u] == want


@pytest.mark.parametrize("deg", sorted(ORACLE_RINGS))
def test_canonical_form_and_json_round_trip(deg):
    ctx = ORACLE_RINGS[deg]

    @oracle
    @given(_scalars(deg), _scalars(deg))
    def check(x, y):
        # the same value reached by different routes has one representation
        for other in ((x + y) - y, -(-x), x - y + y,
                      ctx.from_coeffs(x.coeffs)):
            _assert_canonical(other)
            assert (other.nums, other.den) == (x.nums, x.den)
            assert other == x and hash(other) == hash(x)
        if not y.is_zero():
            z = x * y / y
            assert (z.nums, z.den, hash(z)) == (x.nums, x.den, hash(x))
        doc = scalar_to_json(x)
        assert doc["num"] == [c.numerator for c in x.coeffs]
        assert doc["den"] == [c.denominator for c in x.coeffs]
        assert all(math.gcd(n, d) == 1 and d > 0
                   for n, d in zip(doc["num"], doc["den"]))
        back = scalar_from_json(doc, ctx)
        assert (back.nums, back.den) == (x.nums, x.den)

    check()


# ---------------------------------------------------------------------------
# the packed-integer format: the word read against the field read
# ---------------------------------------------------------------------------

def _fields_one_by_one(v, count, width):
    """The lowest count signed fields of v, one shift and mask each."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    v += _field_bias(count, width)
    return [(v >> t & mask) - half for t in range(0, count * width, width)]


@pytest.mark.parametrize("width", sorted(_WORDS))
def test_word_read_matches_field_read(width):
    # the one-conversion word read against the shift-and-mask read, on
    # fields at the edges of the signed width (32 and 64 bits among them);
    # a top field one past the edge does not fit the bytes and raises
    top = (1 << (width - 1)) - 1
    field = st.one_of(st.sampled_from([top, -top, top - 1, -top + 1, 0, 1,
                                       -1]),
                      st.integers(-top, top))
    ctx = su_parameters(3, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(field, min_size=1, max_size=2 * ctx.degree - 1),
           st.sampled_from([top + 1, -top - 2]))
    def check(values, past):
        count = len(values)
        v = _pack(values, width)
        word_format = _word_format(count, width)
        words = _words(v + word_format[0], word_format)
        assert list(words) == _fields_one_by_one(v, count, width) == values
        # _unpack takes the word read at a word width
        assert _unpack(ctx, v, count, width) == _reduce_phi(ctx, values)
        with pytest.raises(OverflowError):
            _words(_pack(values[:-1] + [past], width) + word_format[0],
                   word_format)

    check()
