import functools
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckemod import hecke
from heckemod.diagrams import YoungDiagram, quantum_dimension, twist_coefficient
from heckemod.hecke import (
    MAX_STRANDS,
    HeckeElement,
    StandardTableau,
    _numerators,
    _quadratic,
    _scalars,
    _step,
    braid_word_to_element,
    full_twist,
    homfly_braid_closure,
    jucys_murphy,
    path_idempotent,
    perm_length,
    reduced_word,
    standard_tableaux,
    symmetrizer,
)
from heckemod.scalars import ScalarError, su_parameters

from helpers import (
    central_idempotent,
    quantum_hook_product,
    standard_tableaux_of_shape,
    tensor_left,
    tensor_right,
    young_quasi_idempotent,
)


@pytest.fixture(scope="module")
def ctx():
    return su_parameters(2, 3)


def random_element(n, ring, rng, nterms=3):
    perms = list(itertools.permutations(range(n)))
    terms = {}
    for _ in range(nterms):
        p = rng.choice(perms)
        terms[p] = ring.from_rational(rng.randint(-3, 3))
    return HeckeElement(n, ring, terms)


def test_reduced_word_consistency(ctx):
    # sigma-product of the reduced word reproduces the basis braid
    for p in itertools.permutations(range(4)):
        x = braid_word_to_element([i + 1 for i in reduced_word(p)], 4, ctx)
        assert x == HeckeElement.basis(p, ctx)


def test_quadratic_relation(ctx):
    sig = HeckeElement.generator(0, 2, ctx)
    one = HeckeElement.identity(2, ctx)
    lhs = sig * sig
    rhs = (ctx.a() * (ctx.s() - ctx.s(-1))) * sig + ctx.a(2) * one
    assert lhs == rhs


def test_lengths_add(ctx):
    s1 = HeckeElement.generator(0, 3, ctx)
    s2 = HeckeElement.generator(1, 3, ctx)
    prod = s1 * s2
    assert len(prod.terms) == 1
    (p,) = prod.terms
    assert p == (2, 0, 1) or p == (1, 2, 0)


def test_associativity_random(ctx):
    rng = random.Random(5)
    for _ in range(50):
        x = random_element(4, ctx, rng)
        y = random_element(4, ctx, rng)
        z = random_element(4, ctx, rng)
        assert (x * y) * z == x * (y * z)


def test_generator_inverse(ctx):
    x = braid_word_to_element([1, -1], 2, ctx)
    assert x == HeckeElement.identity(2, ctx)
    y = braid_word_to_element([2, 1, -1, -2], 3, ctx)
    assert y == HeckeElement.identity(3, ctx)


def test_braid_word_against_multiplication(ctx):
    sig = HeckeElement.generator(0, 2, ctx)
    assert braid_word_to_element([1, 1, 1], 2, ctx) == sig * sig * sig


def test_markov_trace_basics(ctx):
    one1 = HeckeElement.identity(1, ctx)
    delta = ctx.quantum_integer(ctx.N)
    assert one1.markov_trace() == delta
    sig = HeckeElement.generator(0, 2, ctx)
    assert sig.markov_trace() == ctx.a() * ctx.v(-1) * delta
    assert HeckeElement.identity(2, ctx).markov_trace() == delta * delta


def test_homfly_closures(ctx):
    delta = ctx.quantum_integer(ctx.N)
    assert homfly_braid_closure([], 1, ctx) == delta
    assert homfly_braid_closure([1], 2, ctx) == ctx.a() * ctx.v(-1) * delta


def test_trefoil_skein_relation(ctx):
    # a^-1 P(sigma^3) - a P(sigma) = (s - s^-1) P(sigma^2) closed in H_2
    p3 = homfly_braid_closure([1, 1, 1], 2, ctx)
    p1 = homfly_braid_closure([1], 2, ctx)
    p2 = homfly_braid_closure([1, 1], 2, ctx)
    # skein: a^-1 L+ - a L- = (s - s^-1) L0 applied at the top crossing of
    # sigma^3 (L+ = sigma^3, L- = sigma, L0 = sigma^2), all with the same
    # a-framing corrections since writhe bookkeeping is uniform here:
    lhs = ctx.a(-1) * p3 - ctx.a() * p1
    rhs = (ctx.s() - ctx.s(-1)) * p2
    assert lhs == rhs


def test_trace_symmetry(ctx):
    rng = random.Random(9)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            x = random_element(n, ctx, rng)
            y = random_element(n, ctx, rng)
            assert (x * y).markov_trace() == (y * x).markov_trace()


def test_f2_explicit(ctx):
    f2 = symmetrizer(2, "f", ctx)
    inv2 = ctx.quantum_integer(2).invert()
    expected = (ctx.s(-1) * inv2) * HeckeElement.identity(2, ctx) \
        + (ctx.a(-1) * inv2) * HeckeElement.generator(0, 2, ctx)
    assert f2 == expected
    assert f2 * f2 == f2


def test_g2_complement(ctx):
    f2 = symmetrizer(2, "f", ctx)
    g2 = symmetrizer(2, "g", ctx)
    assert f2 + g2 == HeckeElement.identity(2, ctx)
    assert g2 * g2 == g2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetrizer_eigenvalues(ctx, n):
    fn = symmetrizer(n, "f", ctx)
    gn = symmetrizer(n, "g", ctx)
    assert fn * fn == fn
    assert gn * gn == gn
    for i in range(n - 1):
        sig = HeckeElement.generator(i, n, ctx)
        assert sig * fn == (ctx.a() * ctx.s()) * fn
        assert fn * sig == (ctx.a() * ctx.s()) * fn
        assert sig * gn == (ctx.from_rational(-1) * ctx.a() * ctx.s(-1)) * gn


def _recursive_symmetrizer(n, kind, ring):
    # Aiston-Morton recursion from f_2 = [2]^-1 (s^-1 + a^-1 sigma):
    # f_n = -[n-2]/[n] f' + [2][n-1]/[n] f' f_2 f' with f' = f_{n-1} (x) 1,
    # g_n = g' - [2][n-1]/[n] g' f_2 g' with g' = 1 (x) g_{n-1}
    if n == 1:
        return HeckeElement.identity(1, ring)
    q = ring.quantum_integer
    f2 = (q(2).invert() * ring.s(-1)) * HeckeElement.identity(2, ring) \
        + (q(2).invert() * ring.a(-1)) * HeckeElement.generator(0, 2, ring)
    coef = q(2) * q(n - 1) * q(n).invert()
    prev = _recursive_symmetrizer(n - 1, kind, ring)
    if kind == "f":
        fp, f2 = tensor_right(prev, 1), tensor_left(f2, n - 2)
        return ((-1) * q(n - 2) * q(n).invert()) * fp + coef * (fp * f2 * fp)
    gp, f2 = tensor_left(prev, 1), tensor_right(f2, n - 2)
    return gp - coef * (gp * f2 * gp)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetrizer_explicit_sum(ctx, n):
    # the closed-form sum, written term by term through generator products,
    # agrees with the recursive construction
    top = n * (n - 1) // 2
    for kind, sign in (("f", -1), ("g", 1)):
        unit = ctx.from_rational(-sign) * ctx.a() * ctx.s(sign)
        explicit = HeckeElement(n, ctx, {})
        for p in itertools.permutations(range(n)):
            wp = braid_word_to_element([i + 1 for i in reduced_word(p)], n, ctx)
            explicit = explicit + unit.invert() ** perm_length(p) * wp
        explicit = (ctx.quantum_factorial(n).invert() * ctx.s(sign * top)) * explicit
        assert symmetrizer(n, kind, ctx) == explicit
        assert symmetrizer(n, kind, ctx) == _recursive_symmetrizer(n, kind, ctx)


@pytest.mark.parametrize("N,K,top", [(2, 3, 4), (3, 2, 4), (3, 3, 4),
                                     (2, 5, 4), (4, 2, 4), (2, 2, 3)])
def test_symmetrizer_is_row_and_column_path_idempotent(N, K, top):
    # f_n and g_n are the Jucys-Murphy path idempotents of the one-row and
    # the one-column tableau, which do not use the length-generating sum
    ring = su_parameters(N, K)
    for n in range(1, top + 1):
        row = StandardTableau(tuple((0, j) for j in range(n)))
        column = StandardTableau(tuple((i, 0) for i in range(n)))
        assert symmetrizer(n, "f", ring) == path_idempotent(row, ring)
        assert symmetrizer(n, "g", ring) == path_idempotent(column, ring)


def test_symmetrizer_cache_dies_with_its_ring():
    ring = su_parameters(2, 3)
    f3 = symmetrizer(3, "f", ring)
    assert symmetrizer(3, "f", ring) is f3  # cached
    ref = weakref.ref(ring)
    del ring, f3
    gc.collect()
    assert ref() is None


def test_two_symmetrizer_identity(ctx):
    # [p+q] f_p (x) g_q = [p+1][q] (1_p (x) g_q)(f_{p+1} (x) 1_{q-1})(1_p (x) g_q)
    #                   + [p][q+1] (f_p (x) 1_q)(1_{p-1} (x) g_{q+1})(f_p (x) 1_q)
    for (p, q) in [(1, 1), (2, 1)]:
        n = p + q
        fp = tensor_right(symmetrizer(p, "f", ctx), q)
        gq = tensor_left(symmetrizer(q, "g", ctx), p)
        lhs = ctx.quantum_integer(p + q) * (fp * gq)
        t1 = gq * tensor_right(symmetrizer(p + 1, "f", ctx), q - 1) * gq
        t2 = fp * tensor_left(symmetrizer(q + 1, "g", ctx), p - 1) * fp
        rhs = (ctx.quantum_integer(p + 1) * ctx.quantum_integer(q)) * t1 \
            + (ctx.quantum_integer(p) * ctx.quantum_integer(q + 1)) * t2
        assert lhs == rhs


def test_jucys_murphy_on_symmetrizers(ctx):
    f2 = symmetrizer(2, "f", ctx)
    g2 = symmetrizer(2, "g", ctx)
    j2 = jucys_murphy(2, 2, ctx)
    assert j2 * f2 == (ctx.a(2) * ctx.s(2)) * f2
    assert j2 * g2 == (ctx.a(2) * ctx.s(-2)) * g2


def test_path_idempotents_n2(ctx):
    row = standard_tableaux_of_shape(YoungDiagram.of(2))[0]
    col = standard_tableaux_of_shape(YoungDiagram.of(1, 1))[0]
    assert path_idempotent(row, ctx) == symmetrizer(2, "f", ctx)
    assert path_idempotent(col, ctx) == symmetrizer(2, "g", ctx)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_path_idempotent_completeness(ctx, n):
    tabs = standard_tableaux(n)
    total = HeckeElement(n, ctx, {})
    ps = [path_idempotent(t, ctx) for t in tabs]
    for p in ps:
        total = total + p
    assert total == HeckeElement.identity(n, ctx)
    # idempotence and orthogonality on a sample
    for i in (0, len(ps) - 1):
        assert ps[i] * ps[i] == ps[i]
    assert (ps[0] * ps[-1]).is_zero()


@pytest.mark.parametrize("N,K", [(2, 3), (3, 2)])
def test_trace_of_path_idempotent_is_dimension(N, K):
    ctx = su_parameters(N, K)
    for n in (1, 2, 3, 4):
        for t in standard_tableaux(n):
            assert path_idempotent(t, ctx).markov_trace() == \
                quantum_dimension(ctx, t.shape())


@pytest.mark.parametrize("N,K", [(2, 3), (3, 2)])
def test_full_twist_eigenvalue(N, K):
    # the ribbon twist of the n-cable is the full twist braid together with
    # one positive curl (factor a v^-1) on each strand
    ctx = su_parameters(N, K)
    for n in (2, 3, 4):
        ft = full_twist(n, ctx)
        curls = (ctx.a() * ctx.v(-1)) ** n
        for t in standard_tableaux(n):
            p = path_idempotent(t, ctx)
            assert curls * (ft * p) == twist_coefficient(ctx, t.shape()) * p


def test_central_idempotents_commute(ctx):
    z21 = central_idempotent(YoungDiagram.of(2, 1), 3, ctx)
    sig = HeckeElement.generator(0, 3, ctx)
    assert z21 * sig == sig * z21
    assert z21 * z21 == z21


def test_branching(ctx):
    # (p_t (x) 1) = sum over mu = lambda + cell of (p_t (x) 1) z_mu (p_t (x) 1)
    from heckemod.hecke import addable_cells
    for n in (2, 3):
        for t in standard_tableaux(n):
            lam = t.shape()
            pt = tensor_right(path_idempotent(t, ctx), 1)
            total = HeckeElement(n + 1, ctx, {})
            for (i, j) in addable_cells(lam):
                rows = list(lam.rows) + [0] * (i + 1 - lam.num_rows)
                rows[i] += 1
                mu = YoungDiagram(tuple(rows))
                zmu = central_idempotent(mu, n + 1, ctx)
                total = total + pt * zmu * pt
            assert total == pt


def test_young_quasi_idempotent():
    for (N, K) in [(2, 3), (3, 2)]:
        ctx = su_parameters(N, K)
        for rows in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
            lam = YoungDiagram(rows)
            if lam.size > N + K - 1:
                continue
            y = young_quasi_idempotent(lam, ctx)
            assert not y.is_zero()
            assert y * y == quantum_hook_product(lam, ctx) * y


def test_column_object_crossing():
    # in H_{N+1}: (g_N (x) 1) J_{N+1} z_mu = a^{2N} s^2 (g_N (x) 1) z_mu
    # for mu = (2, 1^{N-1}) — the crossing factor of the column object
    for (N, K) in [(2, 3), (3, 2)]:
        ctx = su_parameters(N, K)
        g = tensor_right(symmetrizer(N, "g", ctx), 1)
        j = jucys_murphy(N + 1, N + 1, ctx)
        mu = YoungDiagram((2,) + (1,) * (N - 1))
        z = central_idempotent(mu, N + 1, ctx)
        lhs = g * j * z
        rhs = (ctx.a(2 * N) * ctx.s(2)) * (g * z)
        assert lhs == rhs
        assert not (g * z).is_zero()


def test_strand_cap(ctx):
    with pytest.raises(ScalarError):
        HeckeElement.identity(9, ctx)


def test_strand_cap_before_any_product(ctx, monkeypatch):
    # a word on MAX_STRANDS + 1 strands is refused before its first step
    def step(*args):
        raise AssertionError("a generator step ran")

    monkeypatch.setattr(hecke, "_step", step)
    word = list(range(1, MAX_STRANDS + 1)) * 4
    for run in (braid_word_to_element, homfly_braid_closure):
        with pytest.raises(ScalarError, match="exceeds the cap"):
            run(word, MAX_STRANDS + 1, ctx)


def test_scalar_multiples(ctx):
    x = HeckeElement.generator(0, 3, ctx) - 3 * HeckeElement.identity(3, ctx)
    half = Fraction(1, 2)
    expected = x.scale(half)
    assert x * half == half * x == expected
    assert x * ctx.from_rational(half) == ctx.from_rational(half) * x == expected
    assert x * 2 == 2 * x == x.scale(2)
    for other in (0.5, "2", None):
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            other * x


def test_mismatched_strands(ctx):
    with pytest.raises(ScalarError):
        HeckeElement.identity(2, ctx) * HeckeElement.identity(3, ctx)


# ---------------------------------------------------------------------------
# the product kernel against the plain routines
# ---------------------------------------------------------------------------

def times_generator_plain(x, i):
    """Oracle: x * sigma_i term by term from the quadratic relation."""
    ring = x.ring
    mid = ring.a() * (ring.s() - ring.s(-1))
    terms = {}

    def add(p, c):
        terms[p] = terms[p] + c if p in terms else c

    for p, c in x.terms.items():
        q = tuple(i + 1 if v == i else i if v == i + 1 else v for v in p)
        if p.index(i) < p.index(i + 1):
            add(q, c)
        else:
            add(p, c * mid)
            add(q, c * ring.a(2))
    return HeckeElement(x.n, ring, terms)


def times_inverse_plain(x, i):
    """Oracle: x * sigma_i^-1 = a^-2 x sigma_i - a^-1 (s - s^-1) x."""
    ring = x.ring
    return times_generator_plain(x, i).scale(ring.a(-2)) \
        - x.scale(ring.a(-1) * (ring.s() - ring.s(-1)))


def mul_plain(x, y):
    """Oracle: for each term c_q w_q of y, scale x by c_q, then walk the
    whole reduced word of q one generator at a time."""
    total = HeckeElement(x.n, x.ring, {})
    for q, c in y.terms.items():
        acc = x.scale(c)
        for i in reduced_word(q):
            acc = times_generator_plain(acc, i)
        total = total + acc
    return total


def markov_trace_plain(x):
    """Oracle: close the last strand term by term, adding each term's
    element to the running sum, the basis products taken by mul_plain."""
    ring = x.ring
    delta = ring.quantum_integer(ring.N)
    curl = ring.a() * ring.v(-1)
    while x.n:
        n = x.n
        out = HeckeElement(n - 1, ring, {})
        for p, c in x.terms.items():
            if p[n - 1] == n - 1:
                out = out + (c * delta) * HeckeElement.basis(p[:n - 1], ring)
                continue
            k = p.index(n - 1)
            u = tuple(list(range(k)) + [n - 2] + list(range(k, n - 2)))
            rest = tuple(v for v in p if v != n - 1)
            out = out + (c * curl) * mul_plain(HeckeElement.basis(u, ring),
                                               HeckeElement.basis(rest, ring))
        x = out
    return x.terms.get((), ring.zero())


# root orders 20, 36, 28, 30 and 16, field degrees 8, 12, 12, 8 and 8;
# Phi_30 folds through a six-term tail, Phi_16 through one term
ORACLE_RANK_LEVELS = [(2, 3), (3, 3), (2, 5), (3, 2), (2, 2)]


@functools.lru_cache(maxsize=None)
def oracle_ring(N, K):
    return su_parameters(N, K)


@st.composite
def coefficients(draw, ring):
    """A scalar with rational, mostly non-integer coordinates."""
    den = draw(st.integers(1, 6))
    nums = draw(st.lists(st.integers(-4, 4), min_size=ring.degree,
                         max_size=ring.degree))
    return ring.from_coeffs([Fraction(x, den) for x in nums])


@st.composite
def elements(draw, ring, n):
    """An element of H_n with a random, full, single-term or empty
    support."""
    perms = list(itertools.permutations(range(n)))
    kind = draw(st.sampled_from(("random", "full", "single", "empty")))
    if kind == "full":
        support = perms
    elif kind == "single":
        support = [draw(st.sampled_from(perms))]
    elif kind == "empty":
        support = []
    else:
        support = draw(st.lists(st.sampled_from(perms), max_size=8,
                                unique=True))
    return HeckeElement(n, ring, {p: draw(coefficients(ring))
                                  for p in support})


@st.composite
def element_pairs(draw):
    ring = oracle_ring(*draw(st.sampled_from(ORACLE_RANK_LEVELS)))
    n = draw(st.integers(2, 5))
    return draw(elements(ring, n)), draw(elements(ring, n))


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_product_matches_plain(xy):
    x, y = xy
    assert (x * y).terms == mul_plain(x, y).terms


def step(x, i, sign):
    """The term dict of x * sigma_i^sign through the kernel's generator
    step."""
    ring = x.ring
    terms, den = _numerators(x.terms)
    return _scalars(ring, _step(ring, terms, i, sign, _quadratic(ring, sign)),
                    den)


@settings(max_examples=60, deadline=None)
@given(element_pairs(), st.data())
def test_generator_steps_match_plain(xy, data):
    x, _ = xy
    ring = x.ring
    i = data.draw(st.integers(0, x.n - 2))
    assert step(x, i, 1) == times_generator_plain(x, i).terms
    assert step(x, i, -1) == times_inverse_plain(x, i).terms
    word = data.draw(st.lists(st.integers(1, x.n - 1).flatmap(
        lambda g: st.sampled_from((g, -g))), max_size=10))
    expected = HeckeElement.identity(x.n, ring)
    for w in word:
        expected = times_generator_plain(expected, w - 1) if w > 0 \
            else times_inverse_plain(expected, -w - 1)
    assert braid_word_to_element(word, x.n, ring).terms == expected.terms


@settings(max_examples=60, deadline=None)
@given(element_pairs(), st.data())
def test_generator_times_inverse_round_trip(xy, data):
    # on elements whose coefficients have mixed denominators
    x, _ = xy
    ring = x.ring
    i = data.draw(st.integers(0, x.n - 2))
    terms, den = _numerators(x.terms)
    for sign in (1, -1):
        there = _step(ring, terms, i, sign, _quadratic(ring, sign))
        back = _step(ring, there, i, -sign, _quadratic(ring, -sign))
        assert _scalars(ring, back, den) == x.terms


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_markov_trace_matches_plain(xy):
    x, y = xy
    assert x.markov_trace() == markov_trace_plain(x)
    # sign and equality on the same inputs
    assert (x + (-y)).terms == (x + (-1) * y).terms
    assert (x - y == x + (-1) * y) and (x - x).is_zero()
    assert (x == y) == (x + (-1) * y).is_zero()


@pytest.mark.parametrize("N,K", ORACLE_RANK_LEVELS)
def test_generator_times_inverse_on_basis(N, K):
    ring = oracle_ring(N, K)
    for p in itertools.permutations(range(4)):
        one = HeckeElement.basis(p, ring)
        for i in range(3):
            there = HeckeElement(4, ring, step(one, i, 1))
            assert step(there, i, -1) == one.terms
            there = HeckeElement(4, ring, step(one, i, -1))
            assert step(there, i, 1) == one.terms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_reduced_words_form_a_prefix_tree(n):
    # every prefix of a reduced word is the reduced word of a permutation,
    # so the product walks n! - 1 tree nodes, not the sum of the lengths
    words = {reduced_word(p) for p in itertools.permutations(range(n))}
    prefixes = {w[:k] for w in words for k in range(1, len(w) + 1)}
    assert prefixes == words - {()}
    assert len(prefixes) == math.factorial(n) - 1
