"""Modular data for the three theories at rank N and level K.

Assembles the label set, quantum dimensions, twists, S-matrix, and global
constants for the full theory (labels: diagrams with fewer than N rows and
at most K columns), its degree-zero sub-theory (sizes divisible by N), and
the reduced theory (orbit representatives of column-object extensions).
All entries are exact cyclotomic scalars.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter, mul

from .diagrams import (
    EMPTY,
    ReducedLabel,
    YoungDiagram,
    enumerate_sector,
    orbit_representatives,
    quantum_dimension,
    twist_exponent,
)
from .scalars import (
    CycScalar,
    RingContext,
    ScalarError,
    _fit,
    _from_packed,
    _pack,
    _packed_combination,
    _unpack,
    solve_framing_reduced,
    su_parameters,
)

THEORIES = ("su", "psu", "reduced")
# the widest word the modularity gate rounds its field width up to: past
# 16 bits, the wider products of a large S cost more than the word read of
# each summed product saves
_GATE_WORD_BITS = 16


# ---------------------------------------------------------------------------
# S-matrix entries
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _signed_permutations(N: int) -> tuple:
    """(permutation, sign) for every permutation of range(N)."""
    out = []
    for pi in itertools.permutations(range(N)):
        inversions = sum(pi[i] > pi[j] for i in range(N) for j in range(i + 1, N))
        out.append((pi, -1 if inversions % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _permutation_getters(n: int) -> tuple:
    """For the even and for the odd permutations pi of range(n), getters of
    the cells (i, pi(i)) of a row-major n x n table, each returning a
    sequence."""
    even, odd = [], []
    for pi, sign in _signed_permutations(n):
        cells = [i * n + p for i, p in enumerate(pi)]
        # itemgetter of one index returns the item, a slice a sequence
        get = itemgetter(*cells) if n > 1 else itemgetter(slice(0, 1))
        (even if sign == 1 else odd).append(get)
    return tuple(even), tuple(odd)


def _alternant_terms(ctx: RingContext, exponents: list[int],
                     powers: list[int], shift: int = 0) -> dict:
    """zeta^shift det(zeta^(exponents[i] * powers[j])) as {k: the signed
    number of permutation terms equal to zeta^k}, over the k < M that some
    term hits (a count may cancel to 0)."""
    M = ctx.M
    table = [e * p % M for e in exponents for p in powers]
    # every permutation term takes exactly one cell of the first row
    for j in range(len(powers)):
        table[j] += shift
    terms = {}
    even, odd = _permutation_getters(len(powers))
    for get in even:
        k = sum(get(table)) % M
        terms[k] = terms.get(k, 0) + 1
    for get in odd:
        k = sum(get(table)) % M
        terms[k] = terms.get(k, 0) - 1
    return terms


def _alternant(ctx: RingContext, exponents: list[int],
               powers: list[int]) -> CycScalar:
    """det(zeta^(exponents[i] * powers[j])), summed over permutations.

    Every permutation adds its sign to the count of its exponent mod M
    (:func:`_alternant_terms`); the counts, as a histogram over all k < M,
    map once to the power basis as one power sum.
    """
    hist = [0] * ctx.M
    for k, count in _alternant_terms(ctx, exponents, powers).items():
        hist[k] = count
    return CycScalar(ctx, ctx.power_sum(hist))


def s_matrix_column(ctx: RingContext, mu) -> tuple:
    """The factors of S_{lam,mu} that depend on mu alone: the Schur
    evaluation exponents s^(2(mu+rho)), the inverse of the Vandermonde
    alternant at them, and <mu>."""
    mu = mu.diagram if isinstance(mu, ReducedLabel) else mu
    N = ctx.N
    rho = list(range(N - 1, -1, -1))
    exps = [(2 * ctx.s_exp * (mu.row(i) + rho[i])) % ctx.M for i in range(N)]
    vandermonde = _alternant(ctx, exps, rho)
    if vandermonde.is_zero():
        raise ScalarError("Vandermonde denominator vanished; label outside the box")
    return exps, vandermonde.invert(), quantum_dimension(ctx, mu)


def s_matrix_entry(ctx: RingContext, lam, mu, column: tuple | None = None) -> CycScalar:
    """Colored Hopf-link value.

    For diagrams: S = a^(2|lam||mu|) s^(-(N-1)|lam|) s_lam(s^(2(mu+rho))) <mu>,
    with the Schur polynomial as the bialternant quotient.  For reduced
    labels the column-object crossing factor a^N s extends it bilinearly in
    the two column powers.  ``column`` is ``s_matrix_column(ctx, mu)``, for
    callers that evaluate many entries of one column.
    """
    if column is None:
        column = s_matrix_column(ctx, mu)
    if isinstance(lam, ReducedLabel) or isinstance(mu, ReducedLabel):
        i, lam_d = (lam.i, lam.diagram) if isinstance(lam, ReducedLabel) else (0, lam)
        j, mu_d = (mu.i, mu.diagram) if isinstance(mu, ReducedLabel) else (0, mu)
        # the column-object crossing factor a^N s is a root of unity
        cross = ctx.a_exp * ctx.N + ctx.s_exp
        expo = 2 * (i * j * ctx.N + i * mu_d.size + j * lam_d.size)
        return ctx.zeta(cross * expo) * s_matrix_entry(ctx, lam_d, mu_d, column)
    N = ctx.N
    exps, inv_vandermonde, dim_mu = column
    top = [lam.row(i) + N - 1 - i for i in range(N)]
    val = _alternant(ctx, exps, top) * inv_vandermonde
    pref = ctx.zeta((2 * ctx.a_exp * lam.size * mu.size
                     - (N - 1) * ctx.s_exp * lam.size) % ctx.M)
    return pref * val * dim_mu


def _s_matrix(ctx: RingContext, labels: list) -> tuple:
    """Every entry of S, in the Kac-Peterson form of :func:`s_matrix_entry`,
    and the packed rows that the modularity gate reads.

    With l = lam + rho and m = mu + rho, S_{lam,mu} = c zeta^e A(lam, mu),
    where A(lam, mu) = det(s^(2 l_i m_j)) is the Weyl alternant, the
    normalizer c = 1/A(empty, empty) is one constant of the ring (the Weyl
    dimension formula gives <mu> s^((N-1)|mu|) / A(empty, mu) = c for every
    mu), and e = 2a|lam||mu| - (N-1)s(|lam| + |mu|), plus the column-object
    crossing term for reduced labels, as an exponent of zeta.  e shifts the
    index of the alternant's exponent counts h (:func:`_alternant_terms`),
    so the entry is the combination sum_k h_k P_k of the packed numerators
    P_k of c zeta^k, over the at most min(N, K)! exponents k that a term
    hits.

    When K < N the N x N alternant becomes a K x K one.  A(lam, mu) is the
    minor on the rows {l_i} and the columns {m_j} of the Fourier matrix
    (s^(2ab)) of Z/(N+K), since s^2 has order N + K, and the inverse of that
    matrix is its conjugate over N + K.  Jacobi's complementary-minor
    theorem then gives A(lam, mu) = kappa (-1)^(|lam|+|mu|) A'(lam, mu) for
    one constant kappa of the ring, where A'(lam, mu) = det(s^(-2 a b)) over
    the complements of {l_i} and of {m_j} in {0, ..., N+K-1}.  kappa
    cancels against the same identity at lam = mu = empty, so c = 1/A'(empty,
    empty).  M is even, so the sign is zeta^((M/2)(|lam|+|mu|)) and joins
    e.  Either way sum |h_k| <= min(N, K)!.

    The same counts give S/c = sum_k h_k zeta^k and its conjugate
    sum_k h_k zeta^(-k), over one packed table Z of the powers of zeta read
    at k and at -k; S conj(S) = omega I is (S/c) conj(S/c) = (omega/|c|^2)
    I, which :func:`_is_modular` checks on these rows.  Their numerators
    are integers of at most min(N, K)! max|Z| in absolute value (max|Z| is
    1 at every ring with N + K <= 12), with no factor of c or of its
    denominator, so the gate's products stay narrow.

    S is symmetric (det A = det A^T, and e is symmetric in lam and mu), so
    each unordered pair is read once: the entry and both packed words of
    (lam, mu), lam <= mu in label order, serve (mu, lam) too.  Below the
    diagonal only the counts are taken, shift included, and compared with
    those of the mirrored pair; an entry is a function of its counts, so
    equal counts mean equal entries.

    Returns (S, rows, conj, width, scale, symmetric): S as canonical
    scalars, each read once from sum_k h_k P_k, packed in one word when
    min(N, K)! max|P| fits 64 bits; the packed rows of S/c and of
    conj(S/c), in signed fields of ``width`` bits, wide enough for every
    product of the gate; scale = 1/|c|^2; and whether the counts of every
    pair below the diagonal equal those of its mirror.
    """
    N, K, M = ctx.N, ctx.K, ctx.M
    deg = ctx.degree
    rho = list(range(N - 1, -1, -1))
    complement = K < N
    size, t = (K, -2 * ctx.s_exp) if complement else (N, 2 * ctx.s_exp)

    def indices(lam):
        """The alternant's row (and column) indices for lam, descending."""
        top = [lam.row(r) + rho[r] for r in range(N)]
        if complement:
            return [x for x in range(N + K - 1, -1, -1) if x not in top]
        return top

    base = indices(EMPTY)
    vandermonde = _alternant(ctx, [t * x for x in base], base)
    c = vandermonde.invert()
    terms = math.factorial(size)
    powers = [ctx.power_sum(c.nums, 1, k) for k in range(M)]
    zetas = [ctx.power_sum((1,), 1, k) for k in range(M)]
    # an entry in any word; a product of the gate sums n deg products of
    # two row numerators, each at most terms max|Z|
    entry_width = _fit(terms * max(max(map(abs, v)) for v in powers), 64)
    spread = terms * max(max(map(abs, v)) for v in zetas)
    width = _fit(len(labels) * deg * spread ** 2, _GATE_WORD_BITS)
    powers = [_pack(v, entry_width) for v in powers]
    zetas = [_pack(v, width) for v in zetas]
    # zeta^-k, the conjugate of zeta^k
    conj_zetas = zetas[:1] + zetas[:0:-1]

    parts = []  # (column power, size, indices, t * indices) per label
    for lab in labels:
        i, lam = (lab.i, lab.diagram) if isinstance(lab, ReducedLabel) \
            else (0, lab)
        top = indices(lam)
        parts.append((i, lam.size, top, [t * x % M for x in top]))
    # the column-object crossing factor a^N s is a root of unity
    cross = 2 * (ctx.a_exp * N + ctx.s_exp)
    # zeta^(M/2) = -1 carries the complement's sign (-1)^(|lam|+|mu|)
    flip = M // 2 if complement else 0
    a2, s1 = 2 * ctx.a_exp, (N - 1) * ctx.s_exp + flip

    def counts(a, b):
        """The alternant's exponent counts of the entry at (a, b)."""
        i, size_l, top, _ = parts[a]
        j, size_m, _, exps = parts[b]
        e = (a2 * size_l * size_m - s1 * (size_l + size_m)
             + cross * (i * j * N + i * size_m + j * size_l)) % M
        return _alternant_terms(ctx, exps, top, e)

    n = len(labels)
    s_matrix = [[None] * n for _ in range(n)]
    rows = [[None] * n for _ in range(n)]
    conj = [[None] * n for _ in range(n)]
    symmetric = True
    for a in range(n):
        for b in range(a, n):
            h = counts(a, b)
            if b > a:
                symmetric &= counts(b, a) == h
            s_matrix[a][b] = s_matrix[b][a] = _from_packed(
                ctx, _packed_combination(powers, h), deg, entry_width, c.den)
            rows[a][b] = rows[b][a] = _packed_combination(zetas, h)
            conj[a][b] = conj[b][a] = _packed_combination(conj_zetas, h)
    scale = vandermonde * vandermonde.conjugate()
    return s_matrix, rows, conj, width, scale, symmetric


def _is_modular(ring: RingContext, rows: list, conj: list, width: int,
                scale: CycScalar, omega: CycScalar) -> bool:
    """S conj(S) = omega I, for the packed rows of X = r S and of conj(X),
    every entry's integer numerators in signed fields of ``width`` bits,
    wide enough for every product, and scale = |r|^2: X conj(X) = scale
    omega I.  The build passes X = S/c and scale = 1/|c|^2
    (:func:`_s_matrix`).

    Entry (i, j) of the product is sum_k X_ik conj(X_jk), so the product is
    Hermitian and its entries with i <= j decide every entry.  Each is
    unpacked to its integer numerators and compared with scale omega
    (i = j) or zero (i < j) without forming a scalar.
    """
    terms = 2 * ring.degree - 1
    zero = (0,) * ring.degree
    target = scale * omega
    for i, xrow in enumerate(rows):
        diag = _unpack(ring, sum(map(mul, xrow, conj[i])), terms, width)
        if any(x * target.den != y for x, y in zip(diag, target.nums)):
            return False
        for yrow in conj[i + 1:]:
            if _unpack(ring, sum(map(mul, xrow, yrow)), terms, width) != zero:
                return False
    return True


# ---------------------------------------------------------------------------
# global constants
# ---------------------------------------------------------------------------

def omega_closed_form(ctx: RingContext, numerator_factor: int) -> CycScalar:
    """(-1)^(N(N-1)/2) * c (N+K)^(N-1) / prod_{j<N} (s^j - s^-j)^(2(N-j))."""
    N = ctx.N
    sign = (-1) ** (N * (N - 1) // 2)
    num = ctx.from_rational(sign * numerator_factor * (N + ctx.K) ** (N - 1))
    den = ctx.one()
    for j in range(1, N):
        den = den * (ctx.s(j) - ctx.s(-j)) ** (2 * (N - j))
    return num * den.invert()


# ---------------------------------------------------------------------------
# modular data container
# ---------------------------------------------------------------------------

@dataclass
class ModularData:
    theory: str
    N: int
    K: int
    ctx: RingContext
    labels: list
    dims: list
    twists: list
    s_matrix: list
    omega: CycScalar
    delta_plus: CycScalar
    delta_minus: CycScalar
    spin_case: bool
    report: dict
    alpha: int | None = None
    beta: int | None = None
    # the index of each label; the label indices of each degree residue
    # mod d (None: all labels); the term table of S with the leaf
    # elimination's state (surgery._TermTable) and tau's normalization
    # factors by (sigma, half), both as long as this data
    _index: dict = field(init=False, repr=False, compare=False)
    labels_by_residue: dict = field(init=False, repr=False, compare=False)
    _s_terms: object | None = field(
        default=None, init=False, repr=False, compare=False)
    _normalizers: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        d = self.grading_modulus
        residues = [self.degree(lab) % d for lab in self.labels]
        self.labels_by_residue = {None: tuple(range(len(self.labels)))} | {
            r: tuple(i for i, x in enumerate(residues) if x == r)
            for r in range(d)}

    # Delta_+^-1 and Omega^-1 for the normalization of tau, inverted on
    # first use
    @cached_property
    def _delta_plus_inv(self) -> CycScalar:
        return self.delta_plus.invert()

    @cached_property
    def _omega_inv(self) -> CycScalar:
        return self.omega.invert()

    # the fusion matrices of su data, checked against S on first use
    @cached_property
    def _fusion(self) -> list:
        return _fusion_matrices(self)

    def normalization(self, sigma: int, half: int) -> CycScalar:
        """Delta_+^-sigma Omega^-half, the factor that normalizes tau,
        kept by (sigma, half) so a warm call takes no power."""
        scale = self._normalizers.get((sigma, half))
        if scale is None:
            scale = self._normalizers[sigma, half] = (
                self._delta_plus_inv ** sigma if sigma > 0
                else self.delta_plus ** -sigma) * (
                self._omega_inv ** half if half > 0 else self.omega ** -half)
        return scale

    def index(self, label) -> int:
        """The index of ``label``; ScalarError if it is no label here."""
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ScalarError(f"label {label} is not in the {self.theory} "
                              f"data at ({self.N}, {self.K})") from None

    @property
    def grading_modulus(self) -> int:
        return math.gcd(self.N, self.K)

    def degree(self, label) -> int:
        if isinstance(label, ReducedLabel):
            return label.degree(self.N)
        return label.size

    @property
    def unit_index(self) -> int:
        # (0, empty) is the lexicographic minimum of the dotted labels, so
        # it represents its orbit
        return self.index(ReducedLabel(0, EMPTY) if self.theory == "reduced"
                          else EMPTY)


def is_spin_rank_level(N: int, K: int) -> bool:
    d = math.gcd(N, K)
    return d % 2 == 0 and (N // d) % 2 == 1 and (K // d) % 2 == 1


def build_modular_data(N: int, K: int, theory: str) -> ModularData:
    """Assemble and verify all modular data for one theory."""
    if theory not in THEORIES:
        raise ScalarError(f"unknown theory {theory!r}")
    alpha = beta = None
    if theory == "reduced":
        alpha, beta, ctx = solve_framing_reduced(N, K)
        labels, _ = orbit_representatives(N, K, alpha, beta)
        closed_factor = math.gcd(N, K)
    else:
        ctx = su_parameters(N, K)
        labels = enumerate_sector(N, K, "strict" if theory == "su" else "zero")
        closed_factor = N if theory == "su" else 1

    twist_exps = [twist_exponent(ctx, lab) for lab in labels]
    twists = [ctx.zeta(k) for k in twist_exps]
    n = len(labels)
    dims = [quantum_dimension(ctx, lab) for lab in labels]
    s_matrix, rows, conj, width, scale, symmetric = _s_matrix(ctx, labels)

    omega = ctx.zero()
    dplus = ctx.zero()
    dminus = ctx.zero()
    for d_, k in zip(dims, twist_exps):
        sq = d_ * d_
        omega = omega + sq
        # theta = zeta^k and its inverse zeta^-k rotate the numerators of
        # d^2, which keeps them canonical
        dplus = dplus + CycScalar(ctx, ctx.power_sum(sq.nums, 1, k), sq.den)
        dminus = dminus + CycScalar(ctx, ctx.power_sum(sq.nums, 1, -k),
                                    sq.den)

    spin = is_spin_rank_level(N, K) and theory in ("psu", "reduced")
    report = {}
    report["s_symmetric"] = symmetric
    data = ModularData(theory, N, K, ctx, labels, dims, twists, s_matrix,
                       omega, dplus, dminus, spin, report, alpha, beta)
    unit = data.unit_index
    # the alternant row of the unit against the hook-content dimensions
    report["first_row_is_dims"] = all(s_matrix[unit][j] == dims[j] for j in range(n))
    report["omega_closed_form"] = omega == omega_closed_form(ctx, closed_factor)
    if spin and theory == "psu":
        report["spin_delta_plus_vanishes"] = dplus.is_zero()
    else:
        report["delta_product"] = dplus * dminus == omega
    # modularity S S-bar = omega I
    report["modular"] = _is_modular(ctx, rows, conj, width, scale, omega)

    # The degree-zero sub-theory is degenerate whenever gcd(N, K) > 1: the
    # labels in the spectral-flow orbit of the empty diagram have identical
    # S-matrix rows, so S is singular and the delta product picks up a factor
    # gcd(N, K). Those two entries are reported there and nowhere else;
    # every other failure is a hard construction error.
    informational = ("modular", "delta_product") \
        if theory == "psu" and data.grading_modulus > 1 else ()
    failures = [k for k, v in report.items() if not v and k not in informational]
    if failures:
        raise ScalarError(f"modular data verification failed: {failures}")
    return data


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def _pieri_rows(data: ModularData) -> list:
    """P_j for each 0 < j < N (index 0 is unused), as sparse rows: row nu
    lists the indices of the labels mu such that mu/nu is a vertical j-strip
    with at most N rows, with its full N-columns stripped, and mu_1 - mu_N
    <= K.  This is the Pieri rule truncated at level K: fusion with the
    fundamental label (1^j), a minuscule weight, has no alcove reflections
    to cancel (Kac-Walton)."""
    N, K = data.N, data.K
    pieri = [None]
    for j in range(1, N):
        rows = []
        for nu in data.labels:
            row = []
            for strip in itertools.combinations(range(N), j):
                mu = [nu.row(i) + (i in strip) for i in range(N)]
                if all(mu[i] >= mu[i + 1] for i in range(N - 1)) \
                        and mu[0] - mu[-1] <= K:
                    row.append(data.index(YoungDiagram.of(
                        *(r - mu[-1] for r in mu))))
            rows.append(row)
        pieri.append(rows)
    return pieri


def _fusion_matrices(data: ModularData) -> list:
    """N_lam as integer matrices N_lam[mu][nu], for every label lam of su
    data, by label index.

    Each Pieri matrix P_j is checked against S: for every label nu and
    column k, S_{(1^j),k} S_{nu,k} = S_{0,k} sum_mu P_j[nu,mu] S_{mu,k}.  S
    is invertible (the ``modular`` gate), so P_j = N_(1^j).  Then, in
    (size, rows) order, N_lam = N_nu P_j - sum_{mu != lam} P_j[nu,mu] N_mu,
    where nu is lam with its first column removed and j is lam's row count:
    every mu != lam of that sum adds no cell to one of the first j rows, so
    it is lexicographically smaller than lam or, stripped of a full
    N-column, smaller in size, and its matrix is already built.  The
    recursion writes each character S_{lam,k}/S_{0,k} as an integer
    polynomial in those of the (1^j), so N_lam = S diag(S_{lam,k}/S_{0,k})
    S^-1, the Verlinde formula.  A failed check or a negative entry raises
    ScalarError.
    """
    N, labels, S = data.N, data.labels, data.s_matrix
    n = len(labels)
    pieri = _pieri_rows(data)
    unit = S[data.unit_index]
    zero = data.ctx.zero()
    for j in range(1, N):
        fundamental = S[data.index(YoungDiagram((1,) * j))]
        for nu, row in enumerate(pieri[j]):
            for k, x in enumerate(fundamental):
                total = sum((S[mu][k] for mu in row), zero)
                if x * S[nu][k] != unit[k] * total:
                    raise ScalarError(
                        f"Pieri rule for (1^{j}) against S fails at "
                        f"{labels[nu]}, column {labels[k]}")

    matrices = [None] * n
    matrices[data.unit_index] = [[int(a == b) for b in range(n)]
                                 for a in range(n)]
    for lam in sorted(labels, key=lambda x: (x.size, x.rows)):
        if lam == EMPTY:
            continue
        nu = data.index(YoungDiagram.of(*(r - 1 for r in lam.rows)))
        pieri_j = pieri[lam.num_rows]
        out = []
        for base_row in matrices[nu]:
            acc = [0] * n
            for b, count in enumerate(base_row):
                if count:
                    for mu in pieri_j[b]:
                        acc[mu] += count
            out.append(acc)
        i = data.index(lam)
        for mu in pieri_j[nu]:
            if mu != i:
                for acc, other in zip(out, matrices[mu]):
                    for c, count in enumerate(other):
                        acc[c] -= count
        if min(map(min, out)) < 0:
            raise ScalarError(f"negative fusion coefficient for {lam}")
        matrices[i] = out
    return matrices


def fusion_coefficients(data: ModularData, lam: YoungDiagram, mu: YoungDiagram) -> dict:
    """{nu: N_{lam,mu}^nu} over the nu with a nonzero coefficient, for su
    data, from the Pieri-rule fusion matrices (:func:`_fusion_matrices`).
    Raises ScalarError on other data, where the Verlinde sum need not be a
    fusion rule, or when the matrices fail their check against S."""
    if data.theory != "su":
        raise ScalarError(
            f"fusion is computed for su data only, not {data.theory}")
    row = data._fusion[data.index(lam)][data.index(mu)]
    return {nu: count for nu, count in zip(data.labels, row) if count}


def littlewood_richardson(lam: YoungDiagram, mu: YoungDiagram, nu: YoungDiagram) -> int:
    """Brute-force count of Littlewood-Richardson skew tableaux of shape
    nu/lam and content mu whose reverse reading word is a lattice word."""
    if nu.size != lam.size + mu.size or not nu.contains(lam):
        return 0
    rows = nu.num_rows
    cells = [(i, j) for i in range(rows) for j in range(lam.row(i), nu.row(i))]

    # fill in reading order of the reverse word: row by row, right to left,
    # so the lattice property can be enforced incrementally
    cells.sort(key=lambda c: (c[0], -c[1]))

    def rec(idx: int, filling: dict, counts: list[int]) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for v in range(1, mu.num_rows + 1):
            if counts[v - 1] >= mu.row(v - 1):
                continue
            # lattice word: after placing v, #v must not exceed #(v-1)
            if v > 1 and counts[v - 1] >= counts[v - 2]:
                continue
            # rows weakly increase left to right (right neighbor already set)
            right = filling.get((i, j + 1))
            if right is not None and right < v:
                continue
            # columns strictly increase downwards; the cell above, if it is a
            # skew cell, sits in an earlier row and is already filled
            up = filling.get((i - 1, j))
            if up is not None and up >= v:
                continue
            filling[(i, j)] = v
            counts[v - 1] += 1
            total += rec(idx + 1, filling, counts)
            counts[v - 1] -= 1
            del filling[(i, j)]
        return total

    return rec(0, {}, [0] * max(1, mu.num_rows))


def fusion_from_lr(N: int, lam: YoungDiagram, mu: YoungDiagram,
                   nu: YoungDiagram) -> int:
    """Fusion coefficient predicted by classical Littlewood-Richardson rules:
    sum over the unique full-column lift of nu with at most N rows."""
    t, rem = divmod(lam.size + mu.size - nu.size, N)
    if rem or t < 0:
        return 0
    lift_rows = tuple((nu.row(i) + t) for i in range(N)) if t else nu.rows
    lift = YoungDiagram(tuple(r for r in lift_rows if r))
    if lift.num_rows > N:
        return 0
    return littlewood_richardson(lam, mu, lift)


# ---------------------------------------------------------------------------
# Verlinde dimensions
# ---------------------------------------------------------------------------

def verlinde_dimension(data: ModularData, g: int) -> CycScalar:
    """TQFT dimension in genus g, computed in two independent ways and
    asserted equal: the explicit sum over strictly decreasing exponent
    sequences and the spectral sum over simple objects."""
    if g < 0:
        raise ScalarError("genus must be >= 0")
    ctx = data.ctx
    N, K = data.N, data.K
    # spectral form: omega^(g-1) sum <lam>^(2-2g)
    spectral = ctx.zero()
    for d_ in data.dims:
        spectral = spectral + (d_ * d_) ** (1 - g)
    spectral = spectral * data.omega ** (g - 1)

    if data.theory == "su":
        front = ctx.from_rational(Fraction((N + K) ** (N - 1) * N)) ** (g - 1)
        # -1/(s^d - s^-d)^2 for each difference 0 < d < N + K of two
        # exponents, inverted once per d
        factor = [None] + [-((ctx.s(d) - ctx.s(-d)) ** 2).invert()
                           for d in range(1, N + K)]
        total = ctx.zero()
        for ls in itertools.combinations(range(1, N + K), N - 1):
            seq = sorted(ls, reverse=True) + [0]
            prod = ctx.one()
            for i in range(N):
                for j in range(i + 1, N):
                    prod = prod * factor[seq[i] - seq[j]]
            total = total + prod ** (g - 1)
        if front * total != spectral:
            raise ScalarError("Verlinde sum and spectral form disagree")
    return spectral
