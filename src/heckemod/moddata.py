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
from functools import lru_cache

from .diagrams import (
    EMPTY,
    ReducedLabel,
    YoungDiagram,
    enumerate_sector,
    orbit_representatives,
    quantum_dimension,
    twist_coefficient,
)
from .scalars import CycScalar, RingContext, ScalarError, solve_framing_reduced, su_parameters

THEORIES = ("su", "psu", "reduced")


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


def _alternant(ctx: RingContext, exponents: list[int],
               powers: list[int]) -> CycScalar:
    """det(zeta^(exponents[i] * powers[j])), summed over permutations."""
    N = ctx.N
    total = ctx.zero()
    for pi, sign in _signed_permutations(N):
        term = ctx.zeta(sum(exponents[i] * powers[pi[i]] for i in range(N)))
        total = total + term if sign == 1 else total - term
    return total


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
        cross = ctx.a(ctx.N) * ctx.s()
        expo = 2 * (i * j * ctx.N + i * mu_d.size + j * lam_d.size)
        return cross ** expo * s_matrix_entry(ctx, lam_d, mu_d, column)
    N = ctx.N
    exps, inv_vandermonde, dim_mu = column
    top = [lam.row(i) + N - 1 - i for i in range(N)]
    val = _alternant(ctx, exps, top) * inv_vandermonde
    pref = ctx.zeta((2 * ctx.a_exp * lam.size * mu.size
                     - (N - 1) * ctx.s_exp * lam.size) % ctx.M)
    return pref * val * dim_mu


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

    def index(self, label) -> int:
        return self.labels.index(label)

    @property
    def grading_modulus(self) -> int:
        return math.gcd(self.N, self.K)

    def degree(self, label) -> int:
        if isinstance(label, ReducedLabel):
            return label.degree(self.N)
        return label.size

    @property
    def unit_index(self) -> int:
        for k, lab in enumerate(self.labels):
            if self.degree(lab) == 0 and (
                    lab == EMPTY or (isinstance(lab, ReducedLabel)
                                     and lab.i == 0 and lab.diagram == EMPTY)):
                return k
        raise ScalarError("unit label missing")


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

    dims = [quantum_dimension(ctx, lab) for lab in labels]
    twists = [twist_coefficient(ctx, lab) for lab in labels]
    n = len(labels)
    columns = [s_matrix_column(ctx, mu) for mu in labels]
    s_matrix = [[s_matrix_entry(ctx, lam, mu, col)
                 for mu, col in zip(labels, columns)] for lam in labels]

    omega = ctx.zero()
    dplus = ctx.zero()
    dminus = ctx.zero()
    for d_, t_ in zip(dims, twists):
        sq = d_ * d_
        omega = omega + sq
        dplus = dplus + t_ * sq
        dminus = dminus + t_.invert() * sq

    spin = is_spin_rank_level(N, K) and theory in ("psu", "reduced")
    report = {}
    report["s_symmetric"] = all(
        s_matrix[i][j] == s_matrix[j][i] for i in range(n) for j in range(i + 1, n))
    data = ModularData(theory, N, K, ctx, labels, dims, twists, s_matrix,
                       omega, dplus, dminus, spin, report, alpha, beta)
    unit = data.unit_index
    report["first_row_is_dims"] = all(s_matrix[unit][j] == dims[j] for j in range(n))
    report["omega_closed_form"] = omega == omega_closed_form(ctx, closed_factor)
    if spin and theory == "psu":
        report["spin_delta_plus_vanishes"] = dplus.is_zero()
    else:
        report["delta_product"] = dplus * dminus == omega
    # modularity S S-bar = omega I
    s_conj = [[x.conjugate() for x in row] for row in s_matrix]
    modular = True
    for i in range(n):
        for j in range(n):
            acc = ctx.zero()
            for k in range(n):
                acc = acc + s_matrix[i][k] * s_conj[j][k]
            want = omega if i == j else ctx.zero()
            if acc != want:
                modular = False
    report["modular"] = modular

    # The degree-zero sub-theory is degenerate whenever gcd(N, K) > 1: the
    # labels in the spectral-flow orbit of the empty diagram have identical
    # S-matrix rows, so S is singular and the delta product picks up a factor
    # gcd(N, K). Those report entries stay informational for that theory;
    # everything else is a hard construction gate.
    informational = {"modular"}
    if theory == "psu":
        informational.add("delta_product")
    failures = [k for k, v in report.items() if not v and k not in informational]
    if failures:
        raise ScalarError(f"modular data verification failed: {failures}")
    return data


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def fusion_coefficients(data: ModularData, lam: YoungDiagram, mu: YoungDiagram) -> dict:
    """Fusion rules by diagonalizing with the S-matrix; exact nonnegative
    integers or an error."""
    n = len(data.labels)
    ctx = data.ctx
    i_l, i_m = data.index(lam), data.index(mu)
    out = {}
    omega_inv = data.omega.invert()
    # S_lk S_mk / <k>, shared by every nu
    weights = [data.s_matrix[i_l][k] * data.s_matrix[i_m][k] * data.dims[k].invert()
               for k in range(n)]
    for i_n in range(n):
        acc = ctx.zero()
        for k in range(n):
            acc = acc + weights[k] * data.s_matrix[i_n][k].conjugate()
        val = acc * omega_inv
        if val.is_zero():
            continue
        if not val.is_rational():
            raise ScalarError(f"non-rational fusion coefficient for {data.labels[i_n]}")
        q = val.rational_value()
        if q.denominator != 1 or q < 0:
            raise ScalarError(f"fusion coefficient {q} is not a nonnegative integer")
        out[data.labels[i_n]] = int(q)
    return out


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
        total = ctx.zero()
        for ls in itertools.combinations(range(1, N + K), N - 1):
            seq = sorted(ls, reverse=True) + [0]
            prod = ctx.one()
            for i in range(N):
                for j in range(i + 1, N):
                    diff = seq[j] - seq[i]
                    prod = prod * (-1) * ((ctx.s(diff) - ctx.s(-diff)) ** 2).invert()
            total = total + prod ** (g - 1)
        if front * total != spectral:
            raise ScalarError("Verlinde sum and spectral form disagree")
    return spectral
