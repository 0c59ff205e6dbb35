"""Mod-d refinements, Gauss-sum invariants, and the factorization check.

The reduced invariant decomposes over mod-d spin structures (spin rank-level,
d even) or mod-d cohomology classes (otherwise).  Both structure sets are the
solutions of a linear characteristic equation on the linking matrix, solved
exactly through the integer Smith normal form.  The abelian Gauss-sum
invariant at the root of unity zeta and the factorization

    tau_su = tau_u1 * tau_reduced

are evaluated in the complex embedding because the two sides live in
different formal eta extensions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath

from .moddata import ModularData, build_modular_data
from .scalars import MIN_PRECISION, CycScalar, ExtScalar, ScalarError
from .surgery import (PlumbingGraph, _normalized, colored_bracket,
                      linking_data, tau)

__all__ = [
    "SpinStructureSet",
    "smith_normal_form",
    "solve_linear_mod",
    "h1_cardinality",
    "characteristic_solutions",
    "refined_tau",
    "graded_gauss_sums",
    "blowdown_transform",
    "blowup_transform",
    "u1_root_of_unity",
    "u1_gauss_unit",
    "u1_invariant",
    "reduction_check",
]


# ---------------------------------------------------------------------------
# integer Smith normal form
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


def _h1_from_smith(D, d: int) -> int:
    return math.prod(math.gcd(D[i][i], d) for i in range(len(D)))


def h1_cardinality(B, d: int) -> int:
    """|Hom(coker B, Z/d)| = prod gcd(D_ii, d) over all m diagonal slots."""
    return _h1_from_smith(smith_normal_form(B)[0], d)


def solve_linear_mod(B, target, d: int):
    """All solutions c of B c = target (mod d), via the Smith form."""
    return _solve_from_smith(*smith_normal_form(B), target, d)


def _solve_from_smith(D, U, V, target, d: int):
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
# characteristic structures
# ---------------------------------------------------------------------------

@dataclass
class SpinStructureSet:
    d: int
    B: list
    solutions: list
    kind: str  # "spin" | "coho"


def _characteristic_target(B, d: int, kind: str):
    m = len(B)
    if kind == "spin":
        return [(d // 2) * B[i][i] % d for i in range(m)]
    return [0] * m


def characteristic_solutions(B, d: int, kind: str) -> SpinStructureSet:
    """Solutions of B c = (d/2) diag(B) (spin) or B c = 0 (coho) mod d."""
    if kind not in ("spin", "coho"):
        raise ScalarError(f"unknown structure kind {kind!r}")
    if d < 1:
        raise ScalarError("modulus must be >= 1")
    if kind == "spin" and d % 2:
        raise ScalarError("spin structures need an even modulus")
    D, U, V = smith_normal_form(B)
    sols = _solve_from_smith(D, U, V, _characteristic_target(B, d, kind), d)
    if not sols:
        raise ScalarError("internal error: empty characteristic solution set")
    if len(sols) != _h1_from_smith(D, d):
        raise ScalarError("internal error: solution count does not match "
                          "the first cohomology cardinality")
    return SpinStructureSet(d, [list(r) for r in B], sols, kind)


def is_characteristic(B, c, d: int, kind: str) -> bool:
    target = _characteristic_target(B, d, kind)
    m = len(B)
    return all(sum(B[i][k] * c[k] for k in range(m)) % d == target[i] % d
               for i in range(m))


# ---------------------------------------------------------------------------
# refined invariants
# ---------------------------------------------------------------------------

def _structure_kind(data: ModularData) -> str:
    return "spin" if data.spin_case else "coho"


def refined_tau(g: PlumbingGraph, c, data: ModularData,
                kind: str | None = None) -> ExtScalar:
    """delta^(-sigma) eta~^m <L(omega~_{c_1}, ..., omega~_{c_m})>."""
    if data.theory != "reduced":
        raise ScalarError("refined invariants require the reduced theory")
    expected = _structure_kind(data)
    if kind is None:
        kind = expected
    if kind != expected:
        raise ScalarError(
            f"structure kind {kind!r} is unavailable at ({data.N}, {data.K}): "
            f"this rank-level carries {expected!r} structures")
    B, sigma = linking_data(g)
    m = len(B)
    d = data.grading_modulus
    c = [int(x) % d for x in c]
    if len(c) != m:
        raise ScalarError("structure vector length does not match the "
                          "number of surgery components")
    if not is_characteristic(B, c, d, kind):
        raise ScalarError("vector does not satisfy the mod d characteristic "
                          "equation of the linking matrix")
    filt = {v.id: c[i] for i, v in enumerate(g.surgery_vertices)}
    return _normalized(colored_bracket(g, data, filt), sigma, m, data)


def graded_gauss_sums(data: ModularData):
    """Vector over nu in Z/d of eta~ * sum_{deg(u) = nu} theta_u <u>^2."""
    d = data.grading_modulus
    parts = [data.ctx.zero() for _ in range(d)]
    for lab, dim, tw in zip(data.labels, data.dims, data.twists):
        nu = data.degree(lab) % d
        parts[nu] = parts[nu] + tw * dim * dim
    return [ExtScalar(p, 1, data.theory, data.omega) for p in parts]


def blowup_transform(c, d: int, kind: str):
    """Structure vector after appending an isolated +-1-framed vertex."""
    extra = d // 2 if kind == "spin" else 0
    return list(c) + [extra]


def blowdown_transform(c, B, d: int, kind: str):
    """Remove the last surgery component, which must be an isolated
    +-1-framed vertex carrying the mandatory coefficient."""
    m = len(B)
    if m == 0:
        raise ScalarError("nothing to blow down")
    if B[m - 1][m - 1] not in (1, -1) or \
            any(B[m - 1][k] for k in range(m - 1)):
        raise ScalarError("last component is not an isolated +-1-framed vertex")
    required = d // 2 if kind == "spin" else 0
    if c[m - 1] % d != required:
        raise ScalarError(
            f"coefficient on the blown-down component must be {required}")
    return list(c[:m - 1])


# ---------------------------------------------------------------------------
# the abelian Gauss-sum invariant
# ---------------------------------------------------------------------------

def u1_root_of_unity(su_data: ModularData, beta: int) -> CycScalar:
    """zeta = (a^K s^-1)^(K beta^2) for d even, ((-a)^K s^-1)^(K beta^2)
    for d odd, in the ring of the full theory."""
    ctx = su_data.ctx
    K = su_data.K
    d = su_data.grading_modulus
    base = ctx.a(K) * ctx.s(-1)
    if d % 2:
        base = base * ctx.from_rational((-1) ** K)
    return base ** (K * beta * beta)


def u1_gauss_unit(su_data: ModularData, red_data: ModularData) -> CycScalar:
    """The one-dimensional Gauss sum sum_{j in Z/N'} zeta^(j^2)."""
    ctx = su_data.ctx
    n_prime = su_data.N // su_data.grading_modulus
    zeta = u1_root_of_unity(su_data, red_data.beta)
    total = ctx.zero()
    for j in range(n_prime):
        total = total + zeta ** (j * j)
    return total


def u1_invariant(g: PlumbingGraph, su_data: ModularData,
                 red_data: ModularData):
    """(Delta/delta)^(-sigma) (eta/eta~)^m sum_{j in (Z/N')^m} zeta^(jBj),
    with B the linking matrix of g, evaluated in the complex embedding."""
    B, sigma = linking_data(g)
    m = len(B)
    ctx = su_data.ctx
    n_prime = su_data.N // su_data.grading_modulus
    zeta = u1_root_of_unity(su_data, red_data.beta)
    gauss = ctx.zero()
    for js in itertools.product(range(n_prime), repeat=m):
        expo = sum(B[i][k] * js[i] * js[k] for i in range(m) for k in range(m))
        gauss = gauss + zeta ** expo
    with mpmath.workdps(MIN_PRECISION + 15):
        big_delta = ExtScalar(su_data.delta_plus, 1, "su",
                              su_data.omega).embed()
        small_delta = ExtScalar(red_data.delta_plus, 1, "reduced",
                                red_data.omega).embed()
        eta = 1 / mpmath.sqrt(su_data.omega.embed().real)
        eta_red = 1 / mpmath.sqrt(red_data.omega.embed().real)
        value = (big_delta / small_delta) ** (-sigma) \
            * (eta / eta_red) ** m * gauss.embed()
    return value


# ---------------------------------------------------------------------------
# the factorization check
# ---------------------------------------------------------------------------

def reduction_check(g: PlumbingGraph, N: int, K: int,
                    su_data: ModularData | None = None,
                    red_data: ModularData | None = None) -> dict:
    """Compare tau_su(M) with tau_u1(M, zeta) * tau_reduced(M) numerically."""
    if su_data is None:
        su_data = build_modular_data(N, K, "su")
    if red_data is None:
        red_data = build_modular_data(N, K, "reduced")
    lhs = tau(g, su_data).value.embed()
    u1 = u1_invariant(g, su_data, red_data)
    reduced = tau(g, red_data).value.embed()
    rhs = u1 * reduced
    diff = abs(lhs - rhs)
    return {
        "su": lhs,
        "u1": u1,
        "reduced": reduced,
        "product": rhs,
        "difference": diff,
        "ok": diff < mpmath.mpf("1e-9"),
    }
