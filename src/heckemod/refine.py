"""Mod-d refinements, Gauss-sum invariants, and the factorization check.

The reduced invariant decomposes over mod-d spin structures (spin rank-level,
d even) or mod-d cohomology classes (otherwise).  Both structure sets are the
solutions of a linear characteristic equation on the linking matrix, solved
exactly by forest leaf elimination.  The abelian Gauss-sum invariant at the
root of unity zeta is evaluated in the complex embedding, as its parts live
in different formal eta extensions; the factorization

    tau_su = tau_u1 * tau_reduced

is decided exactly on the brackets, where the normalizations cancel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .moddata import ModularData
from .scalars import MIN_PRECISION, CycScalar, ExtScalar, ScalarError
from .surgery import (PlumbingGraph, PlumbingVertex, _eliminate,
                      _normalized, _signature, _sparse_columns,
                      colored_bracket, single_vertex)

__all__ = [
    "SpinStructureSet",
    "characteristic_solutions",
    "refined_tau",
    "graded_gauss_sums",
    "u1_gauss_unit",
    "u1_invariant",
    "reduction_check",
]


# ---------------------------------------------------------------------------
# characteristic structures
# ---------------------------------------------------------------------------

@dataclass
class SpinStructureSet:
    d: int
    solutions: list
    kind: str  # "spin" | "coho"


def _characteristic_target(B, d: int, kind: str):
    m = len(B)
    if kind == "spin":
        return [(d // 2) * B[i][i] % d for i in range(m)]
    return [0] * m


def _linking_forest(B) -> PlumbingGraph:
    """The forest on the rows of B (vertex i is row i) whose edges are its
    off-diagonal 1s.  A B that is not square or symmetric, has another
    off-diagonal entry or has a cycle is not a plumbing linking matrix and
    raises ScalarError."""
    if any(len(row) != len(B) for row in B):
        raise ScalarError("linking matrix must be square")
    edges = []
    for i, row in enumerate(B):
        for j, x in enumerate(row):
            if x and j != i:
                if x != 1 or B[j][i] != 1:
                    raise ScalarError(f"linking matrix entry ({i}, {j}) = "
                                      f"{x} is not a plumbing edge")
                if i < j:
                    edges.append((i, j))
    return PlumbingGraph(
        [PlumbingVertex(i, row[i]) for i, row in enumerate(B)], edges)


def characteristic_solutions(B, d: int, kind: str) -> SpinStructureSet:
    """Solutions of B c = (d/2) diag(B) (spin) or B c = 0 (coho) mod d, for
    the linking matrix B of a plumbing forest, by leaf elimination.

    The preorder is read backwards.  Each vertex v hands its parent p the
    partial solutions (v, c_v, children's partials) of its subtree that
    satisfy every equation below v, grouped by the value of c_p that the
    equation of v then forces; v's partials with c_v = a combine one
    partial from each child's group a.  A root's equation has no parent
    term, so each tree contributes only the partials of its root's group 0.
    """
    if kind not in ("spin", "coho"):
        raise ScalarError(f"unknown structure kind {kind!r}")
    if d < 1:
        raise ScalarError("modulus must be >= 1")
    if kind == "spin" and d % 2:
        raise ScalarError("spin structures need an even modulus")
    g = _linking_forest(B)
    target = _characteristic_target(B, d, kind)
    inbox = [[] for _ in B]  # the groups handed up by each vertex's children
    roots = []
    for v, parent in reversed(g.preorder):
        groups = {}
        for a in range(d):
            rest = target[v] - B[v][v] * a
            for kids in itertools.product(*(x.get(a, []) for x in inbox[v])):
                forced = (rest - sum(kid[1] for kid in kids)) % d
                groups.setdefault(forced, []).append((v, a, kids))
        inbox[v] = None
        (roots if parent is None else inbox[parent]).append(groups)
    sols = []
    for per_tree in itertools.product(*(x.get(0, []) for x in roots)):
        c = [0] * len(B)
        stack = list(per_tree)
        while stack:
            v, a, kids = stack.pop()
            c[v] = a
            stack.extend(kids)
        sols.append(tuple(c))
    if not sols:
        raise ScalarError("internal error: empty characteristic solution set")
    return SpinStructureSet(d, sorted(sols), kind)


def _is_characteristic_on_forest(g: PlumbingGraph, c, d: int,
                                 kind: str) -> bool:
    """Whether c solves the characteristic equation of the linking matrix B
    of g mod d, read from the forest: (Bc)_v = framing_v c_v + the sum of
    c_u over the surgery neighbours u of v."""
    surg = g.surgery_vertices
    index = {v.id: i for i, v in enumerate(surg)}
    half = d // 2 if kind == "spin" else 0
    return all(
        (v.framing * (c[i] - half)
         + sum(c[index[u]] for u in g.adjacency[v.id] if u in index)) % d == 0
        for i, v in enumerate(surg))


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
    m, sigma = _signature(g)
    d = data.grading_modulus
    c = [int(x) % d for x in c]
    if len(c) != m:
        raise ScalarError("structure vector length does not match the "
                          "number of surgery components")
    if not _is_characteristic_on_forest(g, c, d, kind):
        raise ScalarError("vector does not satisfy the mod d characteristic "
                          "equation of the linking matrix")
    filt = {v.id: c[i] for i, v in enumerate(g.surgery_vertices)}
    return _normalized(colored_bracket(g, data, filt), sigma, m, data)


def graded_gauss_sums(data: ModularData):
    """Vector over nu in Z/d of eta~ * sum_{deg(u) = nu} theta_u <u>^2."""
    zero = data.ctx.zero()
    parts = [sum((data.twists[i] * data.dims[i] * data.dims[i]
                  for i in data.labels_by_residue[nu]), zero)
             for nu in range(data.grading_modulus)]
    return [ExtScalar(p, 1, data.theory, data.omega) for p in parts]


# ---------------------------------------------------------------------------
# the abelian Gauss-sum invariant
# ---------------------------------------------------------------------------

def _u1_exponent(su_data: ModularData, beta: int) -> int:
    """The u, 0 <= u < M, with zeta_M^u the root of unity of the abelian
    Gauss sum in the ring of the full theory: (a^K s^-1)^(K beta^2) for d
    even, ((-a)^K s^-1)^(K beta^2) for d odd.  a^K s^-1 is
    zeta^(K a_exp - s_exp), and -1 is zeta^(M/2) (M = 2N(N+K) is even)."""
    ctx = su_data.ctx
    K = su_data.K
    base = K * ctx.a_exp - ctx.s_exp
    if su_data.grading_modulus % 2:
        base += K * (ctx.M // 2)
    return base * K * beta * beta % ctx.M


def u1_gauss_unit(su_data: ModularData, red_data: ModularData) -> CycScalar:
    """The one-dimensional Gauss sum sum_{j in Z/N'} zeta^(j^2): the abelian
    sum of the +1-framed unknot."""
    return _abelian_gauss_sum(single_vertex(1), su_data, red_data)


def _abelian_gauss_sum(g: PlumbingGraph, su_data: ModularData,
                       red_data: ModularData) -> CycScalar:
    """sum_{j in (Z/N')^m} zeta^(jBj), B the linking matrix of g, by the
    bracket's leaf elimination: surgery vertex v weighs label j by
    zeta^(b_v j^2), a rotation by b_v u j^2 for zeta = zeta_M^u, an edge
    with end labels i, j contributes zeta^(2ij), and a link vertex, which
    is not in B, takes label 0 alone."""
    ctx = su_data.ctx
    M = ctx.M
    u = _u1_exponent(su_data, red_data.beta)
    labels = tuple(range(su_data.N // su_data.grading_modulus))
    specs = {v.id: (None, (0,), None, (0,)) if v.is_link else
             (v.framing % M, labels, None,
              tuple(u * v.framing * j * j % M for j in labels))
             for v in g.vertices}
    table = [[ctx.zeta(2 * u * i * j) for j in labels] for i in labels]
    return _eliminate(g, specs, _sparse_columns(table, ctx))


def u1_invariant(g: PlumbingGraph, su_data: ModularData,
                 red_data: ModularData):
    """(Delta/delta)^(-sigma) (eta/eta~)^m sum_{j in (Z/N')^m} zeta^(jBj),
    with B the linking matrix of g, evaluated in the complex embedding: the
    Gauss sum under the su normalization over 1 under the reduced one."""
    m, sigma = _signature(g)
    gauss = _abelian_gauss_sum(g, su_data, red_data)
    import mpmath
    with mpmath.workdps(MIN_PRECISION + 15):
        return _normalized(gauss, sigma, m, su_data).embed() \
            / _normalized(red_data.ctx.one(), sigma, m, red_data).embed()


# ---------------------------------------------------------------------------
# the factorization check
# ---------------------------------------------------------------------------

def reduction_check(g: PlumbingGraph, N: int, K: int, su_data: ModularData,
                    red_data: ModularData) -> dict:
    """Decide tau_su = tau_u1 * tau_reduced exactly on the data built at
    (N, K), for a closed manifold (G pins link vertices to label 0).
    Each tau_T is n_T(<L>_T), n_T(x) = Delta_+^-sigma Omega^-half eta^rem x
    with the same sigma and m in both theories, and tau_u1 = n_su(G) /
    n_reduced(1) for the abelian Gauss sum G.  So the reduced normalization
    cancels, n_su is a nonzero factor of both sides, and the formula holds
    exactly when <L>_su = G <L>_reduced in the su ring, which takes the
    reduced one by zeta_red -> zeta^(M / M_red).  The difference returned
    is zero exactly when ok."""
    if su_data.theory != "su" or red_data.theory != "reduced":
        raise ScalarError("reduction_check needs su and reduced data, got "
                          f"{su_data.theory} and {red_data.theory}")
    if {(su_data.N, su_data.K), (red_data.N, red_data.K)} != {(N, K)}:
        raise ScalarError(f"reduction_check needs the data built at ({N}, {K})")
    ctx = su_data.ctx
    step, rest = divmod(ctx.M, red_data.ctx.M)
    if rest:
        raise ScalarError(f"the reduced root order {red_data.ctx.M} does not "
                          f"divide the su one {ctx.M}")
    links = [v.id for v in g.vertices if v.is_link]
    if links:
        raise ScalarError(f"reduction_check needs a closed manifold; vertex "
                          f"{links[0]!r} is a link component")
    red = colored_bracket(g, red_data)
    red = CycScalar(ctx, ctx.power_sum(red.nums, step), red.den)
    diff = colored_bracket(g, su_data) \
        - _abelian_gauss_sum(g, su_data, red_data) * red
    return {"ok": diff.is_zero(), "difference": diff}
