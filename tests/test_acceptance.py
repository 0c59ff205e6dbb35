"""Acceptance suite: one test per headline criterion, each printing a single
pass/fail line.

The degree-zero (psu) theory is modular only when gcd(N, K) = 1.  Its
identities -- S conj(S) = Omega I, Delta_+ Delta_- = Omega and the sphere
normalization of tau -- are asserted exactly at coprime (N, K).  At
gcd(N, K) = d > 1 the exact degeneracy is asserted instead: the d rectangles
(K^k), k = 0, N/d, 2N/d, ..., have the unit S-row, Delta_+ Delta_- = d Omega_0
and tau(U_{-1}) = d.  At a spin rank-level Delta_+ vanishes and tau must raise.
"""

import itertools
import math
import random
import time
from functools import lru_cache

from heckemod.diagrams import (
    YoungDiagram,
    enumerate_sector,
    orbit_representatives,
    quantum_dimension,
    twist_coefficient,
)
from heckemod.hecke import (
    HeckeElement,
    addable_cells,
    full_twist,
    path_idempotent,
    standard_tableaux,
    symmetrizer,
)
from heckemod.moddata import (
    build_modular_data,
    fusion_coefficients,
    fusion_from_lr,
    omega_closed_form,
    verlinde_dimension,
)
from heckemod.refine import (
    characteristic_solutions,
    graded_gauss_sums,
    reduction_check,
    refined_tau,
    u1_gauss_unit,
)
from heckemod.scalars import ScalarError, solve_framing_reduced, su_parameters
from heckemod.surgery import (
    PlumbingGraph,
    PlumbingVertex,
    chain,
    colored_bracket,
    disjoint_union,
    linking_data,
    random_forest,
    single_vertex,
    tau,
)

from helpers import (
    central_idempotent,
    quantum_hook_product,
    rational_value,
    tensor_right,
    young_quasi_idempotent,
)

GRID = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)]


@lru_cache(maxsize=None)
def data(N, K, theory):
    return build_modular_data(N, K, theory)


CRITERION_LINES = []


def check(num, name, limit, failures, elapsed):
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    line = f"criterion {num:02d} {name}: {status} ({elapsed:.2f}s)"
    print(line)
    CRITERION_LINES.append(line)  # echoed in the terminal summary
    assert not failures, failures
    assert elapsed < limit, f"exceeded {limit}s: {elapsed:.2f}s"


def is_exactly(value, n):
    ring = value.omega.ring
    return value.base == ring.from_rational(n) and value.eta_pow == 0


def test_criterion_01_simple_object_counts():
    t0 = time.perf_counter()
    failures = []
    for N, K in GRID:
        d = math.gcd(N, K)
        full = math.factorial(N + K - 1) // (
            math.factorial(N - 1) * math.factorial(K))
        red = d * math.factorial(N + K - 1) // (
            math.factorial(N) * math.factorial(K))
        got_full = len(enumerate_sector(N, K, "strict"))
        alpha, beta, _ = solve_framing_reduced(N, K)
        got_red = len(orbit_representatives(N, K, alpha, beta)[0])
        if got_full != full:
            failures.append(f"full count at {(N, K)}: {got_full} != {full}")
        if got_red != red:
            failures.append(f"reduced count at {(N, K)}: {got_red} != {red}")
    check(1, "simple object counts", 1, failures, time.perf_counter() - t0)


def test_criterion_02_global_dimension_closed_form():
    t0 = time.perf_counter()
    failures = []
    for N, K in GRID:
        su = data(N, K, "su")
        if su.omega != omega_closed_form(su.ctx, N):
            failures.append(f"full closed form at {(N, K)}")
        red = data(N, K, "reduced")
        if red.omega != omega_closed_form(red.ctx, math.gcd(N, K)):
            failures.append(f"reduced closed form at {(N, K)}")
    check(2, "global dimension closed form", 5, failures,
          time.perf_counter() - t0)


def modularity_failures(d):
    n = len(d.labels)
    ctx = d.ctx
    for i in range(n):
        for j in range(n):
            acc = ctx.zero()
            for k in range(n):
                acc = acc + d.s_matrix[i][k] * d.s_matrix[j][k].conjugate()
            if acc != (d.omega if i == j else ctx.zero()):
                return [f"{d.theory}({d.N},{d.K}): S conj(S) != omega I "
                        f"at ({i},{j})"]
    return []


def unit_row_failures(d):
    step = d.N // math.gcd(d.N, d.K)
    want = {(d.K,) * k for k in range(0, d.N, step)}
    unit_row = d.s_matrix[d.unit_index]
    got = {lab.rows for lab, row in zip(d.labels, d.s_matrix)
           if row == unit_row}
    if got != want:
        return [f"{d.theory}({d.N},{d.K}): labels with the unit S-row are "
                f"{sorted(got)}, not the rectangles {sorted(want)}"]
    return []


def test_criterion_03_modularity():
    t0 = time.perf_counter()
    failures = []
    for N, K in GRID:
        failures += modularity_failures(data(N, K, "su"))
    for N, K in [(2, 2), (3, 3), (2, 4)]:
        failures += modularity_failures(data(N, K, "reduced"))
    # gcd = 1: the degree-zero sector is itself modular
    for N, K in [(2, 3), (3, 2)]:
        failures += modularity_failures(data(N, K, "psu"))
    # gcd = d > 1: S is singular, because exactly the d rectangles (K^k),
    # k = 0, N/d, 2N/d, ..., are transparent and share the unit row
    for N, K in [(2, 4), (3, 3)]:
        failures += unit_row_failures(data(N, K, "psu"))
    check(3, "modularity", 30, failures, time.perf_counter() - t0)


def test_criterion_04_verlinde_dimensions():
    t0 = time.perf_counter()
    failures = []
    for N, K in GRID:
        su = data(N, K, "su")
        try:
            for g in (0, 1, 2, 3):
                verlinde_dimension(su, g)
        except ScalarError as ex:
            failures.append(f"verlinde at {(N, K)}: {ex}")
        d1 = verlinde_dimension(su, 1)
        if not (d1.is_rational() and rational_value(d1) == len(su.labels)):
            failures.append(f"d_1 != |labels| at {(N, K)}")
    check(4, "verlinde dimensions", 10, failures, time.perf_counter() - t0)


def test_criterion_05_braid_algebra_oracle():
    t0 = time.perf_counter()
    failures = []
    for N, K in [(2, 3), (3, 2)]:
        ctx = su_parameters(N, K)
        for n in (1, 2, 3, 4):
            ft = full_twist(n, ctx)
            curls = (ctx.a() * ctx.v(-1)) ** n
            for t in standard_tableaux(n):
                p = path_idempotent(t, ctx)
                lam = t.shape()
                if p.markov_trace() != quantum_dimension(ctx, lam):
                    failures.append(f"trace != dim at {(N, K)}, {lam}")
                if curls * (ft * p) != twist_coefficient(ctx, lam) * p:
                    failures.append(f"full twist != theta at {(N, K)}, {lam}")
        seen = set()
        for t in standard_tableaux(4):
            for k in (1, 2, 3, 4):
                lam = t.shape_at(k)
                if lam.rows in seen:
                    continue
                seen.add(lam.rows)
                y = young_quasi_idempotent(lam, ctx)
                if y.is_zero() or y * y != quantum_hook_product(lam, ctx) * y:
                    failures.append(f"quasi-idempotent at {(N, K)}, {lam}")
        for n in (2, 3):
            for t in standard_tableaux(n):
                pt = tensor_right(path_idempotent(t, ctx), 1)
                total = HeckeElement(n + 1, ctx, {})
                for (i, j) in addable_cells(t.shape()):
                    rows = list(t.shape().rows) \
                        + [0] * (i + 1 - t.shape().num_rows)
                    rows[i] += 1
                    zmu = central_idempotent(YoungDiagram(tuple(rows)),
                                             n + 1, ctx)
                    total = total + pt * zmu * pt
                if total != pt:
                    failures.append(f"branching at {(N, K)}, {t.shape()}")
        for n in (2, 3, 4):
            fn = symmetrizer(n, "f", ctx)
            gn = symmetrizer(n, "g", ctx)
            for i in range(n - 1):
                sig = HeckeElement.generator(i, n, ctx)
                if sig * fn != (ctx.a() * ctx.s()) * fn:
                    failures.append(f"row eigenvalue at {(N, K)}, n={n}")
                if sig * gn != \
                        (ctx.from_rational(-1) * ctx.a() * ctx.s(-1)) * gn:
                    failures.append(f"column eigenvalue at {(N, K)}, n={n}")
    check(5, "braid algebra oracle", 60, failures, time.perf_counter() - t0)


def test_criterion_06_spin_vanishing():
    t0 = time.perf_counter()
    failures = []
    for N, K in [(2, 2), (2, 6)]:
        psu = data(N, K, "psu")
        if not psu.delta_plus.is_zero():
            failures.append(f"twisted sum nonzero at spin {(N, K)}")
    # off the spin rank-levels Delta_+ Delta_- = d * Omega_0, d = gcd(N, K):
    # the coprime identity at d = 1, the documented degeneracy at d > 1
    for N, K in [(2, 3), (3, 2), (2, 4), (3, 3)]:
        psu = data(N, K, "psu")
        d = math.gcd(N, K)
        if psu.delta_plus.is_zero():
            failures.append(f"twisted sum zero at {(N, K)}")
        if psu.delta_plus * psu.delta_minus != d * psu.omega:
            failures.append(
                f"delta product at {(N, K)}: not {d} * omega_0 (gcd = {d})")
    check(6, "spin-case vanishing", 5, failures, time.perf_counter() - t0)


def sphere_name(g):
    if not g.vertices:
        return "empty"
    return f"unknot({g.vertices[0].framing:+d})"


def test_criterion_07_normalization():
    t0 = time.perf_counter()
    failures = []
    spheres = [PlumbingGraph([], []), single_vertex(1), single_vertex(-1)]
    normalized = [((N, K), theory) for N, K in [(2, 2), (3, 3)]
                  for theory in ("su", "reduced")]
    # gcd = 1: the degree-zero invariant is tau^{PSU(N)} and normalized
    normalized += [((2, 3), "psu"), ((3, 2), "psu")]
    for (N, K), theory in normalized:
        for g in spheres:
            try:
                value = tau(g, data(N, K, theory)).value
            except ScalarError as ex:
                failures.append(f"{theory}{(N, K)}: {ex}")
                break
            if not is_exactly(value, 1):
                failures.append(
                    f"{theory}{(N, K)} on the {sphere_name(g)} "
                    f"presentation: got {value.embed()}")
    # spin rank-level: Delta_+ = 0, so the degree-zero invariant does not exist
    try:
        value = tau(PlumbingGraph([], []), data(2, 2, "psu")).value
    except ScalarError:
        pass
    else:
        failures.append(f"psu(2, 2): got {value.embed()}, not ScalarError")
    # gcd = d > 1: tau(U_{-1}) = Delta_+ Delta_- / Omega_0 = d, the rest is 1
    N, K = 3, 3
    psu = data(N, K, "psu")
    for g, want in zip(spheres, (1, 1, math.gcd(N, K))):
        value = tau(g, psu).value
        if not is_exactly(value, want):
            failures.append(
                f"psu{(N, K)} on the {sphere_name(g)} presentation: "
                f"got {value.embed()}, not {want}")
    rng = random.Random(20260823)
    for _ in range(10):
        g = random_forest(rng)
        for theory in ("su", "reduced"):
            d = data(2, 2, theory)
            base = tau(g, d).value
            for fr in (1, -1):
                blown = disjoint_union(g, single_vertex(fr, "blow"))
                if tau(blown, d).value != base:
                    failures.append(f"blow-up changed tau ({theory})")
    check(7, "sphere normalization and blow-up invariance", 30, failures,
          time.perf_counter() - t0)


REFINE_GRAPHS = [single_vertex(0), single_vertex(-2), chain([-2, -2])]


def test_criterion_08_refinement_decomposition():
    t0 = time.perf_counter()
    failures = []
    for (N, K), kind in [((2, 2), "spin"), ((3, 3), "coho"), ((2, 4), "coho")]:
        red = data(N, K, "reduced")
        d = red.grading_modulus
        for g in REFINE_GRAPHS:
            B, _ = linking_data(g)
            sols = characteristic_solutions(B, d, kind).solutions
            vals = [refined_tau(g, c, red, kind) for c in sols]
            total = vals[0]
            for v in vals[1:]:
                total = total + v
            if total != tau(g, red).value:
                failures.append(f"decomposition at {(N, K)}, {g}")
            sol_set = set(sols)
            for c in itertools.product(range(d), repeat=len(B)):
                if c in sol_set:
                    continue
                filt = {v.id: c[i]
                        for i, v in enumerate(g.surgery_vertices)}
                if not colored_bracket(g, red, filt).is_zero():
                    failures.append(f"non-solution bracket at {(N, K)}, {c}")
    check(8, "refinement decomposition", 60, failures,
          time.perf_counter() - t0)


def test_criterion_09_graded_gauss_sums():
    t0 = time.perf_counter()
    failures = []
    for (N, K), live in [((2, 2), 1), ((3, 3), 0)]:
        sums = graded_gauss_sums(data(N, K, "reduced"))
        for nu, val in enumerate(sums):
            if (nu != live) != val.base.is_zero():
                failures.append(f"graded sum nu={nu} at {(N, K)}")
    check(9, "graded gauss sums", 5, failures, time.perf_counter() - t0)


TREE5 = PlumbingGraph(
    [PlumbingVertex("a", -1), PlumbingVertex("b", -2), PlumbingVertex("c", -3),
     PlumbingVertex("d", 0), PlumbingVertex("e", 2)],
    [("a", "b"), ("a", "c"), ("a", "d"), ("d", "e")])


def test_criterion_10_reduction_formula():
    t0 = time.perf_counter()
    failures = []
    graphs = [single_vertex(0), single_vertex(1), chain([-2, -2]),
              chain([0, 0]), TREE5]
    for N, K in [(2, 2), (3, 3)]:
        su = data(N, K, "su")
        red = data(N, K, "reduced")
        for g in graphs:
            rep = reduction_check(g, N, K, su_data=su, red_data=red)
            if not rep["ok"]:
                failures.append(
                    f"reduction at {(N, K)}: difference {rep['difference']}")
    for N, K in GRID:
        su = data(N, K, "su")
        red = data(N, K, "reduced")
        n_prime = N // math.gcd(N, K)
        unit = u1_gauss_unit(su, red)
        if abs(abs(unit.embed()) ** 2 - n_prime) > 1e-12:
            failures.append(f"gauss unit modulus at {(N, K)}")
    check(10, "reduction to abelian times reduced", 120, failures,
          time.perf_counter() - t0)


def test_criterion_11_fusion_integrality():
    t0 = time.perf_counter()
    failures = []
    for N, K in [(2, 2), (3, 3), (2, 4)]:
        su = data(N, K, "su")
        for lam in su.labels:
            for mu in su.labels:
                try:
                    out = fusion_coefficients(su, lam, mu)
                except ScalarError as ex:
                    failures.append(f"fusion at {(N, K)}, {lam}, {mu}: {ex}")
                    continue
                if lam.size + mu.size <= K:
                    for nu in su.labels:
                        if out.get(nu, 0) != fusion_from_lr(N, lam, mu, nu):
                            failures.append(
                                f"LR mismatch at {(N, K)}, {lam}*{mu}->{nu}")
    check(11, "fusion integrality", 60, failures, time.perf_counter() - t0)
