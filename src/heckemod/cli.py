"""Command-line surface: modular data, invariants, Hecke checks, and the
bundled verification suite.

All output is deterministic JSON (sorted keys, canonical exact scalars plus
complex approximations).  Exit codes: 0 all requested checks pass, 1 usage
error, 2 computation error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from functools import reduce
from importlib import resources

from .diagrams import quantum_dimension
from .hecke import (
    HeckeElement,
    homfly_braid_closure,
    path_idempotent,
    standard_tableaux,
    symmetrizer,
)
from .moddata import (
    build_modular_data,
    fusion_coefficients,
    fusion_from_lr,
    is_spin_rank_level,
    verlinde_dimension,
)
from .refine import (
    characteristic_solutions,
    graded_gauss_sums,
    reduction_check,
    refined_tau,
    u1_gauss_unit,
)
from .scalars import (
    MIN_PRECISION,
    ExtScalar,
    ScalarError,
    scalar_to_json,
    su_parameters,
)
from .surgery import (
    PlumbingGraph,
    PlumbingVertex,
    colored_bracket,
    disjoint_union,
    linking_data,
    parse_plumbing,
    single_vertex,
    tau,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTATION = 2
EXIT_VERIFICATION = 3

MANIFEST_NAMES = ("s3_empty", "u0", "u1", "u-2", "chain_-2_-2", "chain_0_0",
                  "tree5")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on malformed input, not argparse's 2
        raise UsageError(message)


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(doc, args) -> None:
    text = canonical_json(doc)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_manifest(name: str) -> dict:
    path = resources.files("heckemod").joinpath("manifests", f"{name}.json")
    with path.open() as fh:
        return json.load(fh)


def manifest_graph(name: str) -> PlumbingGraph:
    return parse_plumbing(load_manifest(name)["graph"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_modular_data(args) -> int:
    data = build_modular_data(args.N, args.K, args.theory)
    p = args.precision
    doc = {
        "N": args.N,
        "K": args.K,
        "theory": args.theory,
        "labels": [str(lab) for lab in data.labels],
        "dims": [scalar_to_json(x, p) for x in data.dims],
        "twists": [scalar_to_json(x, p) for x in data.twists],
        "s_matrix": [[scalar_to_json(x, p) for x in row]
                     for row in data.s_matrix],
        "omega": scalar_to_json(data.omega, p),
        "delta_plus": scalar_to_json(data.delta_plus, p),
        "delta_minus": scalar_to_json(data.delta_minus, p),
        "report": dict(data.report),
    }
    if data.theory == "reduced":
        doc["alpha"] = data.alpha
        doc["beta"] = data.beta
    _emit(doc, args)
    return EXIT_OK if all(data.report.values()) else EXIT_VERIFICATION


def _load_graph(args) -> PlumbingGraph:
    try:
        with open(args.manifold) as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise UsageError(f"cannot read manifold file: {ex}")
    except json.JSONDecodeError as ex:
        raise UsageError(f"manifold file is not valid JSON: {ex}")
    if "graph" in doc:  # bundled manifest wrapper
        doc = doc["graph"]
    return parse_plumbing(doc)


def cmd_invariant(args) -> int:
    if args.all_structures and not args.refined:
        raise UsageError("--all-structures requires --refined")
    if args.structure and not args.refined:
        raise UsageError("--structure requires --refined")
    if args.refined and args.theory != "reduced":
        raise UsageError("--refined requires --theory reduced")
    g = _load_graph(args)
    data = build_modular_data(args.N, args.K, args.theory)
    p = args.precision
    res = tau(g, data)
    doc = {
        "N": args.N,
        "K": args.K,
        "theory": args.theory,
        "signature": res.signature,
        "linking_matrix": res.report["linking_matrix"],
        "value": scalar_to_json(res.value, p),
    }
    code = EXIT_OK
    if args.refined:
        kind = args.refined
        d = data.grading_modulus
        B, _ = linking_data(g)
        if args.all_structures:
            sset = characteristic_solutions(B, d, kind)
            records = []
            values = []
            for c in sset.solutions:
                val = refined_tau(g, c, data, kind)
                values.append(val)
                records.append({"structure": list(c),
                                "value": scalar_to_json(val, p)})
            total = reduce(lambda x, y: x + y, values)
            doc["refined"] = {
                "kind": kind,
                "modulus": d,
                "structures": records,
                "decomposition_ok": total == res.value,
            }
            if not doc["refined"]["decomposition_ok"]:
                code = EXIT_VERIFICATION
        else:
            if not args.structure:
                raise UsageError(
                    "--refined needs --all-structures or --structure c1,c2,...")
            c = [int(x) for x in args.structure.split(",")] \
                if args.structure.strip() else []
            val = refined_tau(g, c, data, kind)
            doc["refined"] = {"kind": kind, "modulus": d,
                              "structure": [x % d for x in c],
                              "value": scalar_to_json(val, p)}
    _emit(doc, args)
    return code


def hecke_gates(N: int, K: int) -> dict:
    """Small exact identity gates for the braid-algebra layer."""
    ctx = su_parameters(N, K)
    gates = {}
    sig = HeckeElement.generator(0, 2, ctx)
    one = HeckeElement.identity(2, ctx)
    gates["quadratic_relation"] = (
        sig * sig == (ctx.a() * (ctx.s() - ctx.s(-1))) * sig
        + ctx.a(2) * one)
    rng = random.Random(1)
    perms = list(itertools.permutations(range(3)))

    def rand_elt():
        terms = {rng.choice(perms): ctx.from_rational(rng.randint(-3, 3))
                 for _ in range(3)}
        return HeckeElement(3, ctx, terms)

    gates["trace_symmetry"] = all(
        (x * y).markov_trace() == (y * x).markov_trace()
        for x, y in [(rand_elt(), rand_elt()) for _ in range(5)])
    ok_sym = True
    for n in (2, 3):
        fn = symmetrizer(n, "f", ctx)
        gn = symmetrizer(n, "g", ctx)
        ok_sym &= fn * fn == fn and gn * gn == gn
        for i in range(n - 1):
            s_i = HeckeElement.generator(i, n, ctx)
            ok_sym &= s_i * fn == (ctx.a() * ctx.s()) * fn
            ok_sym &= s_i * gn == \
                (ctx.from_rational(-1) * ctx.a() * ctx.s(-1)) * gn
    gates["symmetrizer_eigenvalues"] = ok_sym
    ok_tr = True
    ok_complete = True
    for n in (1, 2, 3):
        total = HeckeElement(n, ctx, {})
        for t in standard_tableaux(n):
            pt = path_idempotent(t, ctx)
            total = total + pt
            ok_tr &= pt.markov_trace() == quantum_dimension(ctx, t.shape())
        ok_complete &= total == HeckeElement.identity(n, ctx)
    gates["trace_of_path_idempotent_is_dimension"] = ok_tr
    gates["path_idempotent_completeness"] = ok_complete
    return gates


def cmd_hecke_check(args) -> int:
    gates = hecke_gates(args.N, args.K)
    doc = {"N": args.N, "K": args.K, "gates": gates,
           "all_pass": all(gates.values())}
    _emit(doc, args)
    return EXIT_OK if doc["all_pass"] else EXIT_VERIFICATION


def cmd_homfly(args) -> int:
    try:
        word = [int(x) for x in args.braid.split(",")] if args.braid else []
    except ValueError:
        raise UsageError("braid word must be comma-separated signed integers")
    if any(abs(x) < 1 or abs(x) >= args.strands for x in word):
        raise UsageError("braid letters must satisfy 1 <= |i| < strands")
    ctx = su_parameters(args.N, args.K)
    value = homfly_braid_closure(word, args.strands, ctx)
    doc = {
        "N": args.N,
        "K": args.K,
        "strands": args.strands,
        "braid": word,
        "value": scalar_to_json(value, args.precision),
    }
    _emit(doc, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _is_one(value: ExtScalar) -> bool:
    return value == ExtScalar(value.omega.ring.one(), 0, value.theory,
                              value.omega)


def _random_forest(rng, max_vertices=4):
    n = rng.randint(1, max_vertices)
    verts = [PlumbingVertex(f"v{i}", rng.randint(-3, 3)) for i in range(n)]
    edges = [(f"v{rng.randrange(i)}", f"v{i}")
             for i in range(1, n) if rng.random() < 0.6]
    return PlumbingGraph(verts, edges)


def verification_gates(N: int, K: int, depth: str = "quick") -> dict:
    """Every identity gate applicable at (N, K); name -> pass/fail."""
    full = depth == "full"
    d = math.gcd(N, K)
    n_prime = N // d
    spin = is_spin_rank_level(N, K)
    variant = (N + K) % 2 == 0 and n_prime % 2 == 0
    gates = {}

    su = build_modular_data(N, K, "su")
    red = build_modular_data(N, K, "reduced")
    psu = build_modular_data(N, K, "psu")

    gates["label_count_full"] = len(su.labels) == \
        math.factorial(N + K - 1) // (math.factorial(N - 1) * math.factorial(K))
    gates["label_count_reduced"] = len(red.labels) == \
        d * math.factorial(N + K - 1) // (math.factorial(N) * math.factorial(K))
    gates["omega_closed_form_full"] = su.report["omega_closed_form"]
    gates["omega_closed_form_reduced"] = red.report["omega_closed_form"]
    gates["s_unitarity_full"] = su.report["modular"]
    gates["s_unitarity_reduced"] = red.report["modular"]
    gates["delta_product_full"] = su.report["delta_product"]
    gates["delta_product_reduced"] = red.report["delta_product"]
    if spin:
        gates["degree_zero_spin_sum_vanishes"] = psu.delta_plus.is_zero()
    elif d == 1:
        gates["s_unitarity_degree_zero"] = psu.report["modular"]
        gates["delta_product_degree_zero"] = psu.report["delta_product"]
    else:
        # the degree-zero sector is degenerate for gcd > 1: the delta
        # product gains a factor gcd(N, K) and S is singular
        gates["degree_zero_sum_nonzero"] = not psu.delta_plus.is_zero()
        gates["degree_zero_delta_product_gains_gcd"] = \
            psu.delta_plus * psu.delta_minus == d * psu.omega

    genera = (0, 1, 2, 3) if full else (0, 1, 2)
    try:
        for g_ in genera:
            verlinde_dimension(su, g_)
        gates["verlinde_explicit_equals_spectral"] = True
    except ScalarError:
        gates["verlinde_explicit_equals_spectral"] = False

    try:
        ok_fusion = True
        for lam in su.labels:
            for mu in su.labels:
                out = fusion_coefficients(su, lam, mu)
                if full and lam.size + mu.size <= K:
                    ok_fusion &= all(
                        out.get(nu, 0) == fusion_from_lr(N, lam, mu, nu)
                        for nu in su.labels)
        gates["fusion_integrality"] = ok_fusion
    except ScalarError:
        gates["fusion_integrality"] = False

    theories = [su, red] + ([psu] if d == 1 else [])
    presentations = [PlumbingGraph([], []), single_vertex(1),
                     single_vertex(-1)]
    gates["sphere_normalization"] = all(
        _is_one(tau(g_, data).value)
        for data in theories for g_ in presentations)

    rng = random.Random(2024)
    ok_blow = ok_mult = True
    for _ in range(10 if full else 3):
        for data in (su, red):
            g_ = _random_forest(rng)
            base = tau(g_, data)
            for fr in (1, -1):
                blown = disjoint_union(g_, single_vertex(fr, "blow"))
                ok_blow &= tau(blown, data).value == base.value
            other = _random_forest(rng, max_vertices=2)
            ok_mult &= tau(disjoint_union(g_, other), data).value == \
                base.value * tau(other, data).value
    gates["blow_up_invariance"] = ok_blow
    gates["multiplicativity"] = ok_mult

    g_u1 = single_vertex(1)
    total = red.ctx.zero()
    for r in range(d):
        total = total + colored_bracket(g_u1, red, {"v0": r})
    gates["filter_completeness"] = total == colored_bracket(g_u1, red)

    kind = "spin" if spin else "coho"
    names = ["u0"] if not full else ["u0", "u-2", "chain_-2_-2", "chain_0_0"]
    ok_dec = ok_van = True
    for name in names:
        g_ = manifest_graph(name)
        B, _ = linking_data(g_)
        sset = characteristic_solutions(B, d, kind)
        vals = [refined_tau(g_, c, red, kind) for c in sset.solutions]
        ok_dec &= reduce(lambda x, y: x + y, vals) == tau(g_, red).value
        sols = set(sset.solutions)
        for c in itertools.product(range(d), repeat=len(B)):
            if c in sols:
                continue
            filt = {v.id: c[i] for i, v in enumerate(g_.surgery_vertices)}
            ok_van &= colored_bracket(g_, red, filt).is_zero()
    gates["refinement_decomposition"] = ok_dec
    gates["non_characteristic_vanishing"] = ok_van

    live = d // 2 if spin else 0
    gates["graded_gauss_vanishing"] = all(
        val.base.is_zero() == (nu != live)
        for nu, val in enumerate(graded_gauss_sums(red)))

    if not variant:
        names = ["u0", "u1"] if not full else \
            ["s3_empty", "u0", "u1", "u-2", "chain_-2_-2", "chain_0_0",
             "tree5"]
        gates["reduction_formula"] = all(
            reduction_check(manifest_graph(name), N, K,
                            su_data=su, red_data=red)["ok"]
            for name in names)
    g_unit = u1_gauss_unit(su, red)
    gates["abelian_gauss_modulus"] = \
        g_unit * g_unit.conjugate() == su.ctx.from_rational(n_prime)

    fixture_ok = True
    fixture_seen = False
    for name in MANIFEST_NAMES:
        man = load_manifest(name)
        exp = man["expected"]
        g_ = parse_plumbing(man["graph"])
        for data in (su, red):
            key = f"{data.theory}({N},{K})"
            if key not in exp["invariants"]:
                continue
            fixture_seen = True
            res = tau(g_, data)
            fixture_ok &= res.signature == exp["signature"]
            want = exp["invariants"][key]
            fixture_ok &= abs(res.value.embed()
                              - complex(want["re"], want["im"])) < 1e-9
    if fixture_seen:
        gates["bundled_fixture_match"] = fixture_ok

    gates.update(hecke_gates(N, K))
    return gates


def cmd_verify(args) -> int:
    if args.N + args.K > 8 and args.depth == "full":
        raise UsageError("full verification is limited to N + K <= 8")
    gates = verification_gates(args.N, args.K, args.depth)
    doc = {"N": args.N, "K": args.K, "depth": args.depth,
           "gates": gates, "all_pass": all(gates.values())}
    _emit(doc, args)
    return EXIT_OK if doc["all_pass"] else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="heckemod",
                     description="Exact quantum invariants of plumbed "
                                 "3-manifolds at rank N, level K")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theory=True):
        p.add_argument("N", type=int)
        p.add_argument("K", type=int)
        if theory:
            p.add_argument("--theory", choices=("su", "psu", "reduced"),
                           default="su")
        p.add_argument("--precision", type=int, default=15)
        p.add_argument("--json", metavar="PATH",
                       help="write output JSON to a file instead of stdout")

    p = sub.add_parser("modular-data", help="labels, dims, twists, S-matrix")
    common(p)
    p.set_defaults(func=cmd_modular_data)

    p = sub.add_parser("invariant", help="invariant of a plumbed manifold")
    common(p)
    p.add_argument("--manifold", required=True, metavar="PATH",
                   help="plumbing JSON file")
    p.add_argument("--refined", choices=("spin", "coho"))
    p.add_argument("--all-structures", action="store_true")
    p.add_argument("--structure", metavar="C1,C2,...")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("hecke-check", help="braid-algebra identity gates")
    common(p, theory=False)
    p.set_defaults(func=cmd_hecke_check)

    p = sub.add_parser("homfly", help="framed invariant of a braid closure")
    common(p, theory=False)
    p.add_argument("--braid", default="", metavar="1,1,1",
                   help="comma-separated signed generator indices")
    p.add_argument("--strands", type=int, required=True)
    p.set_defaults(func=cmd_homfly)

    p = sub.add_parser("verify", help="run every identity gate at (N, K)")
    common(p, theory=False)
    p.add_argument("--depth", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    if args.N < 2 or args.K < 1:
        print("usage error: need N >= 2 and K >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.precision < MIN_PRECISION:
        print(f"usage error: precision must be at least {MIN_PRECISION} "
              "digits", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except ScalarError as ex:
        print(f"computation error: {ex}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
