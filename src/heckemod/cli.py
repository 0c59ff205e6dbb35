"""Command-line surface: modular data, invariants, Hecke checks, and the
bundled verification suite.

All output is deterministic JSON (sorted keys, canonical exact scalars plus
complex approximations).  Exit codes: 0 all requested checks pass, 1 usage
error, 2 computation error (including a failed construction identity), 3 a
reported identity failed.  Every subcommand returns its document and whether
its reported identities hold; :func:`main` alone writes the one and maps the
other to the exit code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import sys
from json.encoder import encode_basestring_ascii

from .diagrams import EMPTY, quantum_dimension
from .hecke import (
    MAX_STRANDS,
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
    verlinde_dimension,
)
from .refine import (
    _structure_kind,
    characteristic_solutions,
    graded_gauss_sums,
    reduction_check,
    refined_tau,
    u1_gauss_unit,
)
from .scalars import (
    MIN_PRECISION,
    ExtScalar,
    RingContext,
    ScalarError,
    reduced_framing_split,
    scalar_to_json,
    su_parameters,
)
from .surgery import (
    PlumbingGraph,
    colored_bracket,
    disjoint_union,
    linking_data,
    parse_plumbing,
    random_forest,
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
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder, so this
    writes the same text directly: a list of plain ints in one join, and
    each dict object once per nesting depth (the scalar writer hands out
    one dict per distinct scalar, so a repeated S entry is encoded once).
    """
    done = {}  # (id(dict), depth) -> its text, for this call only

    def enc(o, depth):
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if isinstance(o, dict):
            if not o:
                return "{}"
            text = done.get((id(o), depth))
            if text is None:
                sep = "\n" + "  " * (depth + 1)
                text = done[id(o), depth] = (
                    "{" + sep + ("," + sep).join(
                        encode_basestring_ascii(k) + ": " + enc(v, depth + 1)
                        for k, v in sorted(o.items()))
                    + "\n" + "  " * depth + "}")
            return text
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            sep = "\n" + "  " * (depth + 1)
            if set(map(type, o)) == {int}:
                body = ("," + sep).join(map(int.__repr__, o))
            else:
                body = ("," + sep).join(enc(x, depth + 1) for x in o)
            return "[" + sep + body + "\n" + "  " * depth + "]"
        return json.dumps(o)

    return enc(doc, 0) + "\n"


def _scalar_writer(precision: int):
    """``scalar_to_json`` at ``precision``, once per distinct scalar of one
    document.  The key is the representation, not the value: a zero
    ExtScalar equals itself at either eta parity but writes its own
    ``eta_pow``, and ExtScalar equality raises across theories."""
    memo = {}

    def write(x):
        if isinstance(x, ExtScalar):
            base, om = x.base, x.omega
            key = (base.ring.M, base.nums, base.den,
                   x.eta_pow, x.theory, om.nums, om.den)
        else:
            key = (x.ring.M, x.nums, x.den)
        doc = memo.get(key)
        if doc is None:
            doc = memo[key] = scalar_to_json(x, precision)
        return doc

    return write


def _emit(doc, args) -> None:
    text = canonical_json(doc)
    if getattr(args, "json", None):
        try:
            with open(args.json, "w") as fh:
                fh.write(text)
        except OSError as ex:
            raise UsageError(f"cannot write output file: {ex}")
    else:
        sys.stdout.write(text)


def load_manifest(name: str) -> dict:
    from importlib import resources
    path = resources.files("heckemod").joinpath("manifests", f"{name}.json")
    with path.open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_modular_data(args) -> tuple[dict, bool]:
    data = build_modular_data(args.N, args.K, args.theory)
    write = _scalar_writer(args.precision)
    doc = {
        "N": args.N,
        "K": args.K,
        "theory": args.theory,
        "labels": [str(lab) for lab in data.labels],
        "dims": [write(x) for x in data.dims],
        "twists": [write(x) for x in data.twists],
        "s_matrix": [[write(x) for x in row] for row in data.s_matrix],
        "omega": write(data.omega),
        "delta_plus": write(data.delta_plus),
        "delta_minus": write(data.delta_minus),
        "report": dict(data.report),
    }
    if data.theory == "reduced":
        doc["alpha"] = data.alpha
        doc["beta"] = data.beta
    return doc, all(data.report.values())


def _load_graph(args) -> PlumbingGraph:
    try:
        with open(args.manifold, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise UsageError(f"cannot read manifold file: {ex}")
    except (ValueError, RecursionError) as ex:  # undecodable, too deep, too long
        raise UsageError(f"manifold file is not valid JSON: {ex}")
    if isinstance(doc, dict) and "graph" in doc:  # bundled manifest wrapper
        doc = doc["graph"]
    return parse_plumbing(doc)


def cmd_invariant(args) -> tuple[dict, bool]:
    if args.all_structures and not args.refined:
        raise UsageError("--all-structures requires --refined")
    if args.structure and not args.refined:
        raise UsageError("--structure requires --refined")
    if args.refined and args.theory != "reduced":
        raise UsageError("--refined requires --theory reduced")
    g = _load_graph(args)
    data = build_modular_data(args.N, args.K, args.theory)
    write = _scalar_writer(args.precision)
    res = tau(g, data)
    B, _ = linking_data(g)
    doc = {
        "N": args.N,
        "K": args.K,
        "theory": args.theory,
        "signature": res.signature,
        "linking_matrix": B,
        "value": write(res.value),
    }
    if not args.refined:
        return doc, True
    kind = args.refined
    d = data.grading_modulus
    if args.all_structures:
        sols = characteristic_solutions(B, d, kind).solutions
        values = [refined_tau(g, c, data, kind) for c in sols]
        ok = sum(values[1:], values[0]) == res.value
        doc["refined"] = {
            "kind": kind,
            "modulus": d,
            "structures": [{"structure": list(c), "value": write(val)}
                           for c, val in zip(sols, values)],
            "decomposition_ok": ok,
        }
        return doc, ok
    if not args.structure:
        raise UsageError(
            "--refined needs --all-structures or --structure c1,c2,...")
    try:
        c = [int(x) for x in args.structure.split(",")] \
            if args.structure.strip() else []
    except ValueError:
        raise UsageError("--structure must be comma-separated integers")
    val = refined_tau(g, c, data, kind)
    doc["refined"] = {"kind": kind, "modulus": d,
                      "structure": [x % d for x in c], "value": write(val)}
    return doc, True


def hecke_gates(ctx: RingContext) -> dict:
    """Small exact identity gates for the braid-algebra layer over ``ctx``."""
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
    # the size-n symmetrizers and path idempotents exist only for n < N + K
    sizes = range(1, min(4, ctx.N + ctx.K))
    for n in sizes[1:]:
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
    for n in sizes:
        total = HeckeElement(n, ctx, {})
        for t in standard_tableaux(n):
            pt = path_idempotent(t, ctx)
            total = total + pt
            ok_tr &= pt.markov_trace() == quantum_dimension(ctx, t.shape())
        ok_complete &= total == HeckeElement.identity(n, ctx)
    gates["trace_of_path_idempotent_is_dimension"] = ok_tr
    gates["path_idempotent_completeness"] = ok_complete
    return gates


def _gate_doc(args, gates: dict, **extra) -> tuple[dict, bool]:
    passed = all(gates.values())
    return {"N": args.N, "K": args.K, **extra, "gates": gates,
            "all_pass": passed}, passed


def cmd_hecke_check(args) -> tuple[dict, bool]:
    return _gate_doc(args, hecke_gates(su_parameters(args.N, args.K)))


def cmd_homfly(args) -> tuple[dict, bool]:
    try:
        word = [int(x) for x in args.braid.split(",")] if args.braid else []
    except ValueError:
        raise UsageError("braid word must be comma-separated signed integers")
    if not 1 <= args.strands <= MAX_STRANDS:
        raise UsageError(f"--strands must be between 1 and {MAX_STRANDS}")
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
    return doc, True


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _is_one(value: ExtScalar) -> bool:
    return value == ExtScalar(value.omega.ring.one(), 0, value.theory,
                              value.omega)


def verification_gates(N: int, K: int, depth: str = "quick") -> dict:
    """Every identity gate applicable at (N, K); name -> pass/fail.  A gate
    reads the same bundled manifests at either ``depth``, which sets only
    the genera, the random forests and the Littlewood-Richardson check."""
    full = depth == "full"
    su = build_modular_data(N, K, "su")
    red = build_modular_data(N, K, "reduced")
    psu = build_modular_data(N, K, "psu")
    d = red.grading_modulus
    n_prime = N // d
    spin = red.spin_case
    gates = {}

    gates["label_count_full"] = len(su.labels) == \
        math.factorial(N + K - 1) // (math.factorial(N - 1) * math.factorial(K))
    gates["label_count_reduced"] = len(red.labels) == \
        d * math.factorial(N + K - 1) // (math.factorial(N) * math.factorial(K))
    for data, suffix in ((su, "full"), (red, "reduced")):
        for key, gate in (("omega_closed_form", "omega_closed_form"),
                          ("modular", "s_unitarity"),
                          ("delta_product", "delta_product")):
            gates[f"{gate}_{suffix}"] = data.report[key]
    if spin:
        gates["degree_zero_spin_sum_vanishes"] = \
            psu.report["spin_delta_plus_vanishes"]
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
        # the first lookup builds every fusion matrix and checks each Pieri
        # matrix against S, so no later lookup can fail
        fusion_coefficients(su, EMPTY, EMPTY)
        ok_fusion = True
        # fusion is commutative, so (mu, lam) gives the same values as
        # (lam, mu): one comparison per unordered pair, at full depth only
        pairs = itertools.combinations_with_replacement(su.labels, 2)
        for lam, mu in pairs if full else ():
            if lam.size + mu.size <= K:
                out = fusion_coefficients(su, lam, mu)
                ok_fusion &= all(
                    out.get(nu, 0) == fusion_from_lr(N, x, y, nu)
                    for x, y in ((lam, mu), (mu, lam)) for nu in su.labels)
        gates["fusion_integrality"] = ok_fusion
    except ScalarError:
        gates["fusion_integrality"] = False

    theories = [su, red] + ([psu] if d == 1 else [])
    manifests = {}  # name -> (graph, expected values), for this call only
    for name in MANIFEST_NAMES:
        doc = load_manifest(name)
        manifests[name] = parse_plumbing(doc["graph"]), doc["expected"]

    @functools.cache  # for this call only
    def manifest_tau(name, theory):
        return tau(manifests[name][0],
                   {"su": su, "reduced": red, "psu": psu}[theory])

    gates["sphere_normalization"] = all(
        _is_one(res.value) for data in theories
        for res in (manifest_tau("s3_empty", data.theory),
                    manifest_tau("u1", data.theory),
                    tau(single_vertex(-1), data)))

    rng = random.Random(2024)
    ok_blow = ok_mult = True
    for _ in range(10 if full else 3):
        for data in (su, red):
            g_ = random_forest(rng)
            base = tau(g_, data)
            for fr in (1, -1):
                blown = disjoint_union(g_, single_vertex(fr, "blow"))
                ok_blow &= tau(blown, data).value == base.value
            other = random_forest(rng, max_vertices=2)
            ok_mult &= tau(disjoint_union(g_, other), data).value == \
                base.value * tau(other, data).value
    gates["blow_up_invariance"] = ok_blow
    gates["multiplicativity"] = ok_mult

    g_u1 = single_vertex(1)
    total = red.ctx.zero()
    for r in range(d):
        total = total + colored_bracket(g_u1, red, {"v0": r})
    gates["filter_completeness"] = total == colored_bracket(g_u1, red)

    kind = _structure_kind(red)
    ok_dec = ok_van = True
    # tree5 stays out: its d^m filtered brackets are the cost
    for name in ("u0", "u-2", "chain_-2_-2", "chain_0_0"):
        g_ = manifests[name][0]
        res = manifest_tau(name, red.theory)
        B, _ = linking_data(g_)
        sols = characteristic_solutions(B, d, kind).solutions
        vals = [refined_tau(g_, c, red, kind) for c in sols]
        ok_dec &= sum(vals[1:], vals[0]) == res.value
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

    if not reduced_framing_split(N, K)[2]:  # the variant normalization
        gates["reduction_formula"] = all(
            reduction_check(g_, N, K, su_data=su, red_data=red)["ok"]
            for g_, _ in manifests.values())
    g_unit = u1_gauss_unit(su, red)
    gates["abelian_gauss_modulus"] = \
        g_unit * g_unit.conjugate() == su.ctx.from_rational(n_prime)

    fixture_ok = True
    fixture_seen = False
    for name, (_, exp) in manifests.items():
        for data in (su, red):
            key = f"{data.theory}({N},{K})"
            if key not in exp["invariants"]:
                continue
            fixture_seen = True
            res = manifest_tau(name, data.theory)
            fixture_ok &= res.signature == exp["signature"]
            want = exp["invariants"][key]
            fixture_ok &= abs(res.value.embed()
                              - complex(want["re"], want["im"])) < 1e-9
    if fixture_seen:
        gates["bundled_fixture_match"] = fixture_ok

    gates.update(hecke_gates(su.ctx))
    return gates


def cmd_verify(args) -> tuple[dict, bool]:
    if args.N + args.K > 8 and args.depth == "full":
        raise UsageError("full verification is limited to N + K <= 8")
    return _gate_doc(args, verification_gates(args.N, args.K, args.depth),
                     depth=args.depth)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared after it:
    its configuration never changes and each ``parse_args`` returns a
    fresh namespace."""
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
    try:
        args = build_parser().parse_args(argv)
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
        doc, passed = args.func(args)
        _emit(doc, args)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except ScalarError as ex:
        print(f"computation error: {ex}", file=sys.stderr)
        return EXIT_COMPUTATION
    return EXIT_OK if passed else EXIT_VERIFICATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
