"""One workload in a fresh interpreter: seeded inputs, set-up, timed passes.

``run.py`` starts this file once per run (and once more per extra set-up
sample) so that import cost, set-up time and peak RSS belong to a single
workload.  The timed phase is a closed loop with one client on one thread:
each operation starts when the previous one has returned.  A pass runs the
workload's fixed operation list once; passes repeat until ``--seconds`` would
be exceeded, and at least one always runs.

Every operation returns whether its identities held and the exact values it
computed.  The exact values are reduced to a sha256 fingerprint and compared
with ``golden.json`` where that file holds a table for the workload (for
``cli_oneshot`` one table serves every seed, because its job list is fixed).

Usage (normally through run.py):

    python3 perfbench/workloads.py --workload hecke_oracle --seed 0 \
        --seconds 40 --mode run --out result.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from speed import PERIOD_S, SpeedLog

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
# back-to-back calibration samples at the ends of set-up and of each pass
CALIBRATION_SAMPLES = 5

clock = time.perf_counter


class Op:
    """One operation of a pass: a stable key, a group for per-command sums,
    and a callable returning (identities held, exact values)."""

    __slots__ = ("key", "group", "fn")

    def __init__(self, key, group, fn):
        self.key = key
        self.group = group
        self.fn = fn


# ---------------------------------------------------------------------------
# exact-value fingerprints
# ---------------------------------------------------------------------------

def canonical(x):
    """A JSON-ready form of an exact result, independent of object identity."""
    from heckemod.hecke import HeckeElement
    from heckemod.scalars import CycScalar, ExtScalar
    if isinstance(x, CycScalar):
        return ["cyc", x.ring.M, [c.numerator for c in x.coeffs],
                [c.denominator for c in x.coeffs]]
    if isinstance(x, ExtScalar):
        return ["ext", x.theory, x.eta_pow, canonical(x.base)]
    if isinstance(x, HeckeElement):
        return ["hecke", x.n, [[list(p), canonical(c)]
                               for p, c in sorted(x.terms.items())]]
    if isinstance(x, Fraction):
        return ["q", x.numerator, x.denominator]
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in sorted(x.items())}
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    raise TypeError(f"no canonical form for {type(x).__name__}")


def fingerprint(x) -> str:
    """sha256 of the canonical form; a string result is kept as it is."""
    if isinstance(x, str):
        return x
    text = json.dumps(canonical(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# cli_oneshot: one in-process CLI command per operation
# ---------------------------------------------------------------------------

MANIFESTS = ("s3_empty", "u0", "u1", "u-2", "chain_-2_-2", "chain_0_0",
             "tree5")
# (N, K, structure kind) of the refined invariant jobs
REFINED_RANK_LEVELS = [(3, 3, "coho"), (2, 6, "spin"), (2, 2, "spin"),
                       (2, 3, "coho"), (2, 4, "coho"), (4, 2, "coho")]
# (N, K, theory) of the unrefined invariant jobs; su(4,2) rebuilds the
# largest of these, so those seven jobs form the cluster op_p90_ms sits in
PLAIN_RANK_LEVELS = [(4, 2, "su"), (3, 3, "su"), (2, 6, "su"), (2, 3, "su"),
                     (3, 3, "psu")]
# jobs costlier than that cluster; with them p90 falls mid-cluster
HEAVY_INVARIANTS = [["invariant", "@" + m, "2", "9", "--theory", "su"]
                    for m in ("u0", "tree5")]

# 106 jobs.  modular-data field degrees phi(M): (2,2) 8, su(2,3) 8, su(3,2)
# 8, su(2,4) 8, (3,3) 12, (2,6) 16, su/reduced(4,2) 16, su(2,10) 16,
# su(2,9) 20, su(4,3) 24 with 20 labels.
CLI_JOBS = [
    ["modular-data", "2", "2"],
    ["modular-data", "2", "2", "--theory", "reduced"],
    ["modular-data", "2", "2", "--theory", "psu"],
    ["modular-data", "2", "3"],
    ["modular-data", "2", "3", "--theory", "reduced"],
    ["modular-data", "2", "4"],
    ["modular-data", "3", "2"],
    ["modular-data", "3", "3"],
    ["modular-data", "3", "3", "--theory", "psu"],
    ["modular-data", "3", "3", "--theory", "reduced"],
    ["modular-data", "2", "6"],
    ["modular-data", "2", "6", "--theory", "reduced"],
    ["modular-data", "4", "2"],
    ["modular-data", "4", "2", "--theory", "reduced"],
    ["modular-data", "2", "9"],
    ["modular-data", "2", "9", "--theory", "reduced"],
    ["modular-data", "2", "10"],
    ["modular-data", "4", "3"],
    *[["invariant", "@" + m, str(N), str(K), "--theory", "reduced",
       "--refined", kind, "--all-structures"]
      for N, K, kind in REFINED_RANK_LEVELS for m in MANIFESTS],
    *[["invariant", "@" + m, str(N), str(K), "--theory", theory]
      for N, K, theory in PLAIN_RANK_LEVELS for m in MANIFESTS],
    *HEAVY_INVARIANTS,
    ["verify", "3", "3", "--depth", "quick"],
    ["verify", "2", "3", "--depth", "quick"],
    ["verify", "2", "2", "--depth", "quick"],
    ["hecke-check", "2", "3"],
    ["hecke-check", "3", "3"],
    ["homfly", "--braid", "1,-2,1,-2,1", "--strands", "3", "2", "3"],
    ["homfly", "--braid", "1,2,3,-1,2,-3,1", "--strands", "4", "3", "3"],
    ["homfly", "--braid", "1,1,1", "--strands", "2", "2", "2"],
    ["homfly", "--braid", "1,-1,1", "--strands", "2", "2", "3"],
]


def inputs_cli(rng):
    jobs = list(CLI_JOBS)
    rng.shuffle(jobs)
    return jobs


def prepare_cli(jobs, work: Path):
    from importlib import resources

    import heckemod.cli as cli

    out = work / "cli_out.json"
    manifests = resources.files("heckemod").joinpath("manifests")
    ops = []
    for job in jobs:
        key = " ".join(job)
        argv = []
        for a in job:
            if a.startswith("@"):
                argv += ["--manifold", str(manifests.joinpath(a[1:] + ".json"))]
            else:
                argv.append(a)
        argv += ["--json", str(out)]

        def fn(argv=argv):
            if out.exists():
                out.unlink()
            code = cli.main(argv)
            data = out.read_bytes() if out.exists() else b""
            return True, f"exit {code} sha256 {hashlib.sha256(data).hexdigest()}"

        ops.append(Op(key, job[0], fn))
    summary = {"jobs": len(jobs), "order": [" ".join(j) for j in jobs]}
    return ops, summary


# ---------------------------------------------------------------------------
# invariants_batch: seeded plumbing manifolds against prebuilt modular data
# ---------------------------------------------------------------------------

BATCH_RANK_LEVELS = [((3, 3), "coho"), ((2, 6), "spin"), ((2, 3), "coho")]
FORESTS_PER_RANK_LEVEL = 28
CHAINS_PER_RANK_LEVEL = 7
FOREST_SIZES = (2, 14)
CHAIN_LENGTHS = (40, 120)
# linking-matrix coranks mod d, cycled over the forests of a rank-level;
# chains all have corank 0 (corank 1 makes a chain's cost depend on which
# residues its d structures pick)
FOREST_CORANKS = (0, 1, 0)


def corank_mod_p(B, p: int) -> int:
    """Dimension of the kernel of B over Z/p (p prime)."""
    rows = [[x % p for x in r] for r in B]
    n = len(rows)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return n - rank


def _framed_graph(framings, edges):
    """Plumbing document and its linking matrix (all vertices surgered)."""
    n = len(framings)
    B = [[0] * n for _ in range(n)]
    for i, f in enumerate(framings):
        B[i][i] = f
    for u, w in edges:
        B[u][w] += 1
        B[w][u] += 1
    doc = {"vertices": [{"id": f"v{i}", "framing": f}
                        for i, f in enumerate(framings)],
           "edges": [[f"v{u}", f"v{w}"] for u, w in edges]}
    return doc, B


def random_forest(rng, n: int, components: int, d: int, corank: int):
    """Random plumbing forest on n vertices in the given number of trees,
    framings in [-3, 3], whose linking matrix has the given corank mod d
    (ignored when d = 1).

    The edge count sets the leaf-elimination work and the corank the number
    of refined structures (d**corank), so fixing both per input slot makes
    every seed do about the same amount of work.
    """
    roots = set(rng.sample(range(1, n), min(components, n) - 1))
    while True:
        framings = [rng.randint(-3, 3) for _ in range(n)]
        edges = [(rng.randrange(i), i) for i in range(1, n) if i not in roots]
        doc, B = _framed_graph(framings, edges)
        if d == 1 or corank_mod_p(B, d) == corank:
            return doc


def random_chain(rng, n: int, d: int, corank: int):
    """Linear chain on n vertices, framings in [-3, 3], given corank mod d."""
    edges = [(i, i + 1) for i in range(n - 1)]
    while True:
        doc, B = _framed_graph([rng.randint(-3, 3) for _ in range(n)], edges)
        if d == 1 or corank_mod_p(B, d) == corank:
            return doc


def spread(lo: int, hi: int, count: int) -> list[int]:
    """count integers evenly covering [lo, hi]."""
    if count == 1:
        return [lo]
    return [lo + round((hi - lo) * k / (count - 1)) for k in range(count)]


def inputs_batch(rng):
    """Plumbing documents: per rank-level, forests and chains of spread
    sizes, in seeded order."""
    specs = []
    for (N, K), kind in BATCH_RANK_LEVELS:
        d = math.gcd(N, K)
        for j, n in enumerate(spread(*FOREST_SIZES, FORESTS_PER_RANK_LEVEL)):
            doc = random_forest(rng, n, 1 + j % 2, d, FOREST_CORANKS[j % 3])
            specs.append((N, K, kind, "forest", doc))
        for n in spread(*CHAIN_LENGTHS, CHAINS_PER_RANK_LEVEL):
            specs.append((N, K, kind, "chain", random_chain(rng, n, d, 0)))
    rng.shuffle(specs)
    return specs


def prepare_batch(specs, work: Path):
    # layer calls go through the module attributes, so a traced run sees them
    from heckemod import moddata, refine, surgery

    data = {}
    for (N, K), _ in BATCH_RANK_LEVELS:
        data[N, K] = (moddata.build_modular_data(N, K, "su"),
                      moddata.build_modular_data(N, K, "reduced"))

    def evaluate(g, N, K, kind):
        su, red = data[N, K]
        t_su = surgery.tau(g, su).value
        t_red = surgery.tau(g, red).value
        B, _ = surgery.linking_data(g)
        sset = refine.characteristic_solutions(B, red.grading_modulus, kind)
        parts = [refine.refined_tau(g, c, red, kind) for c in sset.solutions]
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        ok = total == t_red
        n_prime = N // red.grading_modulus
        if n_prime > 1 and len(B) <= 8:
            ok = ok and bool(refine.reduction_check(
                g, N, K, su_data=su, red_data=red)["ok"])
        return ok, {"su": t_su, "reduced": t_red, "refined": parts}

    ops = []
    for i, (N, K, kind, shape, doc) in enumerate(specs):
        g = surgery.parse_plumbing(doc)
        key = f"{i:03d}:{shape}{len(doc['vertices'])}@{N},{K}"
        ops.append(Op(key, shape,
                      lambda g=g, N=N, K=K, kind=kind: evaluate(g, N, K, kind)))
    summary = {
        "forest_vertices": sorted(len(s[4]["vertices"]) for s in specs
                                  if s[3] == "forest"),
        "chain_lengths": sorted(len(s[4]["vertices"]) for s in specs
                                if s[3] == "chain"),
        "rank_levels": {f"{N},{K}": {
            "kind": kind,
            "labels_su": len(data[N, K][0].labels),
            "labels_reduced": len(data[N, K][1].labels),
            "field_degree_su": data[N, K][0].ctx.degree,
            "field_degree_reduced": data[N, K][1].ctx.degree}
            for (N, K), kind in BATCH_RANK_LEVELS},
    }
    return ops, summary


# ---------------------------------------------------------------------------
# hecke_oracle: skein-level checks in H_n, n <= 4
# ---------------------------------------------------------------------------

HECKE_RANK_LEVELS = [(2, 3), (3, 2), (3, 3), (2, 5)]
BRAIDS_PER_RANK_LEVEL = 21
# standard tableaux checked per size (all 2 and 4 of sizes 2 and 3, 6 of the
# 10 of size 4): with the size-4 symmetrizer, the n = 4 checks are a fifth
# of the operations, so op_p90_ms falls inside that group
TABLEAUX_PER_SIZE = {2: 2, 3: 4, 4: 6}
BRAID_STRANDS = (3, 4, 5)
BRAID_LENGTHS = (8, 24)


def random_braid(rng, strands: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(length)]


def inputs_hecke(rng):
    """Per rank-level: braid words with spread lengths and a rotation each,
    plus the seeded order of all checks."""
    braids = []
    per_strand = BRAIDS_PER_RANK_LEVEL // len(BRAID_STRANDS)
    lengths = spread(*BRAID_LENGTHS, per_strand)
    for N, K in HECKE_RANK_LEVELS:
        for j in range(BRAIDS_PER_RANK_LEVEL):
            strands = BRAID_STRANDS[j % len(BRAID_STRANDS)]
            length = lengths[j // len(BRAID_STRANDS)]
            word = random_braid(rng, strands, length)
            braids.append((N, K, j, strands, word, rng.randrange(1, length)))
    return braids, random.Random(rng.random())


def prepare_hecke(inputs, work: Path):
    from heckemod import diagrams, hecke, scalars

    braids, order = inputs
    specs = []
    rank_levels = {}
    for N, K in HECKE_RANK_LEVELS:
        ctx = scalars.su_parameters(N, K)
        rank_levels[N, K] = ctx
        twists = {n: (hecke.full_twist(n, ctx), (ctx.a() * ctx.v(-1)) ** n)
                  for n in (2, 3, 4)}
        for n in (2, 3, 4):
            hecke.symmetrizer(n, "f", ctx)
            hecke.symmetrizer(n, "g", ctx)

        def idempotent(t, ctx=ctx, twists=twists):
            p = hecke.path_idempotent(t, ctx)
            shape = t.shape()
            trace = p.markov_trace()
            ft, curls = twists[t.size]
            ok = trace == diagrams.quantum_dimension(ctx, shape) and \
                curls * (ft * p) == diagrams.twist_coefficient(ctx, shape) * p
            return ok, {"trace": trace, "idempotent": p}

        def symmetrizers(n, ctx=ctx):
            f = hecke.symmetrizer(n, "f", ctx)
            g = hecke.symmetrizer(n, "g", ctx)
            return f * f == f and g * g == g, {"f": f, "g": g}

        for n in (2, 3, 4):
            tableaux = hecke.standard_tableaux(n)[:TABLEAUX_PER_SIZE[n]]
            for j, t in enumerate(tableaux):
                specs.append((f"idempotent{n}.{j}@{N},{K}", "idempotent",
                              lambda t=t, f=idempotent: f(t)))
            specs.append((f"symmetrizer{n}@{N},{K}", "symmetrizer",
                          lambda n=n, f=symmetrizers: f(n)))

    def braid(word, strands, shift, ctx):
        value = hecke.homfly_braid_closure(word, strands, ctx)
        turned = hecke.homfly_braid_closure(word[shift:] + word[:shift],
                                            strands, ctx)
        return value == turned, value

    for N, K, j, strands, word, shift in braids:
        specs.append((f"braid{strands}x{len(word)}.{j}@{N},{K}", "braid",
                      lambda w=word, s=strands, k=shift, c=rank_levels[N, K]:
                      braid(w, s, k, c)))
    order.shuffle(specs)
    ops = [Op(key, group, fn) for key, group, fn in specs]
    summary = {
        "rank_levels": {f"{N},{K}": {"field_degree": c.degree, "root_order": c.M}
                        for (N, K), c in rank_levels.items()},
        "braid_lengths": [len(b[4]) for b in braids],
        "braid_strands": [b[3] for b in braids],
        "ops_by_kind": {g: sum(1 for o in ops if o.group == g)
                        for g in ("idempotent", "symmetrizer", "braid")},
    }
    return ops, summary


# name -> (inputs from the seed, stdlib only; set-up of the package state)
WORKLOADS = {
    "cli_oneshot": (inputs_cli, prepare_cli),
    "invariants_batch": (inputs_batch, prepare_batch),
    "hecke_oracle": (inputs_hecke, prepare_hecke),
}


# ---------------------------------------------------------------------------
# the timed phase
# ---------------------------------------------------------------------------

def run_pass(ops, expected, speed, span=None):
    """Run every operation once; return (raw wall seconds, records).

    A record is [key, group, raw seconds, ok, fingerprint, error, seconds
    at reference speed]; both times leave calibration slices out.  An
    operation that raises, breaks an identity or differs from its golden
    fingerprint is not ok.  Fingerprints run between operations, off their
    clocks.  Untraced passes run under the speed sampler; a traced pass
    (span given) runs without it, so that no slice lands in a traced call,
    and takes a calibration sample between operations instead.
    """
    records = []
    start = clock()
    speed.calibrate(CALIBRATION_SAMPLES)
    for op in ops:
        error = None
        t0 = clock()
        try:
            if span is None:
                ok, exact = op.fn()
            else:
                with span("op." + op.group):
                    ok, exact = op.fn()
        except Exception as ex:  # a failed operation is counted, not fatal
            ok, exact, error = False, None, f"{type(ex).__name__}: {ex}"
        t1 = clock()
        digest = None if error else fingerprint(exact)
        if ok and expected is not None and expected.get(op.key) != digest:
            ok, error = False, "fingerprint differs from golden.json"
        elif not ok and error is None:
            error = "identity check failed"
        records.append([op.key, op.group, t0, bool(ok), digest, error, t1])
        if span is not None and clock() - speed.ends[-1] >= PERIOD_S:
            speed.calibrate()
    speed.calibrate(CALIBRATION_SAMPLES)
    wall = clock() - start
    for r in records:
        t0, t1 = r[2], r[6]
        r[2], r[6] = speed.work(t0, t1), speed.scaled(t0, t1)
    return wall, records


def pass_summary(wall, records, speed, start):
    return {"wall_s": wall, "calibration_s": speed.spent(start, start + wall),
            "scaled_s": sum(r[6] for r in records), "ops": records}


def golden_table(path: Path, workload: str, seed: int):
    if not path.is_file():
        return None
    tables = json.loads(path.read_text()).get(workload, {})
    return tables.get("any", tables.get(str(seed)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    ap.add_argument("--out", required=True,
                    help="result JSON path; scratch files go next to it")
    ap.add_argument("--golden", default=str(GOLDEN))
    ap.add_argument("--limit", type=int, default=0,
                    help="run only the first LIMIT operations, one pass")
    ap.add_argument("--write-golden", action="store_true",
                    help="store this seed's fingerprints in --golden")
    args = ap.parse_args(argv)
    work = Path(args.out).parent
    work.mkdir(parents=True, exist_ok=True)

    make_inputs, prepare = WORKLOADS[args.workload]
    inputs = make_inputs(random.Random(args.seed))
    speed = SpeedLog()
    speed.start_sampler()
    try:
        result = measure(args, inputs, prepare, speed, work)
    finally:
        speed.stop_sampler()
    import mpmath
    result["mpmath"] = mpmath.__version__
    result["peak_rss_mb"] = peak_rss_mb()
    Path(args.out).write_text(json.dumps(result))
    return 0


def measure(args, inputs, prepare, speed, work: Path) -> dict:
    """Set-up and the timed passes (or the traced run), under the speed
    sampler started by the caller."""
    speed.calibrate(CALIBRATION_SAMPLES)
    t0 = clock()
    import heckemod  # noqa: F401  (import cost belongs to set-up)
    ops, summary = prepare(inputs, work)
    t1 = clock()
    speed.calibrate(CALIBRATION_SAMPLES)
    if args.limit:
        ops = ops[:args.limit]
    result = {"setup_raw_s": speed.work(t0, t1),
              "setup_s": speed.scaled(t0, t1),
              "inputs": summary, "operations": len(ops)}

    expected = None if args.write_golden else \
        golden_table(Path(args.golden), args.workload, args.seed)
    result["golden"] = expected is not None

    def timed_pass(span=None):
        start = clock()
        wall, records = run_pass(ops, expected, speed, span)
        return pass_summary(wall, records, speed, start)

    if args.mode == "run":
        passes = []
        start = clock()
        while True:
            passes.append(timed_pass())
            longest = max(p["wall_s"] for p in passes)
            if args.limit or clock() - start + longest > args.seconds:
                break
        result["passes"] = passes
        if args.write_golden:
            write_golden(Path(args.golden), args.workload, args.seed, passes[0])
    elif args.mode == "trace":
        from tracing import Tracer, kernel_probe
        reference = timed_pass()
        speed.stop_sampler()
        tracer = Tracer()
        tracer.install()
        start = clock()
        try:
            traced = timed_pass(tracer.span)
        finally:
            tracer.uninstall()
        result["passes"] = [reference, traced]
        factor = speed.factor_between(start, start + traced["wall_s"])
        result["trace"] = tracer.summary(
            traced["wall_s"] - traced["calibration_s"], factor)
        result["trace"]["overhead_ratio"] = \
            traced["scaled_s"] / reference["scaled_s"]
        result["kernel"] = kernel_probe(speed)
        trace_file = work / f"trace_{args.workload}_{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump(), indent=1))
        result["trace_file"] = str(trace_file)
    return result


def write_golden(path: Path, workload: str, seed: int, first_pass) -> None:
    bad = [r for r in first_pass["ops"] if not r[3]]
    if bad:
        raise SystemExit(f"refusing to record fingerprints: {len(bad)} "
                         f"operations failed, first {bad[0][0]}: {bad[0][5]}")
    doc = json.loads(path.read_text()) if path.is_file() else {}
    table = {r[0]: r[4] for r in first_pass["ops"]}
    doc.setdefault(workload, {})["any" if workload == "cli_oneshot"
                                 else str(seed)] = dict(sorted(table.items()))
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
