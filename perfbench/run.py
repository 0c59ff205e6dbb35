"""heckemod benchmark: one workload per invocation, printed as one JSON line.

    python3 perfbench/run.py --workload invariants_batch --seed 3 \
        --seconds 40 --trace 0

Run from the root of a source checkout (stdlib only; the package is taken
from ``src/``).  The workload runs in a fresh interpreter (workloads.py).
With ``--trace 0`` set-up is sampled in that interpreter and in two more
set-up-only interpreters, and the end-to-end metrics are printed; with
``--trace 1`` the per-layer metrics of one traced pass are printed.  The
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the lines before it give each metric with its unit, ``fail_ratio`` with
its counts, and a run record (seed, input summary, versions).  Scratch
files and the trace go to ``.perfbench_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
SETUP_SAMPLES = 3
# columns of an operation record (see workloads.run_pass)
RAW, SCALED = 2, 6

WORKLOADS = ("cli_oneshot", "invariants_batch", "hecke_oracle")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]

LAYER_CALLS_SELF = ["scalars." + op for op in
                    ("mul", "add", "invert", "conjugate", "pow", "embed")]
LAYER_CALLS_S = (
    ["scalars.scalar_to_json", "scalars.ring_setup"]
    + ["diagrams." + f for f in
       ("quantum_dimension", "twist_coefficient", "orbit_representatives")]
    + ["moddata." + f for f in
       ("build_modular_data", "s_matrix_entry", "fusion_coefficients",
        "verlinde_dimension")]
    + ["surgery." + f for f in ("tau", "colored_bracket", "linking_data")]
    + ["refine." + f for f in
       ("characteristic_solutions", "refined_tau", "reduction_check",
        "u1_invariant")]
    + ["hecke." + f for f in
       ("mul", "markov_trace", "path_idempotent", "homfly_braid_closure")]
    + ["cli." + f for f in ("main", "emit", "verification_gates")])
LAYER_SELF = ["moddata.build_modular_data", "surgery.colored_bracket"]
KERNEL = [f"{op}.deg{deg}_us" for op in ("mul", "add", "invert", "conjugate")
          for deg in (8, 16, 32)]


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for layer in LAYER_CALLS_SELF:
        names += [(layer + ".calls", "count"), (layer + ".self_s", "s")]
    for layer in LAYER_CALLS_S:
        names += [(layer + ".calls", "count"), (layer + ".s", "s")]
    names += [(layer + ".self_s", "s") for layer in LAYER_SELF]
    names += [("scalars.kernel." + k, "us") for k in KERNEL]
    names += [("trace.overhead_ratio", "ratio"),
              ("trace.self_cover_ratio", "ratio")]
    return names


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args, mode: str, out: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(timeout, 1.0))
    return json.loads(out.read_text())


def end_to_end(main: dict, setups: list[float], column: int = SCALED) -> dict:
    """End-to-end metrics from operation times at reference speed (or, with
    column=RAW, as measured)."""
    # percentiles are taken per pass, over the same operation list each
    # time, and the median over passes is reported
    per_pass = [[r[column] for r in p["ops"]] for p in main["passes"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(v) for v in per_pass),
        "op_p50_ms": statistics.median(
            statistics.median(v) for v in per_pass) * 1e3,
        "op_p90_ms": statistics.median(
            statistics.quantiles(v, n=10)[8] for v in per_pass) * 1e3,
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(main: dict) -> dict:
    trace = main["trace"]
    layers = trace["layers"]
    values = {}
    for name, _ in per_layer_names():
        if name.startswith("scalars.kernel."):
            values[name] = main["kernel"][name[len("scalars.kernel."):]]
        elif name.startswith("trace."):
            values[name] = trace[name[len("trace."):]]
        else:
            layer, field = name.rsplit(".", 1)
            values[name] = layers.get(layer, {}).get(field, 0)
    return values


def group_sums(main: dict) -> dict:
    """Median over passes of the summed seconds of each operation group."""
    sums = {}
    for p in main["passes"]:
        totals = {}
        for r in p["ops"]:
            totals[r[1]] = totals.get(r[1], 0.0) + r[SCALED]
        for g, t in totals.items():
            sums.setdefault(g, []).append(t)
    return {g: statistics.median(v) for g, v in sorted(sums.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="heckemod benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "heckemod" / "__init__.py").is_file():
        print(f"benchmark error: no heckemod sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    started = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups, raw_setups = [], []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                sample = run_child(args, "setup", work / f"setup{k}.json",
                                   remaining())
                setups.append(sample["setup_s"])
                raw_setups.append(sample["setup_raw_s"])
        result = run_child(args, "trace" if args.trace else "run",
                           work / "result.json", remaining())
    except (subprocess.SubprocessError, OSError, ValueError) as ex:
        print(f"benchmark error: {ex}", file=sys.stderr)
        return 2
    finally:
        # keep the trace file; the rest of the scratch directory goes
        for f in work.glob("*"):
            if not f.name.startswith("trace_"):
                f.unlink()
        for d in (work, WORK):
            if d.is_dir() and not any(d.iterdir()):
                d.rmdir()
    setups.append(result["setup_s"])
    raw_setups.append(result["setup_raw_s"])

    records = [r for p in result["passes"] for r in p["ops"]]
    attempted = len(records)
    failed = sum(1 for r in records if not r[3])
    correct = failed == 0
    if args.trace:
        values = per_layer(result)
        units = dict(per_layer_names())
        # the self times of all traced calls must account for the traced
        # pass, or the per-layer split does not describe it
        if not 0.9 <= values["trace.self_cover_ratio"] <= 1.0:
            correct = False
    else:
        values = end_to_end(result, setups)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for key, _, _, ok, _, error, _ in records:
        if not ok:
            print(f"failed {key}: {error}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(result["passes"]),
        "pass_raw_wall_s": [p["wall_s"] for p in result["passes"]],
        "pass_calibration_s": [p["calibration_s"] for p in result["passes"]],
        "pass_scaled_s": [p["scaled_s"] for p in result["passes"]],
        "raw_metrics": (None if args.trace else
                        end_to_end(result, raw_setups, RAW)),
        "operations_per_pass": result["operations"],
        "golden_checked": result["golden"],
        "group_seconds": group_sums(result),
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "inputs": result["inputs"],
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "mpmath": result["mpmath"],
        "nproc": os.cpu_count(),
        "trace_file": result.get("trace_file"),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
